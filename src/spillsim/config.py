"""Scenario config files.

Line-oriented text with bracketed sections and ``key = value`` entries. The
grammar, in full:

* blank lines and lines starting with ``#`` are ignored;
* ``[section]`` opens one of: population, weights, dynamics, design,
  estimators, run;
* ``key = value`` assigns within the current section;
* values are typed: integers, floats, booleans (true/false), bare strings, or
  comma-separated lists of any of these.

Unknown sections and unknown keys are rejected, never ignored, and so is a key
that the section's chosen kind does not read (``mu`` under ``kind =
clustered``, ``tau`` under ``exposure = weighted_sum``). Errors name the
offending ``section.key``, and the line where a single line is at fault. See
the README for the key reference and defaults.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math

from .design import DesignSpec, RAMP_PROBS
from .dynamics import (
    DynamicsSpec,
    LinearPeer,
    LinearUnit,
    MeanFieldThreshold,
    SaturatingUnit,
    WeightedSumExposure,
    ZeroPeer,
)
from .estimators import FeatureSpec
from .harness import ESTIMATORS, ScenarioConfig
from .weights import WEIGHT_KINDS, WeightConfig


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


# ESE estimators take a feature override, ``features_<name>``.
_FEATURE_KEYS = {f"features_{name}": name for name, est in ESTIMATORS.items() if est.features is not None}

SECTIONS = {
    "population": {"n_units", "n_rounds", "baseline_mean", "baseline_sd"},
    "weights": {"kind"}.union(*(kind.keys for kind in WEIGHT_KINDS.values())),
    # The fields of the dataclasses the section builds, named as in the file;
    # only the linear peer's coefficients carry a prefix there.
    "dynamics": {
        "peer_w",
        "peer_y",
        *(f.name for cls in (DynamicsSpec, SaturatingUnit, MeanFieldThreshold) for f in dataclasses.fields(cls)),
    },
    "design": {"kind", "probs", "value"},
    "estimators": {"use", *_FEATURE_KEYS},
    "run": {"seed", "reps", "fixed_network"},
}


def _parse_scalar(raw: str):
    text = raw.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(raw: str):
    if "," in raw:
        return [_parse_scalar(part) for part in raw.split(",")]
    return _parse_scalar(raw)


def parse_document(text: str) -> dict[str, dict[str, object]]:
    """Parse the raw document into {section: {key: typed value}}, enforcing the
    schema strictly."""
    data: dict[str, dict[str, object]] = {}
    first_line: dict[tuple[str, str], int] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            data.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: assignment before any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if key in data[section]:
            raise ConfigError(
                f"line {lineno}: duplicate key {section}.{key} (first set on line {first_line[section, key]})"
            )
        data[section][key] = _parse_value(raw)
        first_line[section, key] = lineno
    return data


class _Section:
    """Typed accessors over one parsed section, with error messages that name
    the section.key path. Every key asked for is recorded, so ``check_read``
    can reject the keys that the section's choices never read."""

    def __init__(self, name: str, values: dict[str, object]):
        self.name = name
        self.values = dict(values)
        self.read: set[str] = set()

    def _get(self, key: str, default, accept, what: str):
        self.read.add(key)
        if key not in self.values:
            return default
        val = self.values[key]
        if not accept(val):
            raise ConfigError(f"{self.name}.{key} must be {what}, got {val!r}")
        return val

    def get_int(self, key: str, default=None) -> int:
        return self._get(key, default, _is_int, "an integer")

    def get_float(self, key: str, default=None) -> float:
        val = self._get(key, default, _is_number, "a finite number")
        return val if val is None else float(val)

    def get_bool(self, key: str, default=None) -> bool:
        return self._get(key, default, lambda v: isinstance(v, bool), "true or false")

    def get_str(self, key: str, default=None) -> str:
        return self._get(key, default, lambda v: isinstance(v, str), "a string")

    def get_list(self, key: str, default=None) -> list:
        val = self._get(key, default, lambda v: True, "")
        return val if isinstance(val, list) or val is default else [val]

    def get_ints(self, key: str, default=None) -> tuple[int, ...]:
        return self._get_items(key, default, _is_int, int, "integers")

    def get_numbers(self, key: str, default=None) -> tuple[float, ...]:
        return self._get_items(key, default, _is_number, float, "finite numbers")

    def _get_items(self, key: str, default, accept, convert, what: str) -> tuple:
        items = self.get_list(key)
        if items is None:
            return default
        if not all(accept(v) for v in items):
            raise ConfigError(f"{self.name}.{key} must list {what}, got {items!r}")
        return tuple(convert(v) for v in items)

    def check_read(self, choice: str) -> None:
        """Reject a key that no accessor asked for under ``choice``."""
        for key in self.values:
            if key not in self.read:
                raise ConfigError(f"{self.name}.{key} is not read with {choice}")


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


@contextlib.contextmanager
def _keyed(key: str):
    """Re-raise a dataclass's ValueError as a ConfigError naming ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Validate a config document and build the scenario it describes.

    The dataclasses check the values; errors name the section.key at
    fault, either in the dataclass's message or by ``_keyed``."""
    data = parse_document(text)
    population = _Section("population", data.get("population", {}))
    estimators_sec = _Section("estimators", data.get("estimators", {}))
    run_sec = _Section("run", data.get("run", {}))

    n_units = population.get_int("n_units", 0)
    if n_units < 1:
        raise ConfigError(f"population.n_units must be a positive integer, got {n_units}")
    n_rounds = population.get_int("n_rounds", 4)
    if n_rounds < 1:
        raise ConfigError(f"population.n_rounds must be a positive integer, got {n_rounds}")

    weights = _parse_weights(_Section("weights", data.get("weights", {})))
    dynamics = _parse_dynamics(_Section("dynamics", data.get("dynamics", {})))
    design = _parse_design(_Section("design", data.get("design", {})), n_units, n_rounds)

    use = estimators_sec.get_list("use", list(ScenarioConfig.estimators))
    overrides = {}
    for key, name in _FEATURE_KEYS.items():
        items = estimators_sec.get_list(key)
        if items is not None:
            with _keyed(f"estimators.{key}"):
                overrides[name] = FeatureSpec.parse([str(s).strip() for s in items])

    seed = run_sec.get_int("seed", 0)
    if seed < 0:
        raise ConfigError("run.seed must be non-negative")

    try:
        return ScenarioConfig(
            n_units=n_units,
            n_rounds=n_rounds,
            weights=weights,
            dynamics=dynamics,
            design=design,
            estimators=tuple(str(e).strip() for e in use),
            feature_overrides=overrides,
            baseline_mean=population.get_float("baseline_mean", 0.0),
            baseline_sd=population.get_float("baseline_sd", 1.0),
            base_seed=seed,
            n_reps=run_sec.get_int("reps", 1),
            fixed_network=run_sec.get_bool("fixed_network", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# The accessor that reads a weight key, by the type of the key's default;
# None marks a required string.
_READERS = {float: _Section.get_float, int: _Section.get_int, tuple: _Section.get_ints, type(None): _Section.get_str}


def _parse_weights(sec: _Section) -> WeightConfig:
    # The first kind of WEIGHT_KINDS, the dense Gaussian one, is the default.
    kind = sec.get_str("kind", next(iter(WEIGHT_KINDS)))
    if kind not in WEIGHT_KINDS:
        raise ConfigError(f"weights.kind must be one of {', '.join(WEIGHT_KINDS)}; got {kind!r}")
    params = {}
    for key, default in WEIGHT_KINDS[kind].keys.items():
        value = _READERS[type(default)](sec, key)
        if value is not None:
            params[key] = value
    sec.check_read(f"kind = {kind}")
    try:
        return WeightConfig(kind, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_dynamics(sec: _Section) -> DynamicsSpec:
    unit_kind = sec.get_str("unit", "linear")
    common = dict(
        w_coef=sec.get_float("w_coef", 0.0),
        y_coef=sec.get_float("y_coef", 1.0),
        x_coef=sec.get_numbers("x_coef", ()),
        intercept=sec.get_float("intercept", 0.0),
        trend=sec.get_float("trend", 0.0),
    )
    if unit_kind == "linear":
        unit = LinearUnit(**common)
    elif unit_kind == "saturating":
        scale = sec.get_float("scale", 1.0)
        with _keyed("dynamics.scale"):
            unit = SaturatingUnit(**common, scale=scale)
    else:
        raise ConfigError(f"dynamics.unit must be linear or saturating, got {unit_kind!r}")

    peer_kind = sec.get_str("peer", "zero")
    if peer_kind == "linear":
        peer = LinearPeer(w_coef=sec.get_float("peer_w", 0.0), y_coef=sec.get_float("peer_y", 0.0))
    elif peer_kind == "zero":
        peer = ZeroPeer()
    else:
        raise ConfigError(f"dynamics.peer must be linear or zero, got {peer_kind!r}")

    expo_kind = sec.get_str("exposure", "weighted_sum")
    if expo_kind == "weighted_sum":
        exposure = WeightedSumExposure()
    elif expo_kind == "threshold":
        tau, strength = sec.get_float("tau", 0.5), sec.get_float("strength", 1.0)
        with _keyed("dynamics.tau"):
            exposure = MeanFieldThreshold(tau=tau, strength=strength)
    else:
        raise ConfigError(f"dynamics.exposure must be weighted_sum or threshold, got {expo_kind!r}")

    noise_sd = sec.get_float("noise_sd", 0.0)
    sec.check_read(f"unit = {unit_kind}, peer = {peer_kind}, exposure = {expo_kind}")
    with _keyed("dynamics.noise_sd"):
        return DynamicsSpec(unit=unit, peer=peer, exposure=exposure, noise_sd=noise_sd)


def _parse_design(sec: _Section, n_units: int, n_rounds: int) -> DesignSpec:
    kind = sec.get_str("kind", "bernoulli")
    if kind == "bernoulli":
        probs = sec.get_numbers("probs")
        if probs is None and n_rounds == len(RAMP_PROBS):
            probs = RAMP_PROBS  # the canonical ramp is the default
        key, params = "probs", {"probs": probs}
    elif kind == "constant":
        key, params = "value", {"value": sec.get_int("value", 0)}
    else:
        raise ConfigError(f"design.kind must be bernoulli or constant, got {kind!r}")
    sec.check_read(f"kind = {kind}")
    with _keyed(f"design.{key}"):
        return DesignSpec(kind=kind, n_units=n_units, n_rounds=n_rounds, **params)


def config_hash(text: str) -> str:
    """Hash of the raw config document, recorded in run manifests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
