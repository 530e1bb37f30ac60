"""Scenario config files.

Line-oriented text with bracketed sections and ``key = value`` entries. The
grammar, in full:

* blank lines and lines starting with ``#`` are ignored;
* ``[section]`` opens one of: population, weights, dynamics, design,
  estimators, run;
* ``key = value`` assigns within the current section;
* values are typed: integers, floats, booleans (true/false), bare strings, or
  comma-separated lists of any of these.

Unknown sections are rejected, never ignored, and so is any key that its
section's parser does not read under the chosen kinds: a misspelt key, ``mu``
under ``kind = clustered``, ``tau`` under ``exposure = weighted_sum``. Errors
name the offending ``section.key``, and the line that set it where one line is
at fault. See the README for the key reference and defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import math

from .design import DesignSpec, RAMP_PROBS
from .dynamics import (
    DynamicsSpec,
    LinearPeer,
    LinearUnit,
    MeanFieldThreshold,
    WeightedSumExposure,
    ZeroPeer,
)
from .estimators import FeatureSpec
from .harness import ESTIMATORS, ScenarioConfig
from .weights import WEIGHT_KINDS, KeyedValueError, WeightConfig


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


SECTIONS = ("population", "weights", "dynamics", "design", "estimators", "run")


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


def parse_document(text: str) -> dict[str, dict[str, tuple[object, int]]]:
    """Parse the raw document into {section: {key: (typed value, line)}} for
    every section. Which keys a section may set is left to its parser (see
    ``_Section``)."""
    data: dict[str, dict[str, tuple[object, int]]] = {name: {} for name in SECTIONS}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in data:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: assignment before any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in data[section]:
            raise ConfigError(
                f"line {lineno}: duplicate key {section}.{key} (first set on line {data[section][key][1]})"
            )
        data[section][key] = (_parse_value(raw), lineno)
    return data


class _Section:
    """Typed accessors over one parsed section, with error messages that name
    the section.key path and its line. Every key asked for is recorded, so
    ``check_read``, the one check of which keys a file may set, can reject
    the keys that the section's choices never read."""

    def __init__(self, name: str, entries: dict[str, tuple[object, int]]):
        self.name = name
        self.entries = entries
        self.read: set[str] = set()

    def where(self, key: str) -> str:
        """``section.key``, after the line that set it; a default has none."""
        path = f"{self.name}.{key}"
        return f"line {self.entries[key][1]}: {path}" if key in self.entries else path

    def _get(self, key: str, default, accept, what: str):
        self.read.add(key)
        if key not in self.entries:
            return default
        val = self.entries[key][0]
        if not accept(val):
            raise ConfigError(f"{self.where(key)} must be {what}, got {val!r}")
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
            raise ConfigError(f"{self.where(key)} must list {what}, got {items!r}")
        return tuple(convert(v) for v in items)

    def check_read(self, choice: str = "") -> None:
        """Reject a key that no accessor asked for; ``choice`` names the chosen kinds."""
        for key in self.entries:
            if key not in self.read:
                raise ConfigError(f"{self.where(key)} is not read" + (f" with {choice}" if choice else ""))


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


@contextlib.contextmanager
def _keyed(sec: _Section, key: str):
    """Re-raise a dataclass's ValueError as a ConfigError naming ``key`` and its line."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{sec.where(key)}: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Validate a config document and build the scenario it describes.

    The dataclasses check the values; errors name the section.key at
    fault, either in the dataclass's message or by ``_keyed``, and the line
    that set it where a ``KeyedValueError`` passes the key back."""
    sections = {name: _Section(name, entries) for name, entries in parse_document(text).items()}
    population, estimators_sec, run_sec = sections["population"], sections["estimators"], sections["run"]

    n_units = population.get_int("n_units", 0)
    n_rounds = population.get_int("n_rounds", 4)
    baseline_mean = population.get_float("baseline_mean", 0.0)
    baseline_sd = population.get_float("baseline_sd", 1.0)
    # Before the checks below, so a misspelt key is named, not its default.
    population.check_read()
    if n_units < 1:
        raise ConfigError(f"{population.where('n_units')} must be a positive integer, got {n_units}")
    if n_rounds < 1:
        raise ConfigError(f"{population.where('n_rounds')} must be a positive integer, got {n_rounds}")

    weights = _parse_weights(sections["weights"])
    dynamics = _parse_dynamics(sections["dynamics"])
    design = _parse_design(sections["design"], n_units, n_rounds)

    use = estimators_sec.get_list("use", list(ScenarioConfig.estimators))
    overrides = {}
    # ESE estimators take a feature override, ``features_<name>``.
    for name, est in ESTIMATORS.items():
        items = None if est.features is None else estimators_sec.get_list(f"features_{name}")
        if items is not None:
            with _keyed(estimators_sec, f"features_{name}"):
                overrides[name] = FeatureSpec.parse([str(s).strip() for s in items])
    estimators_sec.check_read()

    seed = run_sec.get_int("seed", 0)
    reps = run_sec.get_int("reps", 1)
    fixed_network = run_sec.get_bool("fixed_network", False)
    run_sec.check_read()
    if seed < 0:
        raise ConfigError(f"{run_sec.where('seed')} must be non-negative")

    try:
        return ScenarioConfig(
            n_units=n_units,
            n_rounds=n_rounds,
            weights=weights,
            dynamics=dynamics,
            design=design,
            estimators=tuple(str(e).strip() for e in use),
            feature_overrides=overrides,
            baseline_mean=baseline_mean,
            baseline_sd=baseline_sd,
            base_seed=seed,
            n_reps=reps,
            fixed_network=fixed_network,
        )
    except KeyedValueError as exc:
        section, _, key = exc.key.partition(".")
        raise ConfigError(f"{sections[section].where(key)}: {exc.message}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# The accessor that reads a weight key, by the type of the key's default.
_READERS = {float: _Section.get_float, int: _Section.get_int, tuple: _Section.get_ints}


def _parse_weights(sec: _Section) -> WeightConfig:
    # The first kind of WEIGHT_KINDS, the dense Gaussian one, is the default.
    kind = sec.get_str("kind", next(iter(WEIGHT_KINDS)))
    if kind not in WEIGHT_KINDS:
        raise ConfigError(f"{sec.where('kind')} must be one of {', '.join(WEIGHT_KINDS)}; got {kind!r}")
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
    # ``unit`` has one value; the key stays so that a file may name it.
    unit_kind = sec.get_str("unit", "linear")
    if unit_kind != "linear":
        raise ConfigError(f"{sec.where('unit')} must be linear, got {unit_kind!r}")
    unit = LinearUnit(
        w_coef=sec.get_float("w_coef", 0.0),
        y_coef=sec.get_float("y_coef", 1.0),
        x_coef=sec.get_numbers("x_coef", ()),
        intercept=sec.get_float("intercept", 0.0),
        trend=sec.get_float("trend", 0.0),
    )

    peer_kind = sec.get_str("peer", "zero")
    if peer_kind == "linear":
        peer = LinearPeer(w_coef=sec.get_float("peer_w", 0.0), y_coef=sec.get_float("peer_y", 0.0))
    elif peer_kind == "zero":
        peer = ZeroPeer()
    else:
        raise ConfigError(f"{sec.where('peer')} must be linear or zero, got {peer_kind!r}")

    expo_kind = sec.get_str("exposure", "weighted_sum")
    if expo_kind == "weighted_sum":
        exposure = WeightedSumExposure()
    elif expo_kind == "threshold":
        tau, strength = sec.get_float("tau", 0.5), sec.get_float("strength", 1.0)
        with _keyed(sec, "tau"):
            exposure = MeanFieldThreshold(tau=tau, strength=strength)
    else:
        raise ConfigError(f"{sec.where('exposure')} must be weighted_sum or threshold, got {expo_kind!r}")

    noise_sd = sec.get_float("noise_sd", 0.0)
    sec.check_read(f"unit = {unit_kind}, peer = {peer_kind}, exposure = {expo_kind}")
    with _keyed(sec, "noise_sd"):
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
        raise ConfigError(f"{sec.where('kind')} must be bernoulli or constant, got {kind!r}")
    sec.check_read(f"kind = {kind}")
    with _keyed(sec, key):
        return DesignSpec(kind=kind, n_units=n_units, n_rounds=n_rounds, **params)


def config_hash(text: str) -> str:
    """Hash of the raw config document, recorded in run manifests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
