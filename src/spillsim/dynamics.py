"""Ground-truth outcome evolution engine.

Each unit's outcome in round t is produced by

    y[i, t] = h(w[i, t], y[i, t-1], x[i, t], t) + e[i, t] + noise_sd * z[i, t]

where ``h`` is the unit response, ``e`` is the interference exposure received
from peers, and ``z`` is a standard normal draw indexed by (seed, unit, round)
only. Under the weighted-sum mechanism the exposure is

    e[i, t] = sum_j weight(i, j, t) * g(w[j, t], y[j, t-1])

with ``g`` the peer signal; under the mean-field threshold mechanism it is a
population-level jump, strength * 1{mean(w[:, t]) > tau}, identical across
units.

Counterfactual scenario suites share one weight realization and one noise
stream across every scenario (common random numbers), so differences between
scenario panels isolate the effect of the assignments themselves. Exposures
always read the previous round's outcomes; there is no same-round feedback.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .panel import CovariatePanel, OutcomePanel, TreatmentPanel, column_mean
from .rng import substream
from .weights import WeightSet


# --- unit response catalog ---------------------------------------------------


@dataclass(frozen=True)
class LinearUnit:
    """h(w, y, x, t) = w_coef*w + y_coef*y + x_coef.x + intercept + trend*t."""

    w_coef: float = 0.0
    y_coef: float = 0.0
    x_coef: tuple[float, ...] = ()
    intercept: float = 0.0
    trend: float = 0.0

    def __post_init__(self):
        vals = [self.w_coef, self.y_coef, self.intercept, self.trend, *self.x_coef]
        if not np.all(np.isfinite(vals)):
            raise ValueError("unit response parameters must be finite")
        object.__setattr__(self, "x_coef", tuple(float(c) for c in self.x_coef))

    def _linear(self, w, y, x, t):
        # Accumulates in place into the fresh first product, in the order the
        # formula reads, so no step of the sum allocates another array.
        out = self.w_coef * w
        out += self.y_coef * y
        out += self.intercept
        out += self.trend * t
        for k, c in enumerate(self.x_coef):
            if c != 0.0:
                out += c * x[..., k]
        return out

    def value(self, w, y, x, t):
        return self._linear(w, y, x, t)


@dataclass(frozen=True)
class SaturatingUnit(LinearUnit):
    """Linear response squashed through scale*tanh(./scale); bounded and
    smooth, so higher-order expansion arguments apply to it."""

    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("saturation scale must be positive")

    def value(self, w, y, x, t):
        return self.scale * np.tanh(self._linear(w, y, x, t) / self.scale)


@dataclass(frozen=True)
class LinearPeer:
    """Peer signal g(w, y) = w_coef*w + y_coef*y."""

    w_coef: float = 0.0
    y_coef: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.w_coef, self.y_coef])):
            raise ValueError("peer signal parameters must be finite")

    def value(self, w, y):
        return self.w_coef * w + self.y_coef * y


@dataclass(frozen=True)
class ZeroPeer:
    """No peer signal; exposures vanish under the weighted-sum mechanism."""

    def value(self, w, y):
        return np.zeros_like(np.asarray(y, dtype=np.float64))


@dataclass(frozen=True)
class WeightedSumExposure:
    """Exposure = weighted sum of peer signals through the weight set."""


@dataclass(frozen=True)
class MeanFieldThreshold:
    """Exposure jumps to ``strength`` for everyone once the treated fraction
    exceeds ``tau``; a deliberately assignment-dependent mechanism."""

    tau: float
    strength: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and 0.0 < self.tau < 1.0):
            raise ValueError("threshold tau must lie strictly inside (0, 1)")
        if not np.isfinite(self.strength):
            raise ValueError("threshold strength must be finite")


@dataclass(frozen=True)
class DynamicsSpec:
    unit: LinearUnit | SaturatingUnit
    peer: LinearPeer | ZeroPeer
    exposure: WeightedSumExposure | MeanFieldThreshold
    noise_sd: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise ValueError("noise_sd must be non-negative")

    def spec_hash(self) -> str:
        blob = json.dumps(
            {"unit": [type(self.unit).__name__, asdict(self.unit)],
             "peer": [type(self.peer).__name__, asdict(self.peer)],
             "exposure": [type(self.exposure).__name__, asdict(self.exposure)],
             "noise_sd": self.noise_sd},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExposureMatrix:
    """Realized exposures, shape (n_units, n_rounds) with rounds 1..T."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("exposure matrix must be 2-d")
        if not np.all(np.isfinite(vals)):
            raise ValueError("exposure entries must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_rounds(self) -> int:
        return self.values.shape[1]

    def column(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.n_rounds:
            raise IndexError(f"round {t} outside 1..{self.n_rounds}")
        return self.values[:, t - 1]


class NonFiniteOutcome(FloatingPointError):
    """An outcome overflowed or became undefined. ``scenario`` is the column
    of a scenario stack, or None for a single column."""

    def __init__(self, unit: int, round_: int, scenario: int | None = None):
        self.unit, self.round, self.scenario = unit, round_, scenario
        where = "" if scenario is None else f" in scenario {scenario}"
        super().__init__(f"non-finite outcome for unit {unit} at round {round_}{where}")


def _threshold_level(mech: MeanFieldThreshold, fraction: np.ndarray) -> np.ndarray:
    return mech.strength * (fraction > mech.tau).astype(np.float64)


def compute_exposure(
    weights: WeightSet,
    spec: DynamicsSpec,
    w_t: np.ndarray,
    y_prev: np.ndarray,
    x_t: np.ndarray,
    t: int,
) -> np.ndarray:
    """Exposure column for round t given that round's assignments and the
    previous round's outcomes. Accepts (n,) columns or (n, s) scenario stacks."""
    w_t = np.asarray(w_t, dtype=np.float64)
    y_prev = np.asarray(y_prev, dtype=np.float64)
    if w_t.shape != y_prev.shape:
        raise ValueError("treatment and lagged outcome columns must share a shape")
    if w_t.shape[0] != weights.n_units:
        raise ValueError("columns disagree with the weight set population size")
    mech = spec.exposure
    if isinstance(mech, MeanFieldThreshold):
        return np.broadcast_to(_threshold_level(mech, w_t.mean(axis=0)), w_t.shape).copy()
    gv = spec.peer.value(w_t, y_prev)
    return weights.apply(gv, t)


def _respond(spec: DynamicsSpec, w_t, y_prev, x_t, e_t, noise_t, t: int) -> np.ndarray:
    """Unit response plus exposure plus scaled noise, unchecked."""
    y = spec.unit.value(w_t, y_prev, x_t, t)
    y += e_t
    if spec.noise_sd > 0.0:
        y += spec.noise_sd * noise_t
    return y


def _check_finite(y: np.ndarray, t: int) -> None:
    """Raise NonFiniteOutcome naming the first non-finite entry of an (n,)
    column or an (n, s) stack, unit-major."""
    bad = ~np.isfinite(np.atleast_1d(y))
    if bad.any():
        where = np.argwhere(bad)[0]
        raise NonFiniteOutcome(int(where[0]), t, int(where[1]) if bad.ndim == 2 else None)


def step(
    spec: DynamicsSpec,
    w_t: np.ndarray,
    y_prev: np.ndarray,
    x_t: np.ndarray,
    e_t: np.ndarray,
    noise_t: np.ndarray,
    t: int,
) -> np.ndarray:
    """One evolution round: unit response plus exposure plus scaled noise."""
    w_t = np.asarray(w_t, dtype=np.float64)
    y_prev = np.asarray(y_prev, dtype=np.float64)
    e_t = np.asarray(e_t, dtype=np.float64)
    noise_t = np.asarray(noise_t, dtype=np.float64)
    if not (w_t.shape == y_prev.shape == e_t.shape):
        raise ValueError("step inputs must share a shape")
    # Overflow is reported below with its location, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        y = _respond(spec, w_t, y_prev, np.asarray(x_t, dtype=np.float64), e_t, noise_t, t)
    _check_finite(y, t)
    return y


def _runs(specs: Sequence[DynamicsSpec], key) -> list[tuple[DynamicsSpec, slice]]:
    """Maximal runs of consecutive columns whose specs agree on ``key``, each
    with the spec of its first column."""
    runs, start = [], 0
    for k in range(1, len(specs) + 1):
        if k == len(specs) or key(specs[k]) != key(specs[start]):
            runs.append((specs[start], slice(start, k)))
            start = k
    return runs


def _evolve(
    spec: DynamicsSpec | Sequence[DynamicsSpec],
    weights: WeightSet,
    scenarios: Sequence[TreatmentPanel],
    x: CovariatePanel,
    y0: np.ndarray,
    seed: int,
    keep_exposures: bool,
) -> tuple[list[OutcomePanel], list[ExposureMatrix]]:
    """Evolve all scenarios in lockstep, sharing weights and noise draws.

    ``spec`` is one DynamicsSpec for every scenario or a sequence with one per
    scenario. Per round, each distinct treatment panel's treated fraction is
    computed once, every weighted-sum column goes through one
    ``weights.apply`` call, and consecutive columns with the same unit
    response respond as one block. Outcomes are written to one buffer that is
    scanned for finiteness once; the panels are read-only views of it. The
    exposure matrices are built only when keep_exposures is set; otherwise
    the list is empty."""
    if not scenarios:
        raise ValueError("need at least one treatment scenario")
    n, t_max = scenarios[0].n_units, scenarios[0].n_rounds
    for w in scenarios:
        if (w.n_units, w.n_rounds) != (n, t_max):
            raise ValueError("all scenarios must share (n_units, n_rounds)")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (n,):
        raise ValueError(f"initial outcomes must have shape ({n},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial outcomes must be finite")
    if x.n_units != n or x.n_rounds != t_max:
        raise ValueError("covariate panel does not match the scenarios")
    if weights.n_units != n:
        raise ValueError("columns disagree with the weight set population size")
    s = len(scenarios)
    specs = [spec] * s if isinstance(spec, DynamicsSpec) else list(spec)
    if len(specs) != s:
        raise ValueError(f"{len(specs)} dynamics specs for {s} scenarios")

    # Scenarios repeated by identity share their treated fractions.
    first: dict[int, int] = {}
    distinct = []
    for w in scenarios:
        if id(w) not in first:
            first[id(w)] = len(distinct)
            distinct.append(w)
    source = np.array([first[id(w)] for w in scenarios])
    exposure_runs = _runs(specs, lambda sp: (sp.exposure, sp.peer))
    response_runs = _runs(specs, lambda sp: (sp.unit, sp.noise_sd))
    noisy = any(sp.noise_sd > 0.0 for sp in specs)

    y_cur = np.tile(y0[:, None], (1, s))
    outcomes = np.empty((s, n, t_max + 1))
    exposures = np.empty((s, n, t_max)) if keep_exposures else None
    outcomes[:, :, 0] = y_cur.T
    for t in range(1, t_max + 1):
        w_distinct = np.column_stack([w.column(t) for w in distinct])
        # take() keeps C order, which every array derived from w_cols
        # inherits, so weights.apply sees the layout of a pass without
        # repeated scenarios; the lazy Gaussian engine's bits depend on it.
        w_cols = w_distinct if len(distinct) == s else w_distinct.take(source, axis=1)
        x_t = x.column(t)
        x_t = x_t[:, None, :] if x_t.ndim == 2 else x_t
        if noisy:
            noise = substream(seed, "noise", t).standard_normal(n)[:, None]
        else:
            noise = np.zeros((n, 1))
        # A non-finite outcome is named by the scan after the last round.
        with np.errstate(over="ignore", invalid="ignore"):
            e_t = _exposures(weights, exposure_runs, w_distinct, source, w_cols, y_cur, t)
            blocks = [
                _respond(sp, w_cols[:, cols], y_cur[:, cols], x_t, e_t[:, cols], noise, t)
                for sp, cols in response_runs
            ]
        y_cur = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        outcomes[:, :, t] = y_cur.T
        if keep_exposures:
            exposures[:, :, t - 1] = e_t.T
    if not np.isfinite(outcomes).all():
        t = int(np.argmax(~np.isfinite(outcomes).all(axis=(0, 1))))
        _check_finite(outcomes[:, :, t].T, t)
    panels = OutcomePanel.views(outcomes)
    mats = [ExposureMatrix(exposures[k]) for k in range(s)] if keep_exposures else []
    return panels, mats


def _exposures(weights, runs, w_distinct, source, w_cols, y_prev, t: int) -> np.ndarray:
    """Round-t exposures of every column, shape (n, s)."""
    n, s = w_cols.shape
    level = np.zeros(s)
    fraction = None
    signals, summed = [], []
    for sp, cols in runs:
        mech = sp.exposure
        if isinstance(mech, MeanFieldThreshold):
            if fraction is None:
                fraction = w_distinct.mean(axis=0)[source]
            level[cols] = _threshold_level(mech, fraction[cols])
        else:
            signals.append(sp.peer.value(w_cols[:, cols], y_prev[:, cols]))
            summed.append(cols)
    if not signals:
        return np.broadcast_to(level, (n, s))
    summed_e = weights.apply(signals[0] if len(signals) == 1 else np.hstack(signals), t)
    if summed_e.shape[1] == s:
        return summed_e
    e_t = np.empty((n, s))
    e_t[:] = level
    e_t[:, np.r_[tuple(summed)]] = summed_e
    return e_t


def simulate_panel(
    spec: DynamicsSpec,
    weights: WeightSet,
    w: TreatmentPanel,
    x: CovariatePanel,
    y0: np.ndarray,
    seed: int,
) -> tuple[OutcomePanel, ExposureMatrix]:
    """Simulate one scenario from the baseline column y0 through round T."""
    panels, mats = _evolve(spec, weights, [w], x, y0, seed, keep_exposures=True)
    return panels[0], mats[0]


def counterfactual_suite(
    spec: DynamicsSpec | Sequence[DynamicsSpec],
    weights: WeightSet,
    scenarios: Sequence[TreatmentPanel],
    x: CovariatePanel,
    y0: np.ndarray,
    seed: int,
) -> list[OutcomePanel]:
    """Simulate several scenarios under one weight realization and one noise
    stream, with one dynamics spec for all of them or one per scenario.
    Scenario order does not affect any output panel. The panels are read-only
    views of one buffer."""
    panels, _ = _evolve(spec, weights, scenarios, x, y0, seed, keep_exposures=False)
    return panels


def ground_truth_tte(control: OutcomePanel, treated: OutcomePanel, t: int) -> float:
    """Mean outcome gap at round t between the universal-treatment panel and
    the no-treatment panel."""
    return column_mean(treated, t) - column_mean(control, t)


def write_scenario_suite(
    outdir,
    spec: DynamicsSpec,
    panels: Sequence[OutcomePanel],
    scenario_ids: Sequence[str],
    seed: int,
) -> None:
    """Write one outcome CSV per scenario plus a manifest naming each scenario
    id alongside the seed and the dynamics spec hash."""
    from pathlib import Path

    from .panel import write_outcome_csv

    if len(panels) != len(scenario_ids):
        raise ValueError("one scenario id per panel required")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for panel, sid in zip(panels, scenario_ids):
        fname = f"outcomes_{sid}.csv"
        write_outcome_csv(outdir / fname, panel)
        entries.append({"scenario": sid, "file": fname})
    manifest = {"scenarios": entries, "seed": seed, "spec_hash": spec.spec_hash()}
    (outdir / "suite_manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def evolution_residual(
    spec: DynamicsSpec,
    weights: WeightSet,
    w: TreatmentPanel,
    x: CovariatePanel,
    y: OutcomePanel,
    e: ExposureMatrix,
    seed: int | None = None,
) -> float:
    """Largest absolute gap between each stored outcome and a re-evaluation of
    the evolution rule on its own (w, y_prev, x, e) tuple.

    With noise_sd > 0 a seed is required so the per-(unit, round) draws can be
    regenerated.
    """
    if spec.noise_sd > 0.0 and seed is None:
        raise ValueError("seed required to re-evaluate noisy dynamics")
    worst = 0.0
    n = y.n_units
    for t in range(1, y.n_rounds + 1):
        if spec.noise_sd > 0.0:
            noise = substream(seed, "noise", t).standard_normal(n)
        else:
            noise = np.zeros(n)
        again = step(spec, w.column(t), y.column(t - 1), x.column(t), e.column(t), noise, t)
        worst = max(worst, float(np.max(np.abs(again - y.column(t)))))
    return worst
