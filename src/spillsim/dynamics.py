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
from typing import Collection, Sequence

import numpy as np

from .panel import CovariatePanel, OutcomePanel, RoundPanel, TreatmentPanel, column_mean
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

    def value(self, w, y, x, t, out=None):
        # Accumulates in place into the first product, written to ``out`` when
        # given (which may be ``y`` itself), then in the order the formula
        # reads; y_coef*y + w_coef*w has the bits of w_coef*w + y_coef*y. A
        # zero-coefficient term is skipped, so an outcome of -0.0 (y_coef = 0,
        # y < 0) stays -0.0 where adding +0.0 made it +0.0; no other bit moves.
        out = np.multiply(y, self.y_coef, out=out)
        _add_term(out, self.w_coef, w)
        _add_term(out, self.intercept, 1.0)
        _add_term(out, self.trend, t)
        for k, c in enumerate(self.x_coef):
            _add_term(out, c, x[..., k])
        return out


def _add_term(out: np.ndarray, coef: float, v) -> None:
    """out += coef * v unless coef is zero; an array of stride 0 along the
    units (a constant treatment, the round index) adds its first row alone."""
    if coef != 0.0:
        out += coef * (v[0] if isinstance(v, np.ndarray) and v.strides[0] == 0 else v)


@dataclass(frozen=True)
class LinearPeer:
    """Peer signal g(w, y) = w_coef*w + y_coef*y."""

    w_coef: float = 0.0
    y_coef: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.w_coef, self.y_coef])):
            raise ValueError("peer signal parameters must be finite")

    def value(self, w, y, out=None):
        out = np.multiply(y, self.y_coef, out=out)
        _add_term(out, self.w_coef, w)
        return out


@dataclass(frozen=True)
class ZeroPeer:
    """No peer signal; exposures vanish under the weighted-sum mechanism."""

    def value(self, w, y, out=None):
        if out is None:
            return np.zeros_like(np.asarray(y, dtype=np.float64))
        out.fill(0.0)
        return out


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
    unit: LinearUnit
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


class ExposureMatrix(RoundPanel):
    """Realized exposures, shape (n_units, n_rounds) with rounds 1..T."""

    name = "exposure matrix"


class NonFiniteOutcome(FloatingPointError):
    """An outcome overflowed or became undefined. ``scenario`` is the column
    of a scenario stack, or None for a single column; ``block`` is the block
    of units of a suite evolved in several, or None. ``unit`` counts within
    the block."""

    def __init__(self, unit: int, round_: int, scenario: int | None = None, block: int | None = None):
        self.unit, self.round, self.scenario, self.block = unit, round_, scenario, block
        where = "" if scenario is None else f" in scenario {scenario}"
        where += "" if block is None else f" of block {block}"
        super().__init__(f"non-finite outcome for unit {unit} at round {round_}{where}")


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
    w_t, y_prev = (np.asarray(a, dtype=np.float64) for a in (w_t, y_prev))
    if w_t.shape != y_prev.shape:
        raise ValueError("treatment and lagged outcome columns must share a shape")
    if w_t.shape[0] != weights.n_units:
        raise ValueError("columns disagree with the weight set population size")
    w_cols, y_cols = (a.reshape(len(a), -1) for a in (w_t, y_prev))
    mech = spec.exposure
    if isinstance(mech, MeanFieldThreshold):
        e = np.broadcast_to(mech.strength * (w_cols.mean(axis=0) > mech.tau), w_cols.shape)
    else:
        e = weights.apply(spec.peer.value(w_cols, y_cols), t)
    return np.array(e).reshape(w_t.shape)  # a copy: the threshold level is a broadcast


def _respond(unit: LinearUnit, w_t, y_prev, x_t, e_t, scaled_noise, t: int, out=None) -> np.ndarray:
    """Unit response plus exposure plus the scaled noise (None: no noise),
    unchecked, each term added in place into ``out`` when given (which may
    be ``y_prev`` itself). ``e_t`` is the exposure, or, with one dimension
    more than the outcomes, a (blocks, 1) threshold level per block of units;
    a threshold level of zero is not added."""
    y = unit.value(w_t, y_prev, x_t, t, out=out)
    if np.ndim(e_t) > np.ndim(y):
        blocks = y.reshape(len(e_t), -1)
        np.add(blocks, e_t, out=blocks, where=e_t != 0.0)
    elif np.ndim(e_t) or e_t != 0.0:
        y += e_t
    if scaled_noise is not None:
        y += scaled_noise
    return y


def _check_finite(y: np.ndarray, t: int) -> None:
    """Raise NonFiniteOutcome naming the first non-finite entry of an (n,)
    column or an (n, s) stack, unit-major."""
    bad = ~np.isfinite(np.atleast_1d(y))
    if bad.any():
        where = np.argwhere(bad)[0]
        raise NonFiniteOutcome(int(where[0]), t, None if bad.ndim == 1 else int(where[1]))


def _check_covariates(specs: Sequence[DynamicsSpec], dim: int) -> None:
    if max(len(sp.unit.x_coef) for sp in specs) > dim:
        raise ValueError(f"x_coef lists more coefficients than the {dim} covariates")


def step(
    spec: DynamicsSpec,
    w_t: np.ndarray,
    y_prev: np.ndarray,
    x_t: np.ndarray,
    e_t: np.ndarray,
    noise_t: np.ndarray,
    t: int,
) -> np.ndarray:
    """One evolution round: unit response plus exposure plus scaled noise.
    ``x_t`` holds each unit's covariates along its last axis."""
    w_t, y_prev, x_t, e_t, noise_t = (np.asarray(a, dtype=np.float64) for a in (w_t, y_prev, x_t, e_t, noise_t))
    if not (w_t.shape == y_prev.shape == e_t.shape):
        raise ValueError("step inputs must share a shape")
    _check_covariates([spec], x_t.shape[-1])
    # Overflow is reported below with its location, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = spec.noise_sd * noise_t if spec.noise_sd > 0.0 else None
        y = _respond(spec.unit, w_t, y_prev, x_t, e_t, scaled, t)
    _check_finite(y, t)
    return y


class Suite(list):
    """The outcome panel of each requested column of a scenario suite, in
    request order, or None for a column whose rounds were not kept; columns
    that evolve alike share one panel object. ``means[k]`` is column k's
    mean outcome in each round 0..T, the bits of ``column_mean`` of its
    panel. A suite evolved in ``blocks`` blocks of units lists the requested
    columns of each block in turn, and alike there means alike in the block."""

    def __init__(self, panels: Sequence[OutcomePanel | None], means: list[tuple[float, ...]], blocks: int = 1):
        super().__init__(panels)
        self.means, self.blocks = means, blocks

    def block(self, b: int) -> Suite:
        """The suite of block ``b`` alone."""
        part = slice(b * len(self) // self.blocks, (b + 1) * len(self) // self.blocks)
        return Suite(self[part], self.means[part])


def _exposures(sets: Sequence[WeightSet], rows: Sequence[tuple], t: int) -> np.ndarray:
    """The round t exposures of ``rows``, (spec, treatment panel, lagged
    outcomes) triples, from the stack of their peer signals, freed on return.
    Block b goes through set b: blocks that share a column-independent set
    in one call, else each in its own, on the columns its seed alone sends."""
    n, first = sets[0].n_units, sets[0]
    signals = np.empty((len(rows), n * len(sets)))
    for j, (sp, w, y_prev) in enumerate(rows):
        sp.peer.value(w.column(t), y_prev, out=signals[j])
    if len(sets) == 1 or (first.column_independent and all(ws is first for ws in sets)):
        return first.apply(signals.reshape(-1, n).T, t).T.reshape(signals.shape)
    e = np.empty_like(signals)
    for b, ws in enumerate(sets):
        e[:, b * n : (b + 1) * n] = ws.apply(signals[:, b * n : (b + 1) * n].T, t).T
    return e


def _noise(seeds: Sequence[int], n: int, t: int, scale: float | None) -> np.ndarray:
    """Round t's standard normal draws on blocks of n units, block b from
    seed b's substream, scaled in place unless ``scale`` is None."""
    noise = np.empty(len(seeds) * n)
    for b, sd in enumerate(seeds):
        substream(sd, "noise", t).standard_normal(out=noise[b * n : (b + 1) * n])
    if scale:
        noise *= scale
    return noise


@dataclass(frozen=True)
class _Plan:
    """Which requested columns of a suite evolve, where their rows live and
    what a round allocates, for equal blocks of units: built once per
    ``_evolve`` call (``_Plan.of``), before its rounds run.

    Columns share the weights, baseline and noise, so a column is fixed in a
    block by its treatment panel, unit response, noise scale and exposure:
    the weighted-sum spec, or the threshold level of each round, which the
    treatment panel alone decides (``levels``, (n_rounds, blocks, rows, 1),
    from the treated fractions of each block's units). Columns alike in
    every block evolve once, in one row; rows are numbered in order of first
    appearance, each with the spec and panel (``specs``, ``panels``) of its
    first column (``lead``). ``block_rows[b]`` is the row each column reads
    in block b, that of its first column alike there, so those share one
    panel. Spec parts compare with ``==``: 0.0 and -0.0 share a row, evolved
    with the first one's spec, which moves no bit unless another term of the
    unit response is -0.0 (an intercept of -0.0).

    The ``kept`` rows, those of the columns whose panels the caller needs,
    evolve in one round-major (n_rounds + 1, kept, units) buffer, whose
    read-only transposed views are the panels, one per block, with
    contiguous round columns. Every other row evolves in one state row,
    which each round overwrites: it holds no history. Row d of a round is
    entry ``home[d]`` of its kept rows followed by the state rows. As a
    round ends, each block of each row is reduced to its mean by one
    pairwise reduction, which has the bits of the block's ``mean()``.

    A round allocates rows of units in three steps. A kind that is not
    column-independent (``stacked``), whose bits depend on the stack, first
    gets one ``_exposures`` call on the peer signals of all ``weighted``
    (weighted-sum) rows, 2 x weighted + 1 rows while it runs; the signals
    are freed before the noise exists. Then, if any row is ``noisy``, one
    row of noise is drawn, scaled in place when every noisy row shares
    ``one_scale``, else afresh for each row. Then each row responds; a
    column-independent kind gets one call per weighted-sum row just before
    it responds, once the previous row's exposure is freed, so no stack of
    signals or exposures exists. A row (a state row is also its lagged row)
    takes y_coef times the lagged outcomes, then its other terms are added
    in place, but not a zero-coefficient term or threshold level; a panel
    constant over units adds w_coef times its value as one scalar, to the
    peer signal too. No round buffer outlives its round."""

    lead: list[int]
    block_rows: list[list[int]]
    levels: np.ndarray
    specs: list[DynamicsSpec]
    panels: list[TreatmentPanel]
    kept: list[int]
    home: list[int]
    weighted: list[int]
    stacked: bool
    noisy: bool
    one_scale: float | None

    @classmethod
    def of(cls, specs: Sequence[DynamicsSpec], scenarios: Sequence[TreatmentPanel], blocks: int,
           column_independent: bool, keep: Collection[int] | None) -> _Plan:
        """The plan of one column per spec and scenario; ``keep`` None keeps all."""
        n_all, t_max = scenarios[0].n_units, scenarios[0].n_rounds
        if any((w.n_units, w.n_rounds) != (n_all, t_max) for w in scenarios):
            raise ValueError("all scenarios must share (n_units, n_rounds)")
        if len(specs) != len(scenarios):
            raise ValueError(f"{len(specs)} dynamics specs for {len(scenarios)} scenarios")
        for k in () if keep is None else keep:
            if not 0 <= k < len(scenarios):
                raise ValueError(f"keep entry {k} outside the scenarios 0..{len(scenarios) - 1}")
        thresholds = [k for k, sp in enumerate(specs) if isinstance(sp.exposure, MeanFieldThreshold)]
        levels = np.zeros((blocks, t_max, len(scenarios)))
        if thresholds:
            # Treated fractions once per treatment panel and block, (blocks,
            # n_rounds). Entries are 0 or 1, so each sum is exact in any order. A
            # panel whose units share each round's value (stride 0, as the
            # constant panels are) has that value, 0.0 or 1.0, as the exact mean.
            panels = {id(scenarios[k]): scenarios[k].values for k in thresholds}
            fractions = {key: np.broadcast_to(v[0], (blocks, t_max)) if v.strides[0] == 0
                         else v.reshape(blocks, -1, t_max).mean(axis=1) for key, v in panels.items()}
            mechs = [specs[k].exposure for k in thresholds]
            levels[:, :, thresholds] = np.array([m.strength for m in mechs]) * (
                np.stack([fractions[id(scenarios[k])] for k in thresholds], axis=-1) > np.array([m.tau for m in mechs])
            )
        parts: dict = {}  # a column's key but its levels -> a number, so no block hashes a spec
        part = []
        for sp, w in zip(specs, scenarios):
            exposure = None if isinstance(sp.exposure, MeanFieldThreshold) else (sp.exposure, sp.peer)
            part.append(parts.setdefault((id(w), sp.unit, sp.noise_sd, exposure), len(parts)))
        # The bytes of each block's levels of each column, from one call.
        level_bytes = np.ascontiguousarray(levels.transpose(0, 2, 1)).view(f"V{8 * t_max}")[..., 0].tolist()
        firsts: dict = {}  # a column's keys in every block -> (its row, its first requested column)
        row = [firsts.setdefault(key, (len(firsts), k))[0] for k, key in enumerate(zip(part, *level_bytes))]
        lead = [k for _, k in firsts.values()]
        block_rows = []
        for column_bytes in level_bytes:
            first: dict = {}  # a column's key in the block -> its first requested column
            block_rows.append([row[first.setdefault(key, k)] for k, key in enumerate(zip(part, column_bytes))])
        specs = [specs[k] for k in lead]
        kept = list(range(len(lead))) if keep is None else sorted({rows[k] for rows in block_rows for k in keep})
        weighted = [d for d, sp in enumerate(specs) if not isinstance(sp.exposure, MeanFieldThreshold)]
        scales = {sp.noise_sd for sp in specs if sp.noise_sd > 0.0}
        home = np.argsort(kept + sorted({*range(len(lead))} - {*kept})).tolist()  # each row's place, kept rows first
        return cls(lead, block_rows, levels[:, :, lead].transpose(1, 0, 2)[..., None], specs,
                   [scenarios[k] for k in lead], kept, home, weighted, bool(weighted) and not column_independent,
                   bool(scales), next(iter(scales)) if len(scales) == 1 else None)

    def round_rows(self, kept: np.ndarray, state: np.ndarray) -> list[np.ndarray]:
        """Each row's contiguous round, from that round's ``kept`` rows and the state rows."""
        here = [*kept, *state]
        return [here[i] for i in self.home]

    def views(self, panel_type: type, buffer: np.ndarray, rows: Collection[int]) -> list:
        """Each block's view of each requested column in a (rounds, rows,
        units) buffer, None where its row is not one of ``rows``."""
        blocks, at = len(self.block_rows), {d: j for j, d in enumerate(rows)}
        views = panel_type.views(buffer.reshape(len(buffer), len(at) * blocks, -1).transpose(1, 2, 0))
        return [views[at[d] * blocks + b] if d in at else None for b, row in enumerate(self.block_rows) for d in row]


def _evolve(
    spec: DynamicsSpec | Sequence[DynamicsSpec],
    weights: WeightSet | Sequence[WeightSet],
    scenarios: Sequence[TreatmentPanel],
    x: CovariatePanel,
    y0: np.ndarray,
    seed: int | Sequence[int],
    keep_exposures: bool,
    keep: Collection[int] | None = None,
) -> tuple[Suite, list[ExposureMatrix]]:
    """Evolve all scenarios in lockstep, sharing weights and noise draws, as their
    ``_Plan`` lays out; the other arguments are those of ``counterfactual_suite``.
    Exposures are kept, as views of one buffer, only when keep_exposures is set
    (else the list is empty); a non-finite one makes its outcome non-finite."""
    if not scenarios:
        raise ValueError("need at least one treatment scenario")
    n_all, t_max = scenarios[0].n_units, scenarios[0].n_rounds
    seeds, sets = np.atleast_1d(seed).tolist(), [weights] if isinstance(weights, WeightSet) else list(weights)
    blocks, n = len(seeds), n_all // max(len(seeds), 1)
    if blocks < 1 or len(sets) != blocks or n * blocks != n_all:
        raise ValueError(f"{len(seeds)} seeds and {len(sets)} weight sets for {n_all} units")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (n_all,):
        raise ValueError(f"initial outcomes must have shape ({n_all},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial outcomes must be finite")
    if x.n_units != n_all or x.n_rounds != t_max:
        raise ValueError("covariate panel does not match the scenarios")
    if any(ws.n_units != n for ws in sets):
        raise ValueError("columns disagree with the weight set population size")
    specs = [spec] * len(scenarios) if isinstance(spec, DynamicsSpec) else list(spec)
    _check_covariates(specs, x.dim)
    plan = _Plan.of(specs, scenarios, blocks, sets[0].column_independent, keep)
    specs, panels, levels, weighted, one_scale = plan.specs, plan.panels, plan.levels, plan.weighted, plan.one_scale
    k, s, stacked = len(plan.kept), len(specs), plan.stacked

    outcomes = np.empty((t_max + 1, k, n_all))
    outcomes[0] = y0
    state = np.tile(y0, (s - k, 1))
    exposures = np.empty((t_max, s, n_all)) if keep_exposures else None
    means = np.empty((t_max + 1, s, blocks))  # the rows in their home order
    means[0] = np.add.reduce(y0.reshape(blocks, n), axis=1) / n  # each block's mean(), without its call overhead
    rows = plan.round_rows(outcomes[0], state)
    for t in range(1, t_max + 1):
        y_prev, rows, x_t = rows, plan.round_rows(outcomes[t], state), x.column(t)
        # A non-finite outcome is named by the scan below.
        with np.errstate(over="ignore", invalid="ignore"):
            lagged = [(specs[d], panels[d], y_prev[d]) for d in weighted]
            # Each weighted-sum row's exposures in turn; a column-independent kind calls as each row asks.
            pending = iter(_exposures(sets, lagged, t)) if stacked else (_exposures(sets, [r], t)[0] for r in lagged)
            noise = _noise(seeds, n, t, one_scale) if plan.noisy else None
            for d, sp in enumerate(specs):
                e = scaled = None  # the previous row's, freed before this row allocates its own
                e = levels[t - 1, :, d] if isinstance(sp.exposure, MeanFieldThreshold) else next(pending)
                scaled = None if sp.noise_sd == 0.0 else noise if one_scale else sp.noise_sd * noise
                # A state row is its own lagged row, read only before it is written.
                _respond(sp.unit, panels[d].column(t), y_prev[d], x_t, e, scaled, t, out=rows[d])
                if keep_exposures:
                    exposures[t - 1, d].reshape(blocks, n)[:] = np.reshape(e, (blocks, -1))
            del pending, e, noise, scaled  # before the next round allocates its own
            means[t, :k] = np.add.reduce(outcomes[t].reshape(k, blocks, n), axis=2) / n
            means[t, k:] = np.add.reduce(state.reshape(s - k, blocks, n), axis=2) / n
        # A non-finite outcome makes its block's mean non-finite, so only
        # such a round is scanned; a finite round may still overflow a mean.
        if not np.isfinite(means[t]).all():
            bad = ~np.isfinite(np.array(rows).reshape(s, blocks, n).transpose(1, 2, 0))
            if bad.any():
                b, unit, d = np.argwhere(bad)[0]
                raise NonFiniteOutcome(int(unit), t, plan.lead[d], int(b) if blocks > 1 else None)

    means = [[tuple(block) for block in row] for row in means.transpose(1, 2, 0)[plan.home].tolist()]
    suite = Suite(plan.views(OutcomePanel, outcomes, plan.kept),
                  [means[d][b] for b, row in enumerate(plan.block_rows) for d in row], blocks)
    return suite, plan.views(ExposureMatrix, exposures, range(s)) if keep_exposures else []


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
    weights: WeightSet | Sequence[WeightSet],
    scenarios: Sequence[TreatmentPanel],
    x: CovariatePanel,
    y0: np.ndarray,
    seed: int | Sequence[int],
    keep: Collection[int] | None = None,
) -> Suite:
    """Simulate several scenarios under one weight realization and one noise
    stream, with one dynamics spec for all of them or one per scenario.
    Scenario order does not affect any output panel. The panels are read-only
    views of one buffer, and columns that evolve alike return the same panel:
    the same treatment panel, unit response and noise scale, and the same
    exposure (weighted-sum spec, or threshold level in every round).

    A sequence of seeds, with as many weight sets, evolves that many seeds
    at once, their populations joined seed after seed in the units of the
    scenarios, ``x`` and ``y0``. Each seed's panels and means have the bits
    of its population evolved alone; the suite lists each seed's requested
    columns in turn (``Suite.block``).

    ``keep`` lists the scenarios whose panels the caller needs, by default
    all; the others come back as None and keep only their round means."""
    suite, _ = _evolve(spec, weights, scenarios, x, y0, seed, keep_exposures=False, keep=keep)
    return suite


def ground_truth_tte(control: OutcomePanel, treated: OutcomePanel, t: int) -> float:
    """Mean outcome gap at round t between the universal-treatment panel and
    the no-treatment panel."""
    return column_mean(treated, t) - column_mean(control, t)


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
        noise = _noise([seed], n, t, None) if spec.noise_sd > 0.0 else np.zeros(n)
        again = step(spec, w.column(t), y.column(t - 1), x.column(t), e.column(t), noise, t)
        worst = max(worst, float(np.max(np.abs(again - y.column(t)))))
    return worst
