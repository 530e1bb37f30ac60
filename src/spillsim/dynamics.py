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
    w_t = np.asarray(w_t, dtype=np.float64)
    y_prev = np.asarray(y_prev, dtype=np.float64)
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
    w_t = np.asarray(w_t, dtype=np.float64)
    y_prev = np.asarray(y_prev, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    e_t = np.asarray(e_t, dtype=np.float64)
    noise_t = np.asarray(noise_t, dtype=np.float64)
    if not (w_t.shape == y_prev.shape == e_t.shape):
        raise ValueError("step inputs must share a shape")
    _check_covariates([spec], x_t.shape[-1])
    # Overflow is reported below with its location, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = spec.noise_sd * noise_t if spec.noise_sd > 0.0 else None
        y = _respond(spec.unit, w_t, y_prev, x_t, e_t, scaled, t)
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


class Suite(list):
    """The outcome panel of each requested column of a scenario suite, in
    request order, or None for a column whose rounds were not kept.
    ``index[k]`` is the distinct column that column k evolves as, and
    ``means[k]`` its mean outcome in each round 0..T, the bits of
    ``column_mean`` of its panel. A suite evolved in ``blocks`` blocks of
    units lists the requested columns of each block in turn, and the index
    of each block numbers its own distinct columns."""

    def __init__(self, panels: Sequence[OutcomePanel | None], index: list[int], means: list[tuple[float, ...]],
                 blocks: int = 1):
        super().__init__(panels)
        self.index, self.means, self.blocks = index, means, blocks

    def block(self, b: int) -> Suite:
        """The suite of block ``b`` alone."""
        part = slice(b * len(self) // self.blocks, (b + 1) * len(self) // self.blocks)
        return Suite(self[part], self.index[part], self.means[part])


def _apply_blocks(sets: Sequence[WeightSet], signals: np.ndarray, t: int) -> np.ndarray:
    """The exposures of the (columns, blocks x n) peer ``signals``, block b
    through set b: one call for blocks that share a column-independent set,
    else one per block, on the columns its seed alone sends."""
    n, first = sets[0].n_units, sets[0]
    if len(sets) == 1 or (first.column_independent and all(ws is first for ws in sets)):
        return first.apply(signals.reshape(-1, n).T, t).T.reshape(signals.shape)
    e = np.empty_like(signals)
    for b, ws in enumerate(sets):
        e[:, b * n : (b + 1) * n] = ws.apply(signals[:, b * n : (b + 1) * n].T, t).T
    return e


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
    """Evolve all scenarios in lockstep, sharing weights and noise draws.

    ``spec`` is one DynamicsSpec for every scenario or a sequence with one per
    scenario. Columns that evolve alike (see ``_distinct_columns``) are evolved
    once and get the same panel and exposure matrix.

    With a sequence of seeds and one weight set each, the units are as many
    equal blocks. Block b draws seed b's noise into its slice, applies set b
    and takes its own threshold levels and round means, so it has the bits
    of its units evolved alone. Columns share a row if alike in every block.

    ``keep`` lists the requested columns whose panels the caller needs (by
    default all). Their rounds go to one round-major (n_rounds + 1, kept,
    n_units) buffer, whose read-only transposed views are the panels, one per
    block, with contiguous round columns; a kept column evolves in its rows
    there. Every other column evolves in one state row of units, which each
    round overwrites: it holds no history.

    A round walks its columns in order. Each apply group of weighted-sum
    columns gets one ``_apply_blocks`` call when its first column is
    reached: one group per column for a ``column_independent`` weight kind,
    so no stack of signals or exposures exists, and one group for the whole
    round for any other kind, whose bits depend on the stack. A group's peer
    signals go into one (columns, n_units) array and are freed once the
    exposures are back, which are freed in turn before the next group's
    call. The noise is drawn as the first noisy column responds and scaled
    in place when every noisy column shares one scale, else once per run of
    consecutive columns with the same unit response. Each column responds in
    its own row (a state row is also its lagged row): the row takes y_coef
    times the lagged outcomes, then the treatment term of its panel's round
    column, the intercept, trend, covariates, exposure and noise are added in
    place, except a zero-coefficient term or threshold level; a constant
    treatment panel adds w_coef times its value as one scalar, to the peer
    signal too. Then each block of each row is reduced to its round mean by
    one pairwise reduction, and a round with a non-finite mean is scanned for
    the first non-finite outcome, block by block and unit-major. No round
    buffer outlives its round. Exposures are kept, in a buffer of the full
    layout and as views of it, only when keep_exposures is set; otherwise
    the list is empty. They need no scan: a non-finite exposure makes its
    outcome non-finite."""
    if not scenarios:
        raise ValueError("need at least one treatment scenario")
    n_all, t_max = scenarios[0].n_units, scenarios[0].n_rounds
    for w in scenarios:
        if (w.n_units, w.n_rounds) != (n_all, t_max):
            raise ValueError("all scenarios must share (n_units, n_rounds)")
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
    if len(specs) != len(scenarios):
        raise ValueError(f"{len(specs)} dynamics specs for {len(scenarios)} scenarios")
    _check_covariates(specs, x.dim)

    # Each block's distinct columns; a row serves the columns alike in all.
    per_block = _distinct_columns(specs, scenarios, blocks)
    rows_of_key: dict = {}
    column = [rows_of_key.setdefault(key, len(rows_of_key)) for key in zip(*(index for index, _, _ in per_block))]
    lead = [column.index(d) for d in range(len(rows_of_key))]
    # The row whose block b serves requested column k: the row of the first
    # column alike in block b, so columns alike there share one panel.
    block_rows = [[column[first[index[k]]] for k in range(len(specs))] for index, first, _ in per_block]
    levels = np.stack([lv[:, [index[k] for k in lead]] for index, _, lv in per_block], axis=1)[..., None]
    scenarios, specs = [scenarios[k] for k in lead], [specs[k] for k in lead]
    s = len(lead)
    kept = list(range(s)) if keep is None else sorted({rows[k] for rows in block_rows for k in keep})
    weighted = [d for d, sp in enumerate(specs) if not isinstance(sp.exposure, MeanFieldThreshold)]
    groups = [[d] for d in weighted] if sets[0].column_independent else [weighted] if weighted else []
    group_at = {group[0]: group for group in groups}
    e_row = {d: j for group in groups for j, d in enumerate(group)}  # its row in its group's exposures
    response_runs = _runs(specs, lambda sp: (sp.unit, sp.noise_sd))
    scales = {sp.noise_sd for sp in specs if sp.noise_sd > 0.0}
    one_scale = scales.pop() if len(scales) == 1 else None  # scales the noise in place

    outcomes = np.empty((t_max + 1, len(kept), n_all))
    outcomes[0] = y0
    slot = {d: j for j, d in enumerate(kept)}
    others = [d for d in range(s) if d not in slot]
    state = np.tile(y0, (len(others), 1))
    state_rows = dict(zip(others, state))

    def rows_of(t: int) -> list[np.ndarray]:
        """Each distinct column's contiguous row of round t."""
        return [outcomes[t, slot[d]] if d in slot else state_rows[d] for d in range(s)]

    def take_means(t: int) -> None:
        # The bits of each block's mean(), without its call overhead.
        means[t, kept] = np.add.reduce(outcomes[t].reshape(len(kept), blocks, n), axis=2) / n
        means[t, others] = np.add.reduce(state.reshape(len(others), blocks, n), axis=2) / n

    exposures = np.empty((t_max, s, n_all)) if keep_exposures else None
    means = np.empty((t_max + 1, s, blocks))
    take_means(0)
    rows = rows_of(0)
    for t in range(1, t_max + 1):
        y_prev, rows = rows, rows_of(t)
        x_t = x.column(t)
        noise = e_t = e = None
        # A non-finite outcome is named by the scan below.
        with np.errstate(over="ignore", invalid="ignore"):
            for sp, cols in response_runs:
                scaled = None
                for d in range(cols.start, cols.stop):
                    if d in group_at:
                        group, e_t, e = group_at[d], None, None
                        signals = np.empty((len(group), n_all))
                        for j, c in enumerate(group):
                            specs[c].peer.value(scenarios[c].column(t), y_prev[c], out=signals[j])
                        e_t = _apply_blocks(sets, signals, t)
                        del signals
                    if scaled is None and sp.noise_sd > 0.0:
                        if noise is None:
                            noise = np.empty(n_all)
                            for b, sd in enumerate(seeds):
                                substream(sd, "noise", t).standard_normal(out=noise[b * n : (b + 1) * n])
                            if one_scale:
                                noise *= one_scale
                        scaled = noise if one_scale else sp.noise_sd * noise
                    e = e_t[e_row[d]] if d in e_row else levels[t - 1, :, d]
                    # A state row is its own lagged row, read only before it is written.
                    _respond(sp.unit, scenarios[d].column(t), y_prev[d], x_t, e, scaled, t, out=rows[d])
                    if keep_exposures:
                        exposures[t - 1, d].reshape(blocks, n)[:] = np.reshape(e, (blocks, -1))
            del e_t, e, noise, scaled  # before the next round allocates its own
            take_means(t)
        # A non-finite outcome makes its block's mean non-finite, so only
        # such a round is scanned; a finite round may still overflow a mean.
        if not np.isfinite(means[t]).all():
            bad = ~np.isfinite(np.array(rows).reshape(s, blocks, n).transpose(1, 2, 0))
            if bad.any():
                b, unit, d = np.argwhere(bad)[0]
                raise NonFiniteOutcome(int(unit), t, lead[d], int(b) if blocks > 1 else None)

    def block_views(cls, buffer: np.ndarray, rows: Collection[int]) -> list:
        """Each block's view of each requested column in a (rounds, rows,
        n_all) buffer, None where its row is not one of ``rows``."""
        views, at = cls.views(buffer.reshape(len(buffer), -1, n).transpose(1, 2, 0)), {d: j for j, d in enumerate(rows)}
        return [views[at[d] * blocks + b] if d in at else None for b, row in enumerate(block_rows) for d in row]

    means = [[tuple(block) for block in row] for row in means.transpose(1, 2, 0).tolist()]
    suite = Suite(block_views(OutcomePanel, outcomes, kept), [c for index, _, _ in per_block for c in index],
                  [means[d][b] for b, row in enumerate(block_rows) for d in row], blocks)
    return suite, block_views(ExposureMatrix, exposures, range(s)) if keep_exposures else []


def _distinct_columns(specs: Sequence[DynamicsSpec], scenarios: Sequence[TreatmentPanel], blocks: int = 1) -> list:
    """For each of ``blocks`` equal blocks of units: per requested column,
    the distinct column that evolves alike in the block; per distinct column
    (in order of first appearance), its first requested column; and the
    distinct columns' threshold levels, (n_rounds, d), from the treated
    fractions of the block's units of each panel.

    Columns share the weights, baseline and noise, so a column is fixed by
    its treatment panel, unit response, noise scale and exposure: the
    weighted-sum spec, or the threshold level of each round, which the
    treatment panel alone decides. Spec parts compare with ``==`` as in
    ``_runs``: parameters 0.0 and -0.0 share a column, evolved with the
    first one's spec, which changes no bit unless another term of the unit
    response is -0.0 (an intercept of -0.0). The spec parts are keyed once
    for all blocks; only the levels differ between blocks."""
    thresholds = [k for k, sp in enumerate(specs) if isinstance(sp.exposure, MeanFieldThreshold)]
    n, t_max = scenarios[0].n_units // blocks, scenarios[0].n_rounds
    levels = np.zeros((blocks, t_max, len(scenarios)))
    if thresholds:
        # Treated fractions once per treatment panel and block, (blocks,
        # n_rounds). Entries are 0 or 1, so each sum is exact in any order. A
        # panel whose units share each round's value (stride 0, as the
        # constant panels are) has that value, 0.0 or 1.0, as the exact mean.
        panels = {id(scenarios[k]): scenarios[k].values for k in thresholds}
        fractions = {key: np.broadcast_to(v[0], (blocks, t_max)) if v.strides[0] == 0
                     else v.reshape(blocks, n, t_max).mean(axis=1) for key, v in panels.items()}
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
    per_block = []
    for lv, column_bytes in zip(levels, level_bytes):
        distinct: dict = {}  # key -> (its distinct column, its first requested column)
        index = [distinct.setdefault(key, (len(distinct), k))[0] for k, key in enumerate(zip(part, column_bytes))]
        lead = [k for _, k in distinct.values()]
        per_block.append((index, lead, lv[:, lead]))
    return per_block


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
        if spec.noise_sd > 0.0:
            noise = substream(seed, "noise", t).standard_normal(n)
        else:
            noise = np.zeros(n)
        again = step(spec, w.column(t), y.column(t - 1), x.column(t), e.column(t), noise, t)
        worst = max(worst, float(np.max(np.abs(again - y.column(t)))))
    return worst
