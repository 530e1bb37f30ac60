"""Treatment effect estimators.

Two classical single-round estimators (difference in means and the inverse
probability weighted contrast) plus the evolution-based family: fit pooled
regression coefficients from one observed panel, then roll mean trajectories
forward under alternative assignment scenarios from the shared pre-treatment
baseline. The gap between the universal-treatment and no-treatment
trajectories at round T is the evolution-based effect estimate.

The pooled fit factors each round once: the round's distinct base columns
and its outcome column go through a tall-skinny QR, and only the stacked R
blocks, at most 4 rows per round, reach ``lstsq``. Fits on the same panels
whose specs use the same base columns can share those factors. The N·T-row
design matrix is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .panel import OutcomePanel, TreatmentPanel, column_mean

# Relative singular value cutoff used for rank decisions in the pooled fit.
RANK_RTOL = 1e-10
# Rows per leaf when factoring a round's block: a 1024 x 4 leaf stays in cache,
# which makes the two-level factorization several times faster than one LAPACK
# call on the whole N-row block.
TSQR_LEAF_ROWS = 1024
# Leaves filled and factored at once: 16 leaves of 4 columns are 512 KiB.
TSQR_CHUNK_LEAVES = 16

# Every feature at round t is a scale times one of three unit-level base
# columns of (w_t, y_{t-1}); the constant column is the scalar 1.0. The scale
# is a function of the round's columns and of the feature's argument: the
# cluster mask or the influencer id. The third entry is the feature's
# population mean under a scenario with treated fraction pi and lagged mean
# m, as ``propagate`` needs it. This table is the one definition of the
# feature kinds, for the fit and for propagation.
_BASES = {
    "one": lambda w, y: 1.0,
    "w": lambda w, y: w,
    "y": lambda w, y: y,
}
_TERMS = {
    "intercept": ("one", lambda w, y, arg: 1.0, lambda pi, m: 1.0),
    "own_treatment": ("w", lambda w, y, arg: 1.0, lambda pi, m: pi),
    "lagged_outcome": ("y", lambda w, y, arg: 1.0, lambda pi, m: m),
    "treated_fraction": ("one", lambda w, y, arg: w.mean(), lambda pi, m: pi),
    "lagged_mean": ("one", lambda w, y, arg: y.mean(), lambda pi, m: m),
    "cluster_fraction": ("one", lambda w, y, mask: w[mask].mean(), lambda pi, m: pi),
    "influencer_treatment": ("one", lambda w, y, j: w[j], lambda pi, m: pi),
}
PARAMETERIZED_FEATURES = ("cluster_fraction", "influencer_treatment")


@dataclass(frozen=True)
class Feature:
    """One regressor computed per (unit, round). Parameterized kinds carry an
    index: the cluster id or the influencer's unit id."""

    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in _TERMS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind in PARAMETERIZED_FEATURES:
            if self.index is None or self.index < 0:
                raise ValueError(f"feature {self.kind} requires a non-negative index")
        elif self.index is not None:
            raise ValueError(f"feature {self.kind} takes no index")

    @property
    def name(self) -> str:
        return self.kind if self.index is None else f"{self.kind}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Feature":
        text = text.strip()
        if ":" in text:
            kind, _, idx = text.partition(":")
            return cls(kind.strip(), int(idx))
        return cls(text)


@dataclass(frozen=True)
class FeatureSpec:
    features: tuple[Feature, ...]

    def __post_init__(self):
        feats = tuple(self.features)
        if not feats:
            raise ValueError("feature list must be non-empty")
        names = [f.name for f in feats]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names")
        object.__setattr__(self, "features", feats)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def n_scenario_level(self) -> int:
        """Features on the constant base: the same for every unit within a
        round, so identified only through across-round variation."""
        return sum(1 for f in self.features if _TERMS[f.kind][0] == "one")

    @classmethod
    def parse(cls, items: Sequence[str]) -> "FeatureSpec":
        return cls(tuple(Feature.parse(s) for s in items))


@dataclass(frozen=True)
class StructureMetadata:
    """Known interference structure the feature set may refer to."""

    membership: np.ndarray | None = None
    n_clusters: int | None = None
    influencers: tuple[int, ...] | None = None

    def require_clusters(self) -> tuple[np.ndarray, int]:
        if self.membership is None or self.n_clusters is None:
            raise ValueError("cluster features require cluster membership metadata")
        return np.asarray(self.membership, dtype=np.int64), int(self.n_clusters)

    def require_influencers(self) -> tuple[int, ...]:
        if not self.influencers:
            raise ValueError("influencer features require influencer id metadata")
        return tuple(self.influencers)


@dataclass(frozen=True)
class ESECoefficients:
    """Fitted (or analytically derived) coefficients, one per feature name."""

    names: tuple[str, ...]
    values: np.ndarray
    rss: float
    n_rows: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.names),):
            raise ValueError("one coefficient per feature name required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", vals)

    def by_name(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}

    def to_dict(self) -> dict:
        return {"coefficients": self.by_name(), "rss": self.rss, "n_rows": self.n_rows}


# --- single-round estimators -------------------------------------------------


def dm_estimate(y_t: np.ndarray, w_t: np.ndarray) -> float | None:
    """Treated-mean minus control-mean at one round.

    Returns None when the round has no treated or no control units (the
    contrast is undefined; callers record it as a missing estimate).
    """
    y_t = np.asarray(y_t, dtype=np.float64)
    w_t = np.asarray(w_t, dtype=np.float64)
    if y_t.shape != w_t.shape or y_t.ndim != 1:
        raise ValueError("outcome and treatment columns must be 1-d and equal length")
    treated = w_t == 1.0
    n_treated = int(treated.sum())
    if n_treated == 0 or n_treated == y_t.size:
        return None
    return float(y_t[treated].mean() - y_t[~treated].mean())


def ht_estimate(y_t: np.ndarray, w_t: np.ndarray, pi_t: float) -> float:
    """Inverse probability weighted contrast at one round:
    mean over units of y*w/pi - y*(1-w)/(1-pi)."""
    y_t = np.asarray(y_t, dtype=np.float64)
    w_t = np.asarray(w_t, dtype=np.float64)
    if y_t.shape != w_t.shape or y_t.ndim != 1:
        raise ValueError("outcome and treatment columns must be 1-d and equal length")
    if not 0.0 < pi_t < 1.0:
        raise ValueError(f"assignment probability must lie strictly inside (0, 1), got {pi_t}")
    return float(np.mean(y_t * w_t / pi_t - y_t * (1.0 - w_t) / (1.0 - pi_t)))


# --- pooled regression fit ----------------------------------------------------


def _feature_terms(
    spec: FeatureSpec,
    w: TreatmentPanel,
    y: OutcomePanel,
    structure: StructureMetadata | None,
) -> list[tuple[str, Callable, object]]:
    """(base, scale, argument) of each feature, after checking that the
    panels agree and that the structure metadata covers every feature."""
    structure = structure or StructureMetadata()
    if w.n_units != y.n_units or w.n_rounds != y.n_rounds:
        raise ValueError("treatment and outcome panels disagree on dimensions")
    terms = []
    for feature in spec.features:
        arg = None
        if feature.kind == "cluster_fraction":
            membership, k = structure.require_clusters()
            if feature.index >= k:
                raise ValueError(f"cluster id {feature.index} outside 0..{k - 1}")
            arg = membership == feature.index
        elif feature.kind == "influencer_treatment":
            if feature.index not in structure.require_influencers():
                raise ValueError(f"unit {feature.index} is not a listed influencer")
            arg = feature.index
        base, scale, _ = _TERMS[feature.kind]
        terms.append((base, scale, arg))
    return terms


def _fill(block: np.ndarray, w_t: np.ndarray, y_prev: np.ndarray, y_t: np.ndarray, bases: tuple[str, ...]) -> None:
    """Write the base columns of ``bases``, then the outcomes, into
    ``block[0..b]``, each shaped like the given rows of the round."""
    for k, base in enumerate(bases):
        block[k] = _BASES[base](w_t, y_prev)
    block[len(bases)] = y_t


def _round_factors(y: OutcomePanel, w: TreatmentPanel, bases: tuple[str, ...]) -> list[np.ndarray]:
    """R factor of each round's N x (b + 1) block [B_t, y_t]: the base
    columns in ``bases`` order, then the round's outcome.

    A round of fewer than two leaves of TSQR_LEAF_ROWS rows is factored
    whole, one round at a time in one buffer: the block and the copy that
    ``qr`` makes of it hold one round, not all (``qr`` factors each matrix
    of a stack alone, so the bits are those of one call on every round).
    A longer one is factored by a two-level TSQR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci.
    Comput. 34(1), 2012): each leaf, then the leaf R factors stacked on the
    leftover rows. Its leaves are filled and factored TSQR_CHUNK_LEAVES at a
    time, in one buffer that every chunk and round reuses, so no N-row block
    exists; the leaves and the final stack are those of one pass over the
    whole block, so every R factor has the bits of that pass."""
    n, t_max, b = w.n_units, w.n_rounds, len(bases)
    rounds = [(w.column(t), y.column(t - 1), y.column(t)) for t in range(1, t_max + 1)]
    leaves = n // TSQR_LEAF_ROWS
    if leaves < 2:
        block = np.empty((b + 1, n))  # the round's block, column by column
        factors = []
        for inputs in rounds:
            _fill(block, *inputs, bases)
            factors.append(np.linalg.qr(block.T, mode="r"))
        return factors
    split = leaves * TSQR_LEAF_ROWS
    chunk = np.empty((min(leaves, TSQR_CHUNK_LEAVES), b + 1, TSQR_LEAF_ROWS))
    stack = np.empty((leaves * (b + 1) + n - split, b + 1))  # leaf R factors, then the leftover rows
    factors = []
    for inputs in rounds:
        for first in range(0, leaves, TSQR_CHUNK_LEAVES):
            part = chunk[: min(TSQR_CHUNK_LEAVES, leaves - first)]
            rows = slice(first * TSQR_LEAF_ROWS, (first + len(part)) * TSQR_LEAF_ROWS)
            _fill(part.transpose(1, 0, 2), *(v[rows].reshape(len(part), -1) for v in inputs), bases)
            r = np.linalg.qr(part.transpose(0, 2, 1), mode="r")
            stack[first * (b + 1) : (first + len(part)) * (b + 1)] = r.reshape(-1, b + 1)
        _fill(stack[leaves * (b + 1) :].T, *(v[split:] for v in inputs), bases)
        factors.append(np.linalg.qr(stack, mode="r"))
    return factors


def fit_ese(
    y: OutcomePanel,
    w: TreatmentPanel,
    spec: FeatureSpec,
    structure: StructureMetadata | None = None,
    round_factors: dict | None = None,
) -> ESECoefficients:
    """Pooled least squares of round-t outcomes on the feature columns over
    all units and rounds, with time-invariant coefficients.

    The N x p design block X_t of round t is B_t S_t: the b distinct base
    columns the spec uses times a b x p selector holding the feature scales.
    Each round's N x (b + 1) block [B_t, y_t] is factored once, Q_t R_t, and
    only R_t reaches the solver: the rows R_t[:, :b] S_t and targets R_t[:, b]
    of all rounds are stacked into M (at most (b + 1) T rows) and z. Since
    X = blockdiag(Q_t) M, the fit has the solution, residual sum of squares,
    singular values and null space of the N T-row problem.

    ``round_factors`` lets several fits on the same two panels share the
    factoring: a dict from base tuple to the rounds' R factors, filled on
    first use. The R factors depend only on the panels and the ordered base
    tuple, so sharing them changes no bit of the fit. Never pass one dict to
    fits on different panels.

    Rank decisions use RANK_RTOL relative to the largest singular value; a
    rank-deficient system resolves to the minimum-norm solution, so fitted
    values are unchanged by duplicated feature columns.
    """
    n_scenario = spec.n_scenario_level()
    if w.n_rounds < n_scenario:
        raise ValueError(
            f"{n_scenario} scenario-level features need at least that many rounds, panel has {w.n_rounds}"
        )
    terms = _feature_terms(spec, w, y, structure)
    bases = tuple(dict.fromkeys(base for base, _, _ in terms))
    select = [bases.index(base) for base, _, _ in terms]
    if round_factors is None:
        round_factors = {}
    if bases not in round_factors:
        round_factors[bases] = _round_factors(y, w, bases)
    rows, targets = [], []
    for t, r in enumerate(round_factors[bases], start=1):
        w_t, y_prev = w.column(t), y.column(t - 1)
        scales = np.array([scale(w_t, y_prev, arg) for _, scale, arg in terms])
        rows.append(r[:, select] * scales)
        targets.append(r[:, len(bases)])
    m, z = np.vstack(rows), np.concatenate(targets)
    coef, _, _, _ = np.linalg.lstsq(m, z, rcond=RANK_RTOL)
    resid = m @ coef - z
    return ESECoefficients(
        names=spec.names, values=coef, rss=float(resid @ resid), n_rows=w.n_units * w.n_rounds
    )


# --- counterfactual propagation ------------------------------------------------


@dataclass(frozen=True)
class ScenarioPath:
    """Per-round description of an assignment scenario at the population
    level: the treated fraction of each round. Cluster fractions and
    influencer assignments take the same value under it."""

    fractions: tuple[float, ...]

    def __post_init__(self):
        fr = tuple(float(p) for p in self.fractions)
        if not fr:
            raise ValueError("scenario path needs at least one round")
        for p in fr:
            if not (np.isfinite(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"treated fraction {p} outside [0, 1]")
        object.__setattr__(self, "fractions", fr)

    @property
    def n_rounds(self) -> int:
        return len(self.fractions)

    @classmethod
    def constant(cls, pi: float, n_rounds: int) -> "ScenarioPath":
        return cls(fractions=(float(pi),) * n_rounds)

    @classmethod
    def all_treated(cls, n_rounds: int) -> "ScenarioPath":
        return cls.constant(1.0, n_rounds)

    @classmethod
    def all_control(cls, n_rounds: int) -> "ScenarioPath":
        return cls.constant(0.0, n_rounds)


def propagate(
    coeffs: ESECoefficients,
    spec: FeatureSpec,
    y0_mean: float,
    path: ScenarioPath,
) -> np.ndarray:
    """Mean outcome trajectory, rounds 0..T, under the scenario path.

    Round t applies m_t = sum_f coef_f * mean_f(pi_t, m_{t-1}), starting from
    the observed pre-treatment mean, where mean_f is the feature's population
    mean in ``_TERMS`` and pi_t the path's treated fraction.
    """
    if tuple(coeffs.names) != spec.names:
        raise ValueError("coefficients and feature spec are misaligned")
    out = np.empty(path.n_rounds + 1)
    out[0] = float(y0_mean)
    for t in range(1, path.n_rounds + 1):
        means = np.array([_TERMS[f.kind][2](path.fractions[t - 1], out[t - 1]) for f in spec.features])
        out[t] = float(coeffs.values @ means)
    return out


def tte_from_coeffs(
    coeffs: ESECoefficients,
    spec: FeatureSpec,
    y0_mean: float,
    t: int,
) -> float:
    """Evolution-based effect estimate at round t: the universal-treatment
    trajectory minus the no-treatment trajectory, both anchored at y0_mean."""
    if t < 0:
        raise ValueError("round must be non-negative")
    hi = propagate(coeffs, spec, y0_mean, ScenarioPath.all_treated(max(t, 1)))
    lo = propagate(coeffs, spec, y0_mean, ScenarioPath.all_control(max(t, 1)))
    return float(hi[t] - lo[t])


def basic_feature_spec() -> FeatureSpec:
    """Default evolution-based feature set for dense interference."""
    return FeatureSpec.parse(["intercept", "own_treatment", "lagged_outcome", "treated_fraction", "lagged_mean"])


def cluster_feature_spec(n_clusters: int) -> FeatureSpec:
    items = ["intercept", "own_treatment", "lagged_outcome", "lagged_mean"]
    items += [f"cluster_fraction:{l}" for l in range(n_clusters)]
    return FeatureSpec.parse(items)


def influencer_feature_spec(influencers: Sequence[int]) -> FeatureSpec:
    items = ["intercept", "own_treatment", "lagged_outcome", "treated_fraction", "lagged_mean"]
    items += [f"influencer_treatment:{j}" for j in influencers]
    return FeatureSpec.parse(items)
