"""Interference weight structures.

A weight set assigns every ordered pair (i, j) and round t a real weight: the
influence of unit j on unit i in round t. The simulator only ever needs the
weighted peer sums ``apply(gv, t)``. Five representations are provided:

* ``LazyGaussianWeights``: the engine behind ``kind = dense_gaussian``. A
  static matrix of i.i.d. Normal(mu/n, sigma2/n) entries plus an independent
  per-round delta of Normal(mu_t/n, sigma2_t/n) entries, never built: the
  products W @ G are drawn with exactly the joint law of the materialized
  matrix by Gaussian conditioning. Memory and work per round are O(n k), where
  k is the number of distinct signal columns seen so far. It serves one
  forward pass through the rounds and has no point lookups.
* ``DenseGaussianWeights``: the same law, materialized (8 n^2 bytes). It is
  the small-n oracle the lazy engine is tested against, the only Gaussian kind
  with point lookups, and the engine for a network shared by several
  replications (``fixed_network``), whose signals differ.
* ``ClusteredWeights``: block structure, w_in/n within a cluster and w_out/n
  across clusters.
* ``InfluencerWeights``: a small set of m high-reach units whose columns carry
  weight w_inf/m (for receivers other than themselves); everything else gets
  the background w_base/n. Influencer columns scale by 1/m so their total
  influence stays O(1) as n grows.
* ``ExplicitDenseWeights``: any fixed matrix, for arbitrary heterogeneity.

Structured kinds never materialize an n x n matrix; their row sums and point
lookups are computed lazily. Dense kinds check the 8 n^2 bytes they need
against physical memory before allocating. All weight sets except the lazy
Gaussian are immutable after construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .panel import read_cells, write_cells
from .rng import substream


@dataclass(frozen=True)
class GaussianWeightParams:
    """First/second order weight moments: entry means are mu/n (static) and
    mu_t/n (per round); variances sigma2/n and sigma2_t/n."""

    mu: float
    sigma2: float
    mu_t: float = 0.0
    sigma2_t: float = 0.0

    def __post_init__(self):
        for name in ("mu", "sigma2", "mu_t", "sigma2_t"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma2 < 0 or self.sigma2_t < 0:
            raise ValueError("variances must be non-negative")


def _check_dense_fits(n: int, what: str) -> None:
    """Raise a named MemoryError before an n x n float64 allocation that
    cannot fit in physical memory."""
    need = 8 * n * n
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # platform without sysconf: let numpy fail as it would
    if need > physical:
        raise MemoryError(
            f"{what}: N={n} needs an {n}x{n} float64 matrix of {need} bytes, "
            f"more than the {physical} bytes of physical memory"
        )


class WeightSet:
    """Common interface: point lookups and row-sum application."""

    n_units: int

    def effective_weight(self, i: int, j: int, t: int) -> float:
        """Total weight of j's influence on i in round t."""
        raise NotImplementedError

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        """Weighted peer sums for round t.

        ``gv`` has shape (n,) or (n, s); entry j holds the peer signal emitted
        by unit j (per scenario when 2-d). Returns the matching shape with row
        i holding sum_j weight(i, j, t) * gv[j].
        """
        raise NotImplementedError

    def to_descriptor(self) -> dict:
        """JSON-serializable description (kind, parameters, seed)."""
        raise NotImplementedError

    def _check_indices(self, i: int, j: int) -> None:
        n = self.n_units
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"unit pair ({i}, {j}) outside 0..{n - 1}")


@dataclass(frozen=True)
class DenseGaussianWeights(WeightSet):
    """The dense Gaussian law materialized: 8 n^2 bytes, point lookups."""

    n_units: int
    params: GaussianWeightParams
    n_rounds: int
    seed: int
    static: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.static is None:
            n = self.n_units
            _check_dense_fits(n, "materialized dense_gaussian weights (needed by fixed_network and point lookups)")
            rng = substream(self.seed, "weights", "static")
            a = rng.normal(self.params.mu / n, np.sqrt(self.params.sigma2 / n), size=(n, n))
            a.setflags(write=False)
            object.__setattr__(self, "static", a)

    def _delta(self, t: int) -> np.ndarray | None:
        if not 1 <= t <= self.n_rounds:
            raise IndexError(f"round {t} outside 1..{self.n_rounds}")
        p = self.params
        if p.mu_t == 0.0 and p.sigma2_t == 0.0:
            return None
        n = self.n_units
        rng = substream(self.seed, "weights", "delta", t)
        return rng.normal(p.mu_t / n, np.sqrt(p.sigma2_t / n), size=(n, n))

    def effective_weight(self, i: int, j: int, t: int) -> float:
        self._check_indices(i, j)
        delta = self._delta(t)
        extra = 0.0 if delta is None else float(delta[i, j])
        return float(self.static[i, j]) + extra

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        delta = self._delta(t)
        out = self.static @ gv
        if delta is not None:
            out = out + delta @ gv
        return out

    def dense(self, t: int) -> np.ndarray:
        """Materialized matrix for round t (diagnostics; O(n^2) memory)."""
        delta = self._delta(t)
        return self.static.copy() if delta is None else self.static + delta

    def to_descriptor(self) -> dict:
        return _gaussian_descriptor(self)


class _ConditionedGaussian:
    """Images Z @ g of an n x n matrix Z of i.i.d. N(0, 1) entries that is
    never built (Bolthausen's conditioning technique).

    Keeps an orthonormal basis q_1..q_k of the columns seen so far and their
    images b_i = Z q_i. A new column g splits into its projection on the
    basis, whose image is known, and a remainder r orthogonal to it; Z r / |r|
    is independent of everything drawn so far, so it is one fresh N(0, 1)
    column. This is a Gram-Schmidt QR of the columns, G = U R, with Z U drawn
    column by column. Basis and images are lists, so growing them copies
    nothing: an image costs O(n k) time and adds at most 16 n bytes.
    """

    def __init__(self, fresh: np.random.Generator):
        self.fresh = fresh
        self.basis: list[np.ndarray] = []
        self.images: list[np.ndarray] = []

    def image(self, g: np.ndarray) -> np.ndarray:
        coef = [q @ g for q in self.basis]
        r = g - _combine(coef, self.basis, g.shape)
        again = [q @ r for q in self.basis]  # classical Gram-Schmidt, re-orthogonalized once
        r -= _combine(again, self.basis, g.shape)
        coef = [a + b for a, b in zip(coef, again)]
        norm = np.linalg.norm(r)
        if norm > 1e-12 * np.linalg.norm(g):
            r /= norm
            self.basis.append(r)
            self.images.append(self.fresh.standard_normal(g.shape[0]))
            coef.append(norm)
        return _combine(coef, self.images, g.shape)


def _combine(coef: list, vectors: list[np.ndarray], shape) -> np.ndarray:
    """sum_i coef[i] * vectors[i], accumulated in order."""
    out = np.zeros(shape)
    for c, v in zip(coef, vectors):
        out += c * v
    return out


def _gaussian_descriptor(ws: DenseGaussianWeights | LazyGaussianWeights) -> dict:
    # Both engines share one schema; weights_from_descriptor rebuilds the oracle.
    p = ws.params
    return {
        "kind": "dense_gaussian",
        "n_units": ws.n_units,
        "n_rounds": ws.n_rounds,
        "mu": p.mu,
        "sigma2": p.sigma2,
        "mu_t": p.mu_t,
        "sigma2_t": p.sigma2_t,
        "seed": ws.seed,
    }


@dataclass(eq=False)
class LazyGaussianWeights(WeightSet):
    """``DenseGaussianWeights``'s law without the n x n matrix.

    Write the static matrix as (mu/n) 11' + sqrt(sigma2/n) Z and the round-t
    delta as (mu_t/n) 11' + sqrt(sigma2_t/n) Z_t. The mean terms are computed
    directly. ``_ConditionedGaussian`` draws each image Z g conditionally on
    every image drawn before, so one instance serves the static part for the
    whole pass and a fresh one, seeded by the round, serves each delta.

    Columns are reduced to their distinct values in a canonical order (sorted
    by their bytes) before any draw, so identical scenarios get bit-identical
    exposures and scenario order cannot change any result. Rounds must come
    in increasing order, each at most once: one forward pass.
    """

    n_units: int
    params: GaussianWeightParams
    n_rounds: int
    seed: int
    static: _ConditionedGaussian = field(init=False, repr=False)
    last_round: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("population size must be at least 1")
        if self.n_rounds < 1:
            raise ValueError("need at least one round")
        self.static = _ConditionedGaussian(substream(self.seed, "weights", "static"))

    def effective_weight(self, i: int, j: int, t: int) -> float:
        raise NotImplementedError(
            "lazy Gaussian weights have no point lookups; use gen_dense_gaussian (the materialized oracle)"
        )

    def dense(self, t: int) -> np.ndarray:
        raise NotImplementedError(
            "lazy Gaussian weights are never materialized; use gen_dense_gaussian (the materialized oracle)"
        )

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        if not 1 <= t <= self.n_rounds:
            raise IndexError(f"round {t} outside 1..{self.n_rounds}")
        if t <= self.last_round:
            raise ValueError(
                f"round {t} requested after round {self.last_round}: lazy Gaussian weights serve one "
                "forward pass; use gen_dense_gaussian to revisit a round"
            )
        gv = np.asarray(gv, dtype=np.float64)
        squeeze = gv.ndim == 1
        g = gv[:, None] if squeeze else gv
        n = self.n_units
        if g.ndim != 2 or g.shape[0] != n:
            raise ValueError(f"signals of shape {gv.shape} do not match {n} units")
        self.last_round = t
        keys = [g[:, j].tobytes() for j in range(g.shape[1])]
        lead: dict[bytes, int] = {}  # distinct column -> its first index, in canonical order
        for j in sorted(range(len(keys)), key=keys.__getitem__):
            lead.setdefault(keys[j], j)
        source = [lead[key] for key in keys]
        distinct = list(lead.values())
        del keys, lead
        p = self.params
        out = np.empty(g.shape)
        for j in distinct:
            out[:, j] = ((p.mu + p.mu_t) / n) * g[:, j].sum()
        if p.sigma2_t > 0.0:
            delta = _ConditionedGaussian(substream(self.seed, "weights", "delta", t))
            for j in distinct:
                out[:, j] += np.sqrt(p.sigma2_t / n) * delta.image(g[:, j])
            del delta  # free its columns before the static basis grows
        if p.sigma2 > 0.0:
            for j in distinct:
                out[:, j] += np.sqrt(p.sigma2 / n) * self.static.image(g[:, j])
        for j, src in enumerate(source):
            if src != j:
                out[:, j] = out[:, src]
        return out[:, 0] if squeeze else out

    def to_descriptor(self) -> dict:
        return _gaussian_descriptor(self)


@dataclass(frozen=True)
class ClusteredWeights(WeightSet):
    n_units: int
    membership: np.ndarray
    n_clusters: int
    w_in: float
    w_out: float

    def __post_init__(self):
        mem = np.asarray(self.membership, dtype=np.int64)
        if mem.shape != (self.n_units,):
            raise ValueError("membership must assign one cluster per unit")
        if mem.min() < 0 or mem.max() >= self.n_clusters:
            raise ValueError(f"cluster ids must lie in 0..{self.n_clusters - 1}")
        if not (np.isfinite(self.w_in) and np.isfinite(self.w_out)):
            raise ValueError("cluster weights must be finite")
        mem.setflags(write=False)
        object.__setattr__(self, "membership", mem)

    def effective_weight(self, i: int, j: int, t: int) -> float:
        self._check_indices(i, j)
        same = self.membership[i] == self.membership[j]
        return (self.w_in if same else self.w_out) / self.n_units

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        gv = np.asarray(gv, dtype=np.float64)
        squeeze = gv.ndim == 1
        g = gv[:, None] if squeeze else gv
        total = g.sum(axis=0)
        # bincount sums each cluster's units in unit order.
        per_cluster = np.column_stack(
            [np.bincount(self.membership, weights=g[:, j], minlength=self.n_clusters) for j in range(g.shape[1])]
        )
        n = self.n_units
        out = (self.w_out / n) * total[None, :] + ((self.w_in - self.w_out) / n) * per_cluster[self.membership]
        return out[:, 0] if squeeze else out

    def to_descriptor(self) -> dict:
        return {
            "kind": "clustered",
            "n_units": self.n_units,
            "n_clusters": self.n_clusters,
            "w_in": self.w_in,
            "w_out": self.w_out,
        }


@dataclass(frozen=True)
class InfluencerWeights(WeightSet):
    n_units: int
    influencers: tuple[int, ...]
    w_inf: float
    w_base: float

    def __post_init__(self):
        ids = tuple(sorted(int(i) for i in self.influencers))
        if len(ids) == 0:
            raise ValueError("influencer set must be non-empty")
        if len(set(ids)) != len(ids):
            raise ValueError("influencer ids must be distinct")
        if ids[0] < 0 or ids[-1] >= self.n_units:
            raise ValueError(f"influencer ids must lie in 0..{self.n_units - 1}")
        if len(ids) >= self.n_units:
            raise ValueError("influencers must be a strict subset of the population")
        if not (np.isfinite(self.w_inf) and np.isfinite(self.w_base)):
            raise ValueError("influencer weights must be finite")
        object.__setattr__(self, "influencers", ids)

    @property
    def n_influencers(self) -> int:
        return len(self.influencers)

    def effective_weight(self, i: int, j: int, t: int) -> float:
        self._check_indices(i, j)
        if j in self.influencers and j != i:
            return self.w_inf / self.n_influencers
        return self.w_base / self.n_units

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        gv = np.asarray(gv, dtype=np.float64)
        squeeze = gv.ndim == 1
        g = gv[:, None] if squeeze else gv
        ids = np.asarray(self.influencers, dtype=np.int64)
        total = g.sum(axis=0)
        inf_total = g[ids].sum(axis=0)
        m, n = self.n_influencers, self.n_units
        # For an influencer receiver, its own column falls back to the base rate.
        own = np.zeros_like(g)
        own[ids] = g[ids]
        out = (self.w_inf / m) * (inf_total[None, :] - own) + (self.w_base / n) * (
            total[None, :] - inf_total[None, :] + own
        )
        return out[:, 0] if squeeze else out

    def to_descriptor(self) -> dict:
        return {
            "kind": "influencer",
            "n_units": self.n_units,
            "influencers": list(self.influencers),
            "w_inf": self.w_inf,
            "w_base": self.w_base,
        }


@dataclass(frozen=True)
class ExplicitDenseWeights(WeightSet):
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("explicit weights must be a square matrix")
        _check_dense_fits(m.shape[0], "explicit weights")
        if not np.all(np.isfinite(m)):
            raise ValueError("explicit weights must all be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_units(self) -> int:
        return self.matrix.shape[0]

    def effective_weight(self, i: int, j: int, t: int) -> float:
        self._check_indices(i, j)
        return float(self.matrix[i, j])

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        return self.matrix @ np.asarray(gv, dtype=np.float64)

    def to_descriptor(self) -> dict:
        return {"kind": "explicit", "n_units": self.n_units, "matrix": self.matrix.tolist()}


def gen_dense_gaussian(
    n: int, params: GaussianWeightParams, n_rounds: int, seed: int
) -> DenseGaussianWeights:
    """Independent Gaussian weights: static entries Normal(mu/n, sigma2/n) and
    per-round deltas Normal(mu_t/n, sigma2_t/n), deterministic given seed."""
    if n < 1:
        raise ValueError("population size must be at least 1")
    if n_rounds < 1:
        raise ValueError("need at least one round")
    return DenseGaussianWeights(n_units=n, params=params, n_rounds=n_rounds, seed=seed)


def gen_clustered(n: int, k: int, w_in: float, w_out: float) -> ClusteredWeights:
    """Equal-size cluster blocks; the last cluster absorbs any remainder."""
    if k < 1:
        raise ValueError("need at least one cluster")
    if k > n:
        raise ValueError(f"cannot split {n} units into {k} clusters")
    size = n // k
    membership = np.minimum(np.arange(n) // size, k - 1)
    return ClusteredWeights(n_units=n, membership=membership, n_clusters=k, w_in=w_in, w_out=w_out)


def gen_influencer(n: int, influencers: Sequence[int], w_inf: float, w_base: float) -> InfluencerWeights:
    """A small set of high-reach units plus a uniform background."""
    return InfluencerWeights(n_units=n, influencers=tuple(influencers), w_inf=w_inf, w_base=w_base)


def weights_from_descriptor(desc: dict, default_n_rounds: int | None = None) -> WeightSet:
    """Rebuild a weight set from its JSON descriptor. A ``dense_gaussian``
    descriptor rebuilds the materialized oracle: the same law as a lazy set
    with that descriptor, not the same realization."""
    kind = desc.get("kind")
    if kind == "dense_gaussian":
        params = GaussianWeightParams(
            mu=desc["mu"], sigma2=desc["sigma2"], mu_t=desc.get("mu_t", 0.0), sigma2_t=desc.get("sigma2_t", 0.0)
        )
        n_rounds = desc.get("n_rounds", default_n_rounds)
        return gen_dense_gaussian(desc["n_units"], params, n_rounds, desc["seed"])
    if kind == "clustered":
        return gen_clustered(desc["n_units"], desc["n_clusters"], desc["w_in"], desc["w_out"])
    if kind == "influencer":
        return gen_influencer(desc["n_units"], desc["influencers"], desc["w_inf"], desc["w_base"])
    if kind == "explicit":
        return ExplicitDenseWeights(np.asarray(desc["matrix"], dtype=np.float64))
    raise ValueError(f"unknown weight kind {kind!r}")


EXPLICIT_HEADER = ("i", "j", "weight")


def write_explicit_csv(path, ws: ExplicitDenseWeights) -> None:
    """Explicit matrices interchange as rows i,j,weight, in panel CSV form."""
    write_cells(path, ws.matrix, header=EXPLICIT_HEADER)


def read_explicit_csv(path) -> ExplicitDenseWeights:
    def square(rows: int, cols: int) -> tuple[int, int]:
        n = max(rows, cols)
        _check_dense_fits(n, str(path))
        return n, n

    return ExplicitDenseWeights(read_cells(path, header=EXPLICIT_HEADER, shape=square))
