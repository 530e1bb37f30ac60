"""Interference weight structures.

A weight set assigns every ordered pair (i, j) and round t a real weight: the
influence of unit j on unit i in round t. The simulator only ever needs the
weighted peer sums ``apply(gv, t)``. Five representations are provided:

* ``LazyGaussianWeights``: the engine behind ``kind = dense_gaussian``. A
  static matrix of i.i.d. Normal(mu/n, sigma2/n) entries plus an independent
  per-round delta of Normal(mu_t/n, sigma2_t/n) entries, never built: the
  products W @ G are drawn with exactly the joint law of the materialized
  matrix by Gaussian conditioning. Memory and work per round are O(n k), where
  k is the number of distinct signal columns seen so far. It serves any number
  of passes through the rounds, so one set is the fixed network several
  replications share (``fixed_network``).
* ``DenseGaussianWeights``: the same law, materialized (8 n^2 bytes): the
  small-n oracle the lazy engine is tested against.
* ``ClusteredWeights``: block structure, w_in/n within a cluster and w_out/n
  across clusters.
* ``InfluencerWeights``: a small set of m high-reach units whose columns carry
  weight w_inf/m (for receivers other than themselves); everything else gets
  the background w_base/n. Influencer columns scale by 1/m so their total
  influence stays O(1) as n grows.
* ``ExplicitDenseWeights``: any fixed matrix, for arbitrary heterogeneity.
  It is built in code only (the evolution identity of the acceptance tests
  runs on it) and is the engine of no kind.

Cost of ``apply`` on n units and s signal columns:

* lazy Gaussian: O(n s k) time and O(n k) memory, k the distinct columns
  seen so far;
* dense Gaussian and explicit: one n x n matrix product, O(n^2 s);
* clustered and influencer: O(n s) time. Each column's total and its sum
  over each cluster (the influencer set) fill a small exposure table, whose
  rows are written out by segment: each cluster's over its units, which a
  clustered set holds in cluster order, or the background row over every
  unit, then each influencer's own. One column costs the one row it
  returns. Each sum is one numpy reduction over a contiguous run: the
  column, or a cluster's segment of it. numpy adds it pairwise, with
  rounding error O(log n * eps) where a sum in unit order has O(n * eps).

No kind's bits depend on the memory layout of G: each structured sum is a
function of the values it adds alone, and the lazy engine and the BLAS kinds
(explicit, and the materialized Gaussian oracle) make G C-contiguous before
any product. Structured kinds also promise that ``apply(G)[:, j]`` is bit for
bit ``apply(G[:, j])`` whatever the width of G, and say so with
``column_independent``, so the evolution engine gives them one column at a
time. The other kinds promise no such column independence: the lazy engine
conditions each column on every column it is given, and the BLAS kinds use a
matrix-matrix product for several columns but a matrix-vector product for
one. Structured kinds and the lazy engine return a column-contiguous (n, s)
stack, the layout in which the evolution engine holds a round's columns.

Every kind's ``apply`` goes through one check, ``_signal_stack``: an (n,)
column is a one-column stack, a stack of any other length is refused by
name, and the result has the shape of the input.

Structured kinds never materialize an n x n matrix. Dense kinds check the
8 n^2 bytes they need against physical memory before allocating. All weight
sets except the lazy Gaussian, which grows with each new column but gives a
column sent again at a round the bits it got then, are immutable.

``WEIGHT_KINDS`` is the one table of the kinds a config file can name: each
kind's keys and defaults, how it is built, whether it draws per seed, and
what structure its sets expose. ``WeightConfig`` is a kind plus its values.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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


def _check_population(n_units: int, n_rounds: int) -> None:
    if n_units < 1:
        raise ValueError("population size must be at least 1")
    if n_rounds < 1:
        raise ValueError("need at least one round")


def _signal_stack(gv, n: int) -> np.ndarray:
    """``gv``, an (n,) column or an (n, s) stack, as the float64 (n, s) stack
    every ``apply`` works on; any other shape is refused by name."""
    g = np.asarray(gv, dtype=np.float64)
    g = g[:, None] if g.ndim == 1 else g
    if g.ndim != 2 or g.shape[0] != n:
        raise ValueError(f"signals of shape {np.shape(gv)} do not match {n} units")
    return g


class WeightSet:
    """Common interface: row-sum application and a description.
    ``column_independent`` says that each column of ``apply``'s result has
    the bits of that column applied alone."""

    n_units: int
    column_independent = False

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        """Weighted peer sums for round t: row i of the result, which has the
        shape of ``gv`` ((n,) or (n, s)), holds sum_j weight(i, j, t) * gv[j],
        gv[j] being the peer signal unit j emits (per scenario when 2-d)."""
        raise NotImplementedError

    def to_descriptor(self) -> dict:
        """JSON-serializable description: the kind, the population size and
        the parameters the set was built from."""
        name = kind_of(self)
        kind = WEIGHT_KINDS[name]
        params = kind.describe(self) if kind.describe else {key: getattr(self, key) for key in kind.keys}
        return {"kind": name, "n_units": self.n_units, **params}


@dataclass(frozen=True)
class DenseGaussianWeights(WeightSet):
    """The dense Gaussian law materialized (8 n^2 bytes): the small-n oracle
    ``LazyGaussianWeights`` is tested against, never built by a run."""

    n_units: int
    params: GaussianWeightParams
    n_rounds: int
    seed: int
    static: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_population(self.n_units, self.n_rounds)
        n = self.n_units
        _check_dense_fits(n, "materialized dense_gaussian oracle")
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

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        delta = self._delta(t)
        g = np.ascontiguousarray(_signal_stack(gv, self.n_units))  # BLAS bits depend on the layout
        out = self.static @ g
        if delta is not None:
            out = out + delta @ g
        return out.reshape(np.shape(gv))


class _ConditionedGaussian:
    """Images Z @ g of an n x n matrix Z of i.i.d. N(0, 1) entries that is
    never built (Bolthausen's conditioning technique).

    Keeps an orthonormal basis q_1..q_k of the columns seen so far and their
    images b_i = Z q_i, as the first k rows of two row-major (capacity, n)
    arrays. A new column g splits into its projection on the basis, whose
    image is known, and a remainder r orthogonal to it; Z r / |r| is
    independent of everything drawn so far, so it is one fresh N(0, 1) row.
    This is a Gram-Schmidt QR of the columns, G = U R, with Z U drawn column
    by column. Each projection step is one matrix-vector product over the
    filled rows, so an image costs O(n k) time and fills at most 16 n bytes.
    The rows past k are spare and no projection reads them: fewer than a
    quarter of k plus 5/4 of the columns of the call that last grew them.

    ``seen`` keeps the coefficients c of every key's image c @ b, so a key
    sent again rebuilds the first image's bits. The key is the caller's name
    for the column, a hash; a hit counts only if the column is c @ q to
    1e-10, so a collision projects afresh instead of returning a wrong image.
    """

    def __init__(self, fresh: np.random.Generator, n: int):
        self.fresh = fresh
        self.k = 0
        self._q = np.empty((0, n))
        self._b = np.empty((0, n))
        self.seen: dict = {}

    # The filled rows, copied: ``resize`` would leave a view dangling.
    basis = property(lambda self: self._q[: self.k].copy())
    images = property(lambda self: self._b[: self.k].copy())

    def add_images(self, out: np.ndarray, g: np.ndarray, columns: Sequence[int], keys: Sequence, scale: float) -> None:
        """out[:, j] += scale * Z g[:, j] for each j of ``columns``, in order,
        ``keys`` naming each for ``seen``. When the arrays lack a row per
        column, one ``resize`` (a ``realloc``) grows them by a quarter, or
        to the rows needed if that is more: a heap ``realloc`` may copy, so
        growing by the call made a long fixed network copy its basis at
        every call and left the copies' holes in the heap."""
        need = self.k + len(columns)
        if need > len(self._q):
            rows = (max(need, len(self._q) + len(self._q) // 4), self._q.shape[1])
            # No view of the arrays outlives a call (``basis`` and ``images``
            # are copies), so the reference check, which a profiler's hold on
            # the bound method fails, can go.
            self._q.resize(rows, refcheck=False)
            self._b.resize(rows, refcheck=False)
        for j, key in zip(columns, keys):
            out[:, j] += scale * self.image(g[:, j], key)

    def image(self, g: np.ndarray, key) -> np.ndarray:
        coef = self.seen.get(key)
        if coef is not None and np.linalg.norm(g - coef @ self._q[: len(coef)]) <= 1e-10 * np.linalg.norm(g):
            return coef @ self._b[: len(coef)]
        q = self._q[: self.k]
        coef = q @ g
        r = g - coef @ q
        again = q @ r  # classical Gram-Schmidt, re-orthogonalized once
        r -= again @ q
        coef += again
        norm = np.linalg.norm(r)
        if norm > 1e-12 * np.linalg.norm(g):
            np.divide(r, norm, out=self._q[self.k])
            self.fresh.standard_normal(out=self._b[self.k])
            coef = np.append(coef, norm)
            self.k += 1
        self.seen[key] = coef
        return coef @ self._b[: self.k]


@dataclass(eq=False)
class LazyGaussianWeights(WeightSet):
    """``DenseGaussianWeights``'s law without the n x n matrix.

    Write the static matrix as (mu/n) 11' + sqrt(sigma2/n) Z and the round-t
    delta as (mu_t/n) 11' + sqrt(sigma2_t/n) Z_t. The mean terms are computed
    directly. ``_ConditionedGaussian`` draws each image Z g conditionally on
    every image drawn before, so one instance serves the static part and one
    per round, seeded by the round and made on the round's first call,
    serves its delta. Both live as long as the set, so it serves any number
    of passes through the rounds in any order: a fixed network that several
    replications feed different signals. Each distinct column adds 16 n bytes
    to the static part and, when sigma2_t > 0, to its round's delta.

    Columns are reduced to their distinct values in a canonical order (sorted
    by their bytes) before any draw, so identical scenarios get bit-identical
    exposures and scenario order cannot change any result. A column sent
    again at a round it was sent at gets the bits it got then, keyed by the
    round and the hash of its bytes; at a new round it is projected afresh,
    as within one pass.
    """

    n_units: int
    params: GaussianWeightParams
    n_rounds: int
    seed: int
    static: _ConditionedGaussian = field(init=False, repr=False)
    deltas: dict[int, _ConditionedGaussian] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        _check_population(self.n_units, self.n_rounds)
        self.static = _ConditionedGaussian(substream(self.seed, "weights", "static"), self.n_units)

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        if not 1 <= t <= self.n_rounds:
            raise IndexError(f"round {t} outside 1..{self.n_rounds}")
        n = self.n_units
        # The projections' bits depend on the strides BLAS sees; one layout
        # for every input makes them a function of the values alone.
        g = np.ascontiguousarray(_signal_stack(gv, n))
        keys = [g[:, j].tobytes() for j in range(g.shape[1])]
        lead: dict[bytes, int] = {}  # distinct column -> its first index, in canonical order
        for j in sorted(range(len(keys)), key=keys.__getitem__):
            lead.setdefault(keys[j], j)
        source = [lead[key] for key in keys]
        distinct = list(lead.values())
        # bytes cache their hash, which the dict above computed: 8 bytes a key.
        names = [(t, hash(key)) for key in lead]
        del keys, lead
        p = self.params
        out = np.empty(g.shape, order="F")
        for j in distinct:
            out[:, j] = ((p.mu + p.mu_t) / n) * g[:, j].sum()
        if p.sigma2_t > 0.0:
            if t not in self.deltas:
                self.deltas[t] = _ConditionedGaussian(substream(self.seed, "weights", "delta", t), n)
            self.deltas[t].add_images(out, g, distinct, names, np.sqrt(p.sigma2_t / n))
        if p.sigma2 > 0.0:
            self.static.add_images(out, g, distinct, names, np.sqrt(p.sigma2 / n))
        for j, src in enumerate(source):
            if src != j:
                out[:, j] = out[:, src]
        return out.reshape(np.shape(gv))


def _column_sums(g: np.ndarray, gather: Sequence[int] | None, starts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each column's total (s,) and its sums (len(starts), s) over the
    segments of its values in ``gather`` order (None: as they are), segment r
    from ``starts[r]`` to the next start. Each sum is numpy's pairwise
    reduction of one contiguous copy of its run, so its bits are a function
    of the summed values alone, not of how numpy would iterate a strided
    column of ``g``."""
    total = np.empty(g.shape[1])
    segments = np.empty((len(starts), g.shape[1]))
    for j in range(g.shape[1]):
        column = np.ascontiguousarray(g[:, j])
        total[j] = np.add.reduce(column)
        segments[:, j] = np.add.reduceat(column if gather is None else column.take(gather), starts)
    return total, segments


@dataclass(frozen=True)
class ClusteredWeights(WeightSet):
    """Units in cluster order: ``membership`` never decreases, so each
    non-empty cluster is one segment of units, which starts at ``starts``."""

    column_independent = True
    n_units: int
    membership: np.ndarray
    n_clusters: int
    w_in: float
    w_out: float
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mem = np.asarray(self.membership, dtype=np.int64)
        if mem.shape != (self.n_units,):
            raise ValueError("membership must assign one cluster per unit")
        if mem.min() < 0 or mem.max() >= self.n_clusters:
            raise ValueError(f"cluster ids must lie in 0..{self.n_clusters - 1}")
        if not (np.isfinite(self.w_in) and np.isfinite(self.w_out)):
            raise ValueError("cluster weights must be finite")
        steps = np.diff(mem, prepend=-1)  # ids are non-negative, so unit 0 starts a segment
        if (steps < 0).any():
            u = int(np.argmax(steps < 0))
            raise ValueError(f"membership must be in cluster order: unit {u} is in cluster {mem[u]}, "
                             f"after unit {u - 1} in cluster {mem[u - 1]}")
        mem.setflags(write=False)
        object.__setattr__(self, "membership", mem)
        object.__setattr__(self, "starts", np.flatnonzero(steps))

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        n = self.n_units
        g = _signal_stack(gv, n)
        total, sums = _column_sums(g, None, self.starts)
        table = (self.w_out / n) * total + ((self.w_in - self.w_out) / n) * sums
        # Row r, the r-th non-empty cluster's, repeated over its segment.
        out = np.repeat(table.T, np.diff(self.starts, append=n), axis=1)
        return out.T.reshape(np.shape(gv))


@dataclass(frozen=True)
class InfluencerWeights(WeightSet):
    column_independent = True
    n_units: int
    influencers: tuple[int, ...]
    w_inf: float
    w_base: float

    def __post_init__(self):
        ids = _influencer_ids(self.influencers, self.n_units)
        if not (np.isfinite(self.w_inf) and np.isfinite(self.w_base)):
            raise ValueError("influencer weights must be finite")
        object.__setattr__(self, "influencers", ids)

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        m, n, ids = len(self.influencers), self.n_units, list(self.influencers)
        g = _signal_stack(gv, n)
        total, inf_total = _column_sums(g, ids, [0])
        # Row 0 serves every non-influencer receiver; row r + 1 serves the
        # r-th influencer, whose own column falls back to the base rate.
        own = np.zeros((m + 1, g.shape[1]))
        own[1:] = g[ids]
        table = (self.w_inf / m) * (inf_total - own) + (self.w_base / n) * (total - inf_total + own)
        out = np.full((g.shape[1], n), table[0, :, None])
        out[:, ids] = table[1:].T
        return out.T.reshape(np.shape(gv))


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

    def apply(self, gv: np.ndarray, t: int) -> np.ndarray:
        g = np.ascontiguousarray(_signal_stack(gv, self.n_units))  # BLAS bits depend on the layout
        return (self.matrix @ g).reshape(np.shape(gv))


def gen_dense_gaussian(
    n: int, params: GaussianWeightParams, n_rounds: int, seed: int
) -> DenseGaussianWeights:
    """Independent Gaussian weights: static entries Normal(mu/n, sigma2/n) and
    per-round deltas Normal(mu_t/n, sigma2_t/n), deterministic given seed."""
    return DenseGaussianWeights(n_units=n, params=params, n_rounds=n_rounds, seed=seed)


def gen_clustered(n: int, k: int, w_in: float, w_out: float) -> ClusteredWeights:
    """Equal-size cluster blocks; the last cluster absorbs any remainder."""
    _check_cluster_count(k, n)
    size = n // k
    membership = np.minimum(np.arange(n) // size, k - 1)
    return ClusteredWeights(n_units=n, membership=membership, n_clusters=k, w_in=w_in, w_out=w_out)


def gen_influencer(n: int, influencers: Sequence[int], w_inf: float, w_base: float) -> InfluencerWeights:
    """A small set of high-reach units plus a uniform background."""
    return InfluencerWeights(n_units=n, influencers=tuple(influencers), w_inf=w_inf, w_base=w_base)


# --- weight kinds ------------------------------------------------------------


class KeyedValueError(ValueError):
    """A fault of one config value alone: ``key``, its ``section.key`` (None
    until known), lets a config file name the line that set it."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.message, self.key = message, key


def _check_cluster_count(k: int, n: int) -> None:
    if k < 1:
        raise KeyedValueError("need at least one cluster")
    if k > n:
        raise KeyedValueError(f"cannot split {n} units into {k} clusters")


def _influencer_ids(ids: Sequence[int], n: int) -> tuple[int, ...]:
    """The influencer ids, sorted, after checking them against n units."""
    ids = tuple(sorted(int(i) for i in ids))
    if len(ids) == 0:
        raise KeyedValueError("influencer set must be non-empty")
    if len(set(ids)) != len(ids):
        raise KeyedValueError("influencer ids must be distinct")
    if ids[0] < 0 or ids[-1] >= n:
        raise KeyedValueError(f"influencer ids must lie in 0..{n - 1}")
    if len(ids) >= n:
        raise KeyedValueError("influencers must be a strict subset of the population")
    return ids


@dataclass(frozen=True)
class WeightKind:
    """One kind a config file's ``[weights] kind`` can name.

    ``keys`` maps each key the kind reads to its default.
    ``build(params, n_units, n_rounds, seed)`` makes the set, which any
    number of replications may share; ``per_seed`` says whether a run draws
    a new set for every seed unless its network is fixed. ``checks``
    test single values against the population size before any build and
    raise ``KeyedValueError``, so a config file names the value's line.
    ``engines`` are the classes ``build`` returns; ``structure`` names their
    attributes that estimators may use as structure metadata, and
    ``describe`` the parameters a descriptor records (by default the
    attributes named as the keys).
    """

    keys: dict
    build: Callable[..., WeightSet]
    engines: tuple[type, ...]
    per_seed: bool = False
    checks: dict = field(default_factory=dict)
    structure: tuple[str, ...] = ()
    describe: Callable[[WeightSet], dict] | None = None


WEIGHT_KINDS = {
    "dense_gaussian": WeightKind(
        keys={"mu": 0.0, "sigma2": 0.0, "mu_t": 0.0, "sigma2_t": 0.0},
        build=lambda p, n, n_rounds, seed: LazyGaussianWeights(n, GaussianWeightParams(**p), n_rounds, seed),
        # The materialized oracle is never built, but describes as the kind.
        engines=(LazyGaussianWeights, DenseGaussianWeights),
        per_seed=True,
        describe=lambda ws: {"n_rounds": ws.n_rounds, **dataclasses.asdict(ws.params), "seed": ws.seed},
    ),
    "clustered": WeightKind(
        keys={"n_clusters": 2, "w_in": 0.0, "w_out": 0.0},
        build=lambda p, n, *_: gen_clustered(n, p["n_clusters"], p["w_in"], p["w_out"]),
        engines=(ClusteredWeights,),
        checks={"n_clusters": _check_cluster_count},
        structure=("membership", "n_clusters"),
    ),
    "influencer": WeightKind(
        keys={"influencers": (), "w_inf": 0.0, "w_base": 0.0},
        build=lambda p, n, *_: gen_influencer(n, p["influencers"], p["w_inf"], p["w_base"]),
        engines=(InfluencerWeights,),
        checks={"influencers": _influencer_ids},
        structure=("influencers",),
    ),
}


def kind_of(weights: WeightSet) -> str:
    """The name of the kind whose engines include ``weights``'s class."""
    for name, kind in WEIGHT_KINDS.items():
        if isinstance(weights, kind.engines):
            return name
    raise ValueError(f"{type(weights).__name__} is not the engine of any weight kind")


@dataclass(frozen=True, init=False)
class WeightConfig:
    """Declarative weight-set choice: a kind of ``WEIGHT_KINDS`` and a value
    for each of its keys in ``params``, the kind's default where none is
    given. Built once per run unless the kind draws per seed and the network
    is not fixed, then once per replication. Errors name the config key."""

    kind: str
    params: dict

    def __init__(self, kind: str, **params):
        if kind not in WEIGHT_KINDS:
            raise ValueError(f"weights.kind must be one of {', '.join(WEIGHT_KINDS)}; got {kind!r}")
        values = dict(WEIGHT_KINDS[kind].keys)
        for key, value in params.items():
            if key not in values:
                raise ValueError(f"weights.{key} is not read by kind = {kind}")
            values[key] = value
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", values)

    def check(self, n_units: int) -> None:
        """Raise, naming the key, where a value cannot serve ``n_units`` units."""
        for key, check in WEIGHT_KINDS[self.kind].checks.items():
            try:
                check(self.params[key], n_units)
            except KeyedValueError as exc:
                raise KeyedValueError(exc.message, f"weights.{key}") from None

    def build(self, n_units: int, n_rounds: int, seed: int) -> WeightSet:
        """The weight set ``seed`` draws, for any number of passes."""
        return WEIGHT_KINDS[self.kind].build(self.params, n_units, n_rounds, seed)
