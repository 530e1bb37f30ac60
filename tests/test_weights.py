import cProfile
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillsim.dynamics import DynamicsSpec, LinearPeer, LinearUnit, WeightedSumExposure, counterfactual_suite
from spillsim.panel import TreatmentPanel, round_index_covariates
from spillsim.rng import substream
from spillsim.weights import (
    ClusteredWeights,
    DenseGaussianWeights,
    ExplicitDenseWeights,
    GaussianWeightParams,
    InfluencerWeights,
    LazyGaussianWeights,
    _ConditionedGaussian,
    gen_clustered,
    gen_dense_gaussian,
    gen_influencer,
)


def test_degenerate_gaussian_is_constant():
    params = GaussianWeightParams(mu=2.0, sigma2=0.0, mu_t=1.0, sigma2_t=0.0)
    ws = gen_dense_gaussian(4, params, n_rounds=2, seed=3)
    dense = _materialize(ws, 1)
    assert np.allclose(dense, 2.0 / 4 + 1.0 / 4, atol=0, rtol=0)
    assert _materialize(ws, 2)[0, 3] == pytest.approx(0.75)


def test_gaussian_mean_concentrates():
    # Mean of n^2 iid Normal(mu/n, sigma2/n) entries has sd sigma/n^1.5;
    # four of those is the tolerance.
    n, mu, sigma2 = 1000, 1.0, 1.0
    ws = gen_dense_gaussian(n, GaussianWeightParams(mu, sigma2), n_rounds=1, seed=11)
    bound = 4.0 * np.sqrt(sigma2) / n**1.5
    assert abs(ws.static.mean() - mu / n) < bound


def test_gaussian_determinism():
    params = GaussianWeightParams(mu=0.5, sigma2=2.0, mu_t=0.1, sigma2_t=0.3)
    a = gen_dense_gaussian(50, params, n_rounds=3, seed=9)
    b = gen_dense_gaussian(50, params, n_rounds=3, seed=9)
    for t in (1, 2, 3):
        assert np.array_equal(_materialize(a, t), _materialize(b, t))
    c = gen_dense_gaussian(50, params, n_rounds=3, seed=10)
    assert not np.array_equal(_materialize(a, 1), _materialize(c, 1))


def test_gaussian_rejects_bad_params():
    with pytest.raises(ValueError):
        GaussianWeightParams(mu=0.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        gen_dense_gaussian(0, GaussianWeightParams(1.0, 1.0), 1, 0)


def test_gaussian_round_range():
    ws = gen_dense_gaussian(5, GaussianWeightParams(1.0, 1.0, 0.5, 0.5), n_rounds=2, seed=0)
    with pytest.raises(IndexError):
        ws.apply(np.ones(5), 3)


def test_clustered_hand_values():
    # Four units in two blocks: {0, 1} and {2, 3}.
    ws = gen_clustered(4, 2, w_in=1.0, w_out=0.0)
    dense = _materialize(ws, 1)
    assert dense[0, 1] == 0.25
    assert dense[0, 2] == 0.0


def test_clustered_uniform_when_in_equals_out():
    ws = gen_clustered(6, 3, w_in=0.7, w_out=0.7)
    dense = _materialize(ws, t=1)
    assert np.allclose(dense, 0.7 / 6, atol=0, rtol=0)


def test_clustered_single_cluster():
    ws = gen_clustered(5, 1, w_in=2.0, w_out=-1.0)
    dense = _materialize(ws, t=1)
    assert np.allclose(dense, 2.0 / 5, atol=0, rtol=0)


def test_clustered_remainder_absorbed_by_last():
    ws = gen_clustered(7, 3, w_in=1.0, w_out=0.0)
    # blocks of size 2 with the final cluster absorbing the extra unit
    assert list(ws.membership) == [0, 0, 1, 1, 2, 2, 2]


def _segment_sum(values):
    """One contiguous run of values summed as the structured kinds sum it."""
    return np.add.reduceat(np.ascontiguousarray(values), [0])[0] if values.size else 0.0


def _structured_apply_reference(ws, gv):
    """A structured kind's exposures with each cluster's (the influencer
    set's) sum taken over that run of the column alone, gathered by a mask in
    unit order, and each column's total by ``np.add.reduce``."""
    g = gv[:, None] if gv.ndim == 1 else gv
    n = ws.n_units
    out = np.empty(g.shape)
    for j in range(g.shape[1]):
        column = np.ascontiguousarray(g[:, j])
        total = np.add.reduce(column)
        if isinstance(ws, ClusteredWeights):
            per_cluster = np.array([_segment_sum(column[ws.membership == c]) for c in range(ws.n_clusters)])
            out[:, j] = (ws.w_out / n) * total + ((ws.w_in - ws.w_out) / n) * per_cluster[ws.membership]
        else:
            m = len(ws.influencers)
            inf_total = _segment_sum(column[list(ws.influencers)])
            own = np.zeros(n)
            own[list(ws.influencers)] = column[list(ws.influencers)]
            out[:, j] = (ws.w_inf / m) * (inf_total - own) + (ws.w_base / n) * (total - inf_total + own)
    return out[:, 0] if gv.ndim == 1 else out


@pytest.mark.parametrize("s", [1, 3])
def test_structured_apply_sums_each_contiguous_run_alone(s):
    rng = np.random.default_rng(s)
    membership = np.sort(rng.choice([0, 2, 3], size=1000, p=[0.6, 0.3, 0.1]))  # uneven; cluster 1 is empty
    uneven = ClusteredWeights(n_units=1000, membership=membership, n_clusters=4, w_in=1.3, w_out=0.2)
    remainder = gen_clustered(1003, 7, w_in=0.9, w_out=-0.4)  # last cluster has 145 units, the others 143
    influencer = gen_influencer(1000, rng.choice(1000, size=40, replace=False), w_inf=0.9, w_base=0.35)
    for ws in (uneven, remainder, influencer):
        gv = rng.normal(size=(ws.n_units, s)) * 10.0 ** rng.integers(-8, 8, s)  # columns of unequal magnitude
        if s == 1:
            gv = gv[:, 0]
        assert np.array_equal(ws.apply(gv, 1), _structured_apply_reference(ws, gv))


class _ContiguousSums:
    """Stands in for numpy inside ``spillsim.weights``: ``add.reduce`` and
    ``add.reduceat`` check that they are handed a C-contiguous 1-d array,
    and count their calls; every other name is numpy's."""

    def __init__(self):
        self.calls = 0
        self.add = self

    def __getattr__(self, name):
        return getattr(np, name)

    def _check(self, a):
        assert isinstance(a, np.ndarray) and a.ndim == 1 and a.flags.c_contiguous, (a.shape, a.strides)
        self.calls += 1

    def reduce(self, a, *args, **kwargs):
        self._check(a)
        return np.add.reduce(a, *args, **kwargs)

    def reduceat(self, a, *args, **kwargs):
        self._check(a)
        return np.add.reduceat(a, *args, **kwargs)


def test_structured_sums_reduce_only_contiguous_columns(monkeypatch):
    # On numpy 2.4 a strided reduction gives the bits of a contiguous one, so
    # only this check pins the copy that keeps the sums layout-free on a numpy
    # that buffers strided reductions in chunks.
    rng = np.random.default_rng(11)
    sets = (gen_clustered(300, 4, 1.3, 0.2), gen_influencer(300, (3, 40, 299), 0.9, 0.35))
    g = rng.normal(size=(300, 3))
    stacks = (g, np.asfortranarray(g), g[::-1, ::-1])
    want = [[ws.apply(stack, 1) for stack in stacks] for ws in sets]
    proxy = _ContiguousSums()
    monkeypatch.setattr("spillsim.weights.np", proxy)
    for ws, outs in zip(sets, want):
        for stack, out in zip(stacks, outs):
            before = proxy.calls
            assert np.array_equal(ws.apply(stack, 1), out)
            assert proxy.calls - before == 2 * stack.shape[1]


@st.composite
def _structured_weights(draw):
    n = draw(st.integers(2, 400))
    if draw(st.booleans()):
        return gen_clustered(n, draw(st.integers(1, min(n, 5))), w_in=1.3, w_out=-0.4)
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n - 1, 12), unique=True))
    return gen_influencer(n, ids, w_inf=0.9, w_base=0.35)


@settings(max_examples=60, deadline=None)
@given(ws=_structured_weights(), width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_structured_apply_columns_do_not_depend_on_width_or_layout(ws, width, seed):
    # Each sum reduces one contiguous run of a column's values: a column's
    # exposures are the same bits alone, in any stack and in either memory
    # layout.
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(ws.n_units, width)) * 10.0 ** rng.integers(-8, 8, width)
    stacked = ws.apply(g, 1).view(np.uint64)
    fortran = ws.apply(np.asfortranarray(g), 1).view(np.uint64)
    for j in range(width):
        alone = ws.apply(g[:, j].copy(), 1).view(np.uint64)
        assert np.array_equal(stacked[:, j], alone)
        assert np.array_equal(fortran[:, j], alone)


def test_clustered_rejects_bad_counts():
    with pytest.raises(ValueError):
        gen_clustered(3, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gen_clustered(3, 4, 1.0, 0.0)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"membership": np.zeros(4, dtype=int)}, "membership must assign one cluster per unit"),
        ({"membership": np.array([-1, 0, 1])}, r"cluster ids must lie in 0\.\.2"),
        ({"membership": np.array([0, 1, 3])}, r"cluster ids must lie in 0\.\.2"),
        ({"w_in": np.nan}, "cluster weights must be finite"),
        ({"w_out": np.inf}, "cluster weights must be finite"),
    ],
)
def test_clustered_names_a_malformed_membership_or_weight(change, message):
    args = {"n_units": 3, "membership": np.array([0, 1, 2]), "n_clusters": 3, "w_in": 1.0, "w_out": 0.0, **change}
    with pytest.raises(ValueError, match=rf"^{message}$"):
        ClusteredWeights(**args)


@pytest.mark.parametrize(
    "membership, message",
    [
        ([0, 1, 0], "unit 2 is in cluster 0, after unit 1 in cluster 1"),
        ([2, 2, 0, 1], "unit 2 is in cluster 0, after unit 1 in cluster 2"),
    ],
)
def test_clustered_refuses_units_out_of_cluster_order(membership, message):
    # Each cluster is one segment of units; ``gen_clustered`` builds them so.
    with pytest.raises(ValueError, match=rf"^membership must be in cluster order: {message}$"):
        ClusteredWeights(n_units=len(membership), membership=np.array(membership), n_clusters=3, w_in=1.0, w_out=0.0)


def test_influencer_hand_values():
    ws = gen_influencer(3, influencers=[0], w_inf=1.0, w_base=0.0)
    dense = _materialize(ws, 1)
    assert dense[1, 0] == 1.0
    assert dense[1, 2] == 0.0
    # the influencer's own column contributes only the base rate to itself
    assert dense[0, 0] == 0.0


def test_influencer_all_but_one():
    n = 5
    ws = gen_influencer(n, influencers=list(range(n - 1)), w_inf=1.0, w_base=0.0)
    dense = _materialize(ws, 1)
    for i in range(n):
        for j in range(n - 1):
            if i != j:
                assert dense[i, j] == pytest.approx(1.0 / (n - 1))


def test_influencer_zero_boost_matches_uniform_base_off_columns():
    ws = gen_influencer(6, influencers=[2, 4], w_inf=0.0, w_base=1.2)
    dense = _materialize(ws, t=1)
    for i in range(6):
        for j in range(6):
            if j in (2, 4) and j != i:
                assert dense[i, j] == 0.0
            else:
                assert dense[i, j] == 1.2 / 6


def test_influencer_rejects_bad_ids():
    with pytest.raises(ValueError):
        gen_influencer(3, [], 1.0, 0.0)
    with pytest.raises(ValueError):
        gen_influencer(3, [3], 1.0, 0.0)
    with pytest.raises(ValueError):
        gen_influencer(3, [0, 1, 2], 1.0, 0.0)


def test_explicit_dense_readback():
    ws = ExplicitDenseWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert ws.apply(np.array([0.0, 1.0]), 1)[0] == 1.0  # column 1, row 0
    assert ws.apply(np.array([1.0, 0.0]), 7)[0] == 0.0  # any round


def test_all_zero_weights_zero_exposure():
    ws = ExplicitDenseWeights(np.zeros((3, 3)))
    assert np.array_equal(ws.apply(np.ones(3), 1), np.zeros(3))


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.ones((2, 3)), "explicit weights must be a square matrix"),
        (np.ones(4), "explicit weights must be a square matrix"),
        (np.ones((0, 0)), "explicit weights must be a square matrix"),
        (np.array([[0.0, np.nan], [1.0, 0.0]]), "explicit weights must all be finite"),
    ],
)
def test_explicit_dense_names_a_matrix_it_cannot_use(matrix, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        ExplicitDenseWeights(matrix)


def test_explicit_dense_keeps_a_read_only_copy_of_its_matrix():
    # Writing to the caller's array afterwards changes no exposure.
    source = np.array([[0.0, 1.0], [2.0, 0.0]])
    ws = ExplicitDenseWeights(source)
    source[0, 1] = 5.0
    assert np.array_equal(ws.apply(np.array([1.0, 1.0]), 1), [1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        ws.matrix[0, 0] = 1.0


def _materialize(ws, t):
    """Round t's n x n matrix, built from the kind's parameters and never by
    ``apply``: the reference ``apply`` is checked against."""
    n = ws.n_units
    if isinstance(ws, ClusteredWeights):
        same = ws.membership[:, None] == ws.membership[None, :]
        return np.where(same, ws.w_in, ws.w_out) / n
    if isinstance(ws, InfluencerWeights):
        dense = np.full((n, n), ws.w_base / n)
        for j in ws.influencers:
            dense[:, j] = ws.w_inf / len(ws.influencers)
            dense[j, j] = ws.w_base / n
        return dense
    if isinstance(ws, DenseGaussianWeights):
        # The static matrix plus round t's delta, redrawn from its substream.
        p = ws.params
        assert 1 <= t <= ws.n_rounds
        if p.mu_t == 0.0 and p.sigma2_t == 0.0:
            return ws.static.copy()
        rng = substream(ws.seed, "weights", "delta", t)
        return ws.static + rng.normal(p.mu_t / n, np.sqrt(p.sigma2_t / n), size=(n, n))
    return ws.matrix.copy()


@pytest.mark.parametrize(
    "ws",
    [
        gen_clustered(11, 3, w_in=1.3, w_out=-0.2),
        gen_clustered(50, 7, w_in=0.8, w_out=0.1),
        gen_influencer(13, [1, 5, 6], w_inf=0.9, w_base=0.4),
        gen_influencer(50, [0, 24, 49], w_inf=1.1, w_base=-0.3),
        gen_dense_gaussian(9, GaussianWeightParams(1.0, 0.5, 0.2, 0.1), n_rounds=2, seed=21),
        gen_dense_gaussian(50, GaussianWeightParams(0.7, 1.0, 0.1, 0.4), n_rounds=2, seed=22),
        # Clusters 0, 3 and 5 are empty: the first, one between and the last.
        ClusteredWeights(9, np.array([1, 1, 1, 2, 2, 4, 4, 4, 4]), n_clusters=6, w_in=1.3, w_out=-0.2),
    ],
)
def test_apply_agrees_with_materialized_matrix(ws):
    # brute-force equivalence of the lazy row sums with an explicit matrix
    rng = np.random.default_rng(5)
    for t in (1, 2):
        dense = _materialize(ws, t)
        gv = rng.normal(size=ws.n_units)
        assert np.allclose(ws.apply(gv, t), dense @ gv, rtol=1e-12, atol=1e-12)
        stacked = rng.normal(size=(ws.n_units, 3))
        assert np.allclose(ws.apply(stacked, t), dense @ stacked, rtol=1e-12, atol=1e-12)


def test_descriptor_records_the_kind_and_its_parameters(tmp_path):
    params = GaussianWeightParams(1.0, 1.0, 0.0, 0.5)
    gaussian = {"kind": "dense_gaussian", "n_units": 8, "n_rounds": 2, "mu": 1.0, "sigma2": 1.0, "mu_t": 0.0,
                "sigma2_t": 0.5, "seed": 4}
    # Both Gaussian engines share one schema.
    assert gen_dense_gaussian(8, params, n_rounds=2, seed=4).to_descriptor() == gaussian
    assert LazyGaussianWeights(8, params, n_rounds=2, seed=4).to_descriptor() == gaussian
    assert gen_clustered(8, 2, 1.0, 0.1).to_descriptor() == {
        "kind": "clustered", "n_units": 8, "n_clusters": 2, "w_in": 1.0, "w_out": 0.1
    }
    assert gen_influencer(8, [7, 0], 1.0, 0.2).to_descriptor() == {
        "kind": "influencer", "n_units": 8, "influencers": (0, 7), "w_inf": 1.0, "w_base": 0.2
    }
    # A matrix built in code is the engine of no kind, so it has no descriptor.
    with pytest.raises(ValueError, match="^ExplicitDenseWeights is not the engine of any weight kind$"):
        ExplicitDenseWeights(np.eye(3)).to_descriptor()


# One weight set of every kind over n = 7 units; a lazy engine gives a column
# it has seen before that column's first bits, so each test builds its own.
_EVERY_KIND = {
    "clustered": lambda: gen_clustered(7, 2, w_in=1.3, w_out=-0.2),
    "influencer": lambda: gen_influencer(7, [1, 5], w_inf=0.9, w_base=0.4),
    "lazy_gaussian": lambda: LazyGaussianWeights(7, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=2, seed=3),
    "dense_gaussian": lambda: gen_dense_gaussian(7, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=2, seed=3),
    "explicit": lambda: ExplicitDenseWeights(np.random.default_rng(3).normal(size=(7, 7))),
}


@pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
@pytest.mark.parametrize(
    "shape", [(9, 2), (9,), (5, 3), (7, 2, 1), ()], ids=["longer", "longer_column", "shorter", "three_axes", "scalar"]
)
def test_every_kind_refuses_signals_of_another_population_by_shape(kind, shape):
    with pytest.raises(ValueError, match=rf"^signals of shape {re.escape(str(shape))} do not match 7 units$"):
        _EVERY_KIND[kind]().apply(np.ones(shape), 1)


@pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
def test_a_column_gives_the_bits_of_its_one_column_stack(kind):
    g = np.random.default_rng(8).normal(size=7)
    column, stack = _EVERY_KIND[kind]().apply(g, 1), _EVERY_KIND[kind]().apply(g[:, None], 1)
    assert column.shape == (7,) and stack.shape == (7, 1)
    assert np.array_equal(column.view(np.uint64), stack[:, 0].view(np.uint64))


def _apply_peak(ws, g):
    """The traced peak of one ``ws.apply(g, 1)`` above what was live before,
    after a first call, and the result."""
    ws.apply(g, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = ws.apply(g, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, out


@pytest.mark.parametrize("structured", ["clustered", "influencer"])
def test_a_structured_column_costs_the_one_row_it_returns(structured):
    # One column's exposures are written straight into the row returned: a
    # cluster's table row repeated over its segment, or the background row
    # over every unit with the influencers' rows written after, so no array
    # of N row indices is read or copied.
    n = 200_000
    ws = {"clustered": gen_clustered(n, 3, w_in=1.3, w_out=-0.2),
          "influencer": gen_influencer(n, [1, 5, 70_000], w_inf=0.9, w_base=0.4)}[structured]
    peak, out = _apply_peak(ws, np.random.default_rng(4).normal(size=n))
    assert out.shape == (n,)
    assert peak <= out.nbytes + (64 << 10), f"{peak / n:.1f} B/unit"


@pytest.mark.parametrize("engine", [LazyGaussianWeights, DenseGaussianWeights])
def test_both_gaussian_engines_check_the_population_alike(engine):
    params = GaussianWeightParams(1.0, 1.0)
    with pytest.raises(ValueError, match="^population size must be at least 1$"):
        engine(n_units=0, params=params, n_rounds=2, seed=0)
    with pytest.raises(ValueError, match="^need at least one round$"):
        engine(n_units=3, params=params, n_rounds=0, seed=0)
    with pytest.raises(TypeError):  # both draw their static part themselves
        engine(n_units=3, params=params, n_rounds=2, seed=0, static=None)


def test_dense_kinds_name_the_allocation_they_cannot_make():
    # N = 10^7 would need 8e14 bytes; each check fires before any allocation.
    n = 10**7
    pattern = rf"N={n} needs .* {8 * n * n} bytes, more than the \d+ bytes of physical memory"
    with pytest.raises(MemoryError, match=pattern):
        gen_dense_gaussian(n, GaussianWeightParams(1.0, 1.0), 1, 0)
    with pytest.raises(MemoryError, match=pattern):
        ExplicitDenseWeights(np.broadcast_to(0.0, (n, n)))


# --- lazy Gaussian engine ----------------------------------------------------


def _adaptive_two_rounds(ws, g1):
    """Round-1 exposures, then round-2 exposures of signals that depend on
    them, as in a simulation."""
    e1 = ws.apply(g1, 1)
    e2 = ws.apply(np.tanh(e1) + 0.5 * g1, 2)
    return e1, e2


def test_lazy_gaussian_matches_oracle_moments():
    # Per unit and scenario: means and standard deviations of both rounds'
    # exposures and their round-1/round-2 covariance, over independent draws
    # of the lazy engine and of the materialized oracle. Each difference is a
    # two-sample z statistic from the empirical moments.
    n, draws, z_bound = 4, 4000, 4.0
    params = GaussianWeightParams(1.0, 1.0, 0.3, 0.5)
    g1 = np.column_stack([np.linspace(-1.0, 2.0, n), np.ones(n)])

    def sample(make):
        e = np.array([np.stack(_adaptive_two_rounds(make(seed), g1)) for seed in range(draws)])
        return e[:, 0], e[:, 1]  # (draws, n, s) each

    lazy = sample(lambda seed: LazyGaussianWeights(n, params, 2, seed))
    # Disjoint seeds: both engines draw from the same substream names.
    oracle = sample(lambda seed: gen_dense_gaussian(n, params, 2, 10**6 + seed))

    def stats(e1, e2):
        c1, c2 = e1 - e1.mean(axis=0), e2 - e2.mean(axis=0)
        per_draw = {"mean1": e1, "mean2": e2, "var1": c1**2, "var2": c2**2, "cov12": c1 * c2}
        return {k: (v.mean(axis=0), v.var(axis=0) / draws) for k, v in per_draw.items()}

    a, b = stats(*lazy), stats(*oracle)
    worst = max(float(np.max(np.abs(a[k][0] - b[k][0]) / np.sqrt(a[k][1] + b[k][1]))) for k in a)
    assert worst < z_bound, f"largest |z| {worst:.2f}"


def test_conditioned_gaussian_keeps_the_conditioning_identities():
    # Exactly what the moment test checks only statistically: a column in the
    # span of the columns seen adds no row and gets the same combination of
    # their images; the basis rows are orthonormal; and each new row's image
    # is the next standard normal draw of the engine's stream.
    n, a, b = 500, 0.75, -2.5
    rng = np.random.default_rng(7)
    engine = _ConditionedGaussian(np.random.default_rng(8), n)

    def image(g):
        out = np.zeros((n, 1))
        engine.add_images(out, g[:, None], [0], [hash(g.tobytes())], 1.0)
        return out[:, 0]

    g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
    img1, img2 = image(g1), image(g2)
    assert len(engine.basis) == 2
    img3, want = image(a * g1 + b * g2), a * img1 + b * img2
    assert len(engine.basis) == 2
    assert np.linalg.norm(img3 - want) <= 1e-12 * np.linalg.norm(want)
    for _ in range(6):
        image(rng.standard_normal(n) * 10.0 ** rng.integers(-4, 4))
    q = engine.basis
    assert q.shape == (8, n)
    assert np.abs(q @ q.T - np.eye(8)).max() <= 1e-12
    fresh = np.random.default_rng(8)
    assert np.array_equal(engine.images, np.stack([fresh.standard_normal(n) for _ in range(8)]))


def test_conditioned_gaussian_grows_its_rows_by_a_quarter_and_keeps_the_bits():
    # A heap realloc may copy, so the basis and images grow by a quarter
    # when full, not by each call's columns. The spare rows change no bit:
    # one column a call gives the images of all the columns in one call.
    n, calls = 300, 60
    g = np.random.default_rng(5).standard_normal((n, calls))
    one_by_one, together = (_ConditionedGaussian(np.random.default_rng(6), n) for _ in range(2))
    out, rows = np.zeros((n, calls)), []
    for j in range(calls):
        one_by_one.add_images(out, g, [j], [j], 1.0)
        rows.append(len(one_by_one._q))
        assert 0 <= rows[-1] - one_by_one.k < 0.25 * one_by_one.k + 1.25
    assert len(set(rows)) <= 20
    everything = np.zeros((n, calls))
    together.add_images(everything, g, range(calls), range(calls), 1.0)
    assert np.array_equal(out.view(np.uint64), everything.view(np.uint64))
    for got, want in ((one_by_one.basis, together.basis), (one_by_one.images, together.images)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_conditioned_gaussian_projects_a_colliding_key_afresh():
    # A key names a column by a 64-bit hash. A hit is taken only if the
    # column is its cached coefficients times the basis, so a key sent again
    # with another column gets that column's image, not the cached one.
    n = 200
    rng = np.random.default_rng(3)
    engine = _ConditionedGaussian(np.random.default_rng(4), n)
    g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
    out = np.zeros((n, 3))
    engine.add_images(out, np.column_stack([g1, g2, g1]), [0, 1, 2], ["g1", "same", "same"], 1.0)
    assert len(engine.basis) == 2
    assert np.linalg.norm(out[:, 2] - out[:, 0]) <= 1e-12 * np.linalg.norm(out[:, 0])
    again = np.zeros((n, 1))
    engine.add_images(again, g2[:, None], [0], ["same"], 1.0)  # the key holds g1's coefficients now
    assert np.linalg.norm(again[:, 0] - out[:, 1]) <= 1e-12 * np.linalg.norm(out[:, 1])
    assert len(engine.basis) == 2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    t_max=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    mu_t=st.sampled_from([0.0, 0.4]),
    sigma2_t=st.sampled_from([0.0, 0.7]),
    data=st.data(),
)
def test_lazy_suite_is_order_invariant_and_bit_identical_for_equal_scenarios(n, t_max, seed, mu_t, sigma2_t, data):
    # Peer signal = treatment, so an all-control round emits a zero column.
    spec = DynamicsSpec(
        unit=LinearUnit(w_coef=1.0, y_coef=0.7), peer=LinearPeer(w_coef=1.0, y_coef=0.0), exposure=WeightedSumExposure()
    )
    bits = st.lists(st.sampled_from([0.0, 1.0]), min_size=n * t_max, max_size=n * t_max)
    distinct = [TreatmentPanel(np.zeros((n, t_max)))] + [
        TreatmentPanel(np.array(b).reshape(n, t_max)) for b in data.draw(st.lists(bits, min_size=1, max_size=2))
    ]
    scenarios = distinct + [distinct[0], distinct[-1]]  # duplicates
    order = data.draw(st.permutations(range(len(scenarios))))
    params = GaussianWeightParams(1.0, 1.0, mu_t, sigma2_t)
    x = round_index_covariates(n, t_max)
    y0 = np.linspace(-1.0, 1.0, n)

    def suite(scns):
        return counterfactual_suite(spec, LazyGaussianWeights(n, params, t_max, seed), scns, x, y0, seed)

    panels = suite(scenarios)
    shuffled = suite([scenarios[i] for i in order])
    for pos, i in enumerate(order):
        assert np.array_equal(shuffled[pos].values, panels[i].values)
    assert np.array_equal(panels[-2].values, panels[0].values)
    assert np.array_equal(panels[-1].values, panels[len(distinct) - 1].values)


def test_lazy_gaussian_gives_a_revisited_column_its_first_bits():
    # One set is a fixed network that later passes revisit, in any round
    # order and beside new columns: a column sent again at a round it was
    # sent at gets its first exposures' bits, static part and delta alike.
    n = 50
    ws = LazyGaussianWeights(n, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=3, seed=0)
    rng = np.random.default_rng(1)
    signals = {t: rng.standard_normal((n, 2)) for t in (1, 2, 3)}
    first = {t: ws.apply(g, t) for t, g in signals.items()}
    new = rng.standard_normal(n)
    for t in (3, 1, 2):
        again = ws.apply(np.column_stack([signals[t][:, 1], new, signals[t][:, 0]]), t)
        assert np.array_equal(again[:, [2, 0]].view(np.uint64), first[t].view(np.uint64))
    assert np.array_equal(ws.apply(signals[2][:, 1], 2).view(np.uint64), first[2][:, 1].view(np.uint64))
    assert ws.static.k == 7 and [ws.deltas[t].k for t in (1, 2, 3)] == [3, 3, 3]
    for t in (0, 4):
        with pytest.raises(IndexError, match=f"round {t} outside 1..3"):
            ws.apply(np.ones(n), t)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 300), width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lazy_gaussian_bits_do_not_depend_on_input_layout(n, width, seed, data):
    # An F-ordered, a fancy-indexed and a reversed-stride stack give the bits
    # of the C-ordered copy of the same values.
    params = GaussianWeightParams(1.0, 1.0, 0.2, 0.5)
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=(n, width + 2)) * 10.0 ** rng.integers(-8, 8, width + 2)
    pick = data.draw(st.lists(st.integers(0, width + 1), min_size=width, max_size=width))
    stacks = [np.asfortranarray(wide[:, :width]), wide[:, pick], wide[:, width - 1 :: -1]]

    def two_rounds(g):
        ws = LazyGaussianWeights(n, params, n_rounds=2, seed=seed)
        first = ws.apply(g, 1)
        return first, ws.apply(g[::-1] if n > 1 else g, 2)

    for g in stacks:
        want = two_rounds(np.ascontiguousarray(g))
        for got, ref in zip(two_rounds(g), want):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("kind", ["explicit", "materialized_gaussian"])
def test_blas_kind_bits_do_not_depend_on_input_layout(kind):
    # The same F-ordered, fancy-indexed and reversed-stride stacks as for the
    # lazy engine; the BLAS kernels sum in a layout-dependent order unless
    # the input is made C-contiguous first.
    n, width = 500, 3
    rng = np.random.default_rng(21)
    if kind == "explicit":
        ws = ExplicitDenseWeights(rng.normal(0.0, 1.0 / n, (n, n)))
    else:
        ws = gen_dense_gaussian(n, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=2, seed=21)
    wide = rng.normal(size=(n, width + 2)) * 10.0 ** rng.integers(-8, 8, width + 2)
    stacks = [np.asfortranarray(wide[:, :width]), wide[:, [4, 0, 4]], wide[:, width - 1 :: -1]]
    for g in stacks:
        for t in (1, 2):
            want = ws.apply(np.ascontiguousarray(g), t)
            assert np.array_equal(ws.apply(g, t).view(np.uint64), want.view(np.uint64)), t


def test_lazy_gaussian_degenerate_variance_is_the_mean_field():
    ws = LazyGaussianWeights(4, GaussianWeightParams(2.0, 0.0, 1.0, 0.0), n_rounds=1, seed=3)
    g = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    assert np.allclose(ws.apply(g, 1), np.array([[7.5, 0.0]] * 4), rtol=0, atol=1e-12)


def test_lazy_gaussian_single_unit_is_one_scalar_weight():
    # n = 1: W is a scalar per round, so every image is linear in its signal.
    ws = LazyGaussianWeights(1, GaussianWeightParams(1.0, 1.0, 0.4, 0.7), n_rounds=2, seed=5)
    first = ws.apply(np.array([[2.0, 0.0, 2.0, -1.0]]), 1)[0]
    assert first[0] == first[2] and first[1] == 0.0
    assert first[3] == pytest.approx(-0.5 * first[0], rel=1e-12)
    assert len(ws.static.basis) == 1


def test_lazy_gaussian_runs_under_a_profiler():
    # A profiler holds the bound methods it reports on, so a reference check
    # on growing the engine's arrays would refuse every traced run.
    ws = LazyGaussianWeights(50, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=2, seed=3)
    rng = np.random.default_rng(3)
    profiler = cProfile.Profile()
    for t in (1, 2):
        profiler.runcall(ws.apply, rng.standard_normal((50, 2)), t)
    assert len(ws.static.basis) == 4


def test_lazy_gaussian_apply_memory_is_linear_in_n():
    # The static basis and images hold 2 * 8 * N * k_static bytes and round
    # t's delta 2 * 8 * N * k_delta,t, for as long as the set lives; the
    # exposures out and an apply's temporaries take 2 * 8 * N * s. What the
    # set and its applies ever hold beyond the signals in may not exceed the
    # sum. Column bytes kept as cache keys would add 8 * N * s per round.
    n, s = 200_000, 3
    ws = LazyGaussianWeights(n, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=2, seed=1)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for t in (1, 2):
            g = rng.standard_normal((n, s))
            tracemalloc.reset_peak()
            out = ws.apply(g, t)
            peak = tracemalloc.get_traced_memory()[1] - start - g.nbytes
            k = ws.static.k + sum(delta.k for delta in ws.deltas.values())
            assert out.shape == (n, s) and ws.static.k == s * t and k == 2 * s * t
            assert peak <= 2 * 8 * n * (k + s), f"round {t}: {peak / n:.1f} B/unit for k={k}"
            del out, g
    finally:
        tracemalloc.stop()
