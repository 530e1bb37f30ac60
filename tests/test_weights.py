import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillsim.dynamics import DynamicsSpec, LinearPeer, LinearUnit, WeightedSumExposure, counterfactual_suite
from spillsim.panel import TreatmentPanel, round_index_covariates
from spillsim.weights import (
    ClusteredWeights,
    ExplicitDenseWeights,
    GaussianWeightParams,
    LazyGaussianWeights,
    gen_clustered,
    gen_dense_gaussian,
    gen_influencer,
    read_explicit_csv,
    weights_from_descriptor,
    write_explicit_csv,
)


def test_degenerate_gaussian_is_constant():
    params = GaussianWeightParams(mu=2.0, sigma2=0.0, mu_t=1.0, sigma2_t=0.0)
    ws = gen_dense_gaussian(4, params, n_rounds=2, seed=3)
    dense = ws.dense(1)
    assert np.allclose(dense, 2.0 / 4 + 1.0 / 4, atol=0, rtol=0)
    assert ws.effective_weight(0, 3, 2) == pytest.approx(0.75)


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
        assert np.array_equal(a.dense(t), b.dense(t))
    c = gen_dense_gaussian(50, params, n_rounds=3, seed=10)
    assert not np.array_equal(a.dense(1), c.dense(1))


def test_gaussian_rejects_bad_params():
    with pytest.raises(ValueError):
        GaussianWeightParams(mu=0.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        gen_dense_gaussian(0, GaussianWeightParams(1.0, 1.0), 1, 0)


def test_gaussian_round_range():
    ws = gen_dense_gaussian(5, GaussianWeightParams(1.0, 1.0, 0.5, 0.5), n_rounds=2, seed=0)
    with pytest.raises(IndexError):
        ws.effective_weight(0, 0, 3)


def test_clustered_hand_values():
    # Four units in two blocks: {0, 1} and {2, 3}.
    ws = gen_clustered(4, 2, w_in=1.0, w_out=0.0)
    assert ws.effective_weight(0, 1, 1) == 0.25
    assert ws.effective_weight(0, 2, 1) == 0.0


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


def _clustered_apply_reference(ws, gv):
    """ClusteredWeights.apply with the per-cluster sums and the total taken by
    np.add.at, which adds in unit order."""
    g = gv[:, None] if gv.ndim == 1 else gv
    per_cluster = np.zeros((ws.n_clusters, g.shape[1]))
    np.add.at(per_cluster, ws.membership, g)
    total = np.zeros((1, g.shape[1]))
    np.add.at(total, np.zeros(ws.n_units, dtype=np.intp), g)
    n = ws.n_units
    out = (ws.w_out / n) * total + ((ws.w_in - ws.w_out) / n) * per_cluster[ws.membership]
    return out[:, 0] if gv.ndim == 1 else out


@pytest.mark.parametrize("s", [1, 3])
def test_clustered_apply_matches_add_at_bit_for_bit(s):
    rng = np.random.default_rng(s)
    membership = rng.choice(4, size=1000, p=[0.6, 0.25, 0.1, 0.05])
    uneven = ClusteredWeights(n_units=1000, membership=membership, n_clusters=4, w_in=1.3, w_out=0.2)
    remainder = gen_clustered(1003, 7, w_in=0.9, w_out=-0.4)  # last cluster has 145 units, the others 143
    for ws in (uneven, remainder):
        gv = rng.normal(size=(ws.n_units, s)) * 10.0 ** rng.integers(-8, 8, s)  # columns of unequal magnitude
        if s == 1:
            gv = gv[:, 0]
        assert np.array_equal(ws.apply(gv, 1), _clustered_apply_reference(ws, gv))


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
    # Unit-order sums: a column's exposures are the same bits alone, in any
    # stack and in either memory layout.
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


def test_influencer_hand_values():
    ws = gen_influencer(3, influencers=[0], w_inf=1.0, w_base=0.0)
    assert ws.effective_weight(1, 0, 1) == 1.0
    assert ws.effective_weight(1, 2, 1) == 0.0
    # the influencer's own column contributes only the base rate to itself
    assert ws.effective_weight(0, 0, 1) == 0.0


def test_influencer_all_but_one():
    n = 5
    ws = gen_influencer(n, influencers=list(range(n - 1)), w_inf=1.0, w_base=0.0)
    for i in range(n):
        for j in range(n - 1):
            if i != j:
                assert ws.effective_weight(i, j, 1) == pytest.approx(1.0 / (n - 1))


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
    assert ws.effective_weight(0, 1, 1) == 1.0
    assert ws.effective_weight(0, 0, 7) == 0.0


def test_all_zero_weights_zero_exposure():
    ws = ExplicitDenseWeights(np.zeros((3, 3)))
    assert np.array_equal(ws.apply(np.ones(3), 1), np.zeros(3))


def _materialize(ws, t):
    n = ws.n_units
    return np.array([[ws.effective_weight(i, j, t) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "ws",
    [
        gen_clustered(11, 3, w_in=1.3, w_out=-0.2),
        gen_clustered(50, 7, w_in=0.8, w_out=0.1),
        gen_influencer(13, [1, 5, 6], w_inf=0.9, w_base=0.4),
        gen_influencer(50, [0, 24, 49], w_inf=1.1, w_base=-0.3),
        gen_dense_gaussian(9, GaussianWeightParams(1.0, 0.5, 0.2, 0.1), n_rounds=2, seed=21),
        gen_dense_gaussian(50, GaussianWeightParams(0.7, 1.0, 0.1, 0.4), n_rounds=2, seed=22),
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


def test_descriptor_roundtrip():
    for ws in (
        gen_clustered(8, 2, 1.0, 0.1),
        gen_influencer(8, [0, 7], 1.0, 0.2),
        gen_dense_gaussian(8, GaussianWeightParams(1.0, 1.0, 0.0, 0.5), n_rounds=2, seed=4),
    ):
        again = weights_from_descriptor(ws.to_descriptor())
        assert _materialize(again, 1).tolist() == _materialize(ws, 1).tolist()


def test_explicit_csv_roundtrip(tmp_path):
    ws = ExplicitDenseWeights(np.array([[0.5, -1.0], [2.0, 0.0]]))
    path = tmp_path / "weights.csv"
    write_explicit_csv(path, ws)
    again = read_explicit_csv(path)
    assert np.array_equal(again.matrix, ws.matrix)


def test_explicit_csv_rejects_negative_ids(tmp_path):
    # These rows once loaded as a 2x2 matrix with (-1, 1) written into (1, 1).
    path = tmp_path / "neg.csv"
    path.write_text("i,j,weight\n0,0,1.0\n0,1,2.0\n1,0,3.0\n-1,1,4.0\n")
    with pytest.raises(ValueError, match=r"neg\.csv:5: i -1 is out of range \(first i is 0\)"):
        read_explicit_csv(path)


def test_explicit_csv_names_duplicate_and_missing_pairs(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("i,j,weight\n0,0,1.0\n0,1,2.0\n1,0,3.0\n0,1,4.0\n")
    with pytest.raises(ValueError, match=r"dup\.csv:5: duplicate \(i, j\) key \(0, 1\), first at line 3"):
        read_explicit_csv(path)
    path = tmp_path / "wide.csv"
    path.write_text("i,j,weight\n" + "".join(f"{i},{j},1.0\n" for i in range(2) for j in range(3)))
    with pytest.raises(ValueError, match=r"wide\.csv: no row for i 2, j 0"):
        read_explicit_csv(path)


def test_out_of_range_lookup():
    ws = gen_clustered(4, 2, 1.0, 0.0)
    with pytest.raises(IndexError):
        ws.effective_weight(4, 0, 1)
    with pytest.raises(IndexError):
        ws.effective_weight(0, -1, 1)


def test_dense_kinds_name_the_allocation_they_cannot_make(tmp_path):
    # N = 10^7 would need 8e14 bytes; each check fires before any allocation.
    n = 10**7
    pattern = rf"N={n} needs .* {8 * n * n} bytes, more than the \d+ bytes of physical memory"
    with pytest.raises(MemoryError, match=pattern):
        gen_dense_gaussian(n, GaussianWeightParams(1.0, 1.0), 1, 0)
    with pytest.raises(MemoryError, match=pattern):
        ExplicitDenseWeights(np.broadcast_to(0.0, (n, n)))
    path = tmp_path / "huge.csv"
    path.write_text(f"i,j,weight\n0,{n - 1},1.0\n")
    with pytest.raises(MemoryError, match=pattern):
        read_explicit_csv(path)


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


def test_lazy_gaussian_serves_one_forward_pass():
    ws = LazyGaussianWeights(5, GaussianWeightParams(1.0, 1.0), n_rounds=3, seed=0)
    ws.apply(np.ones(5), 1)
    with pytest.raises(ValueError, match="round 1 requested after round 1"):
        ws.apply(np.ones(5), 1)
    ws.apply(np.ones(5), 3)
    with pytest.raises(ValueError, match="round 2 requested after round 3"):
        ws.apply(np.ones(5), 2)
    with pytest.raises(IndexError, match="round 4"):
        ws.apply(np.ones(5), 4)
    with pytest.raises(NotImplementedError, match="gen_dense_gaussian"):
        ws.effective_weight(0, 1, 1)
    with pytest.raises(NotImplementedError, match="gen_dense_gaussian"):
        ws.dense(1)


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


def test_lazy_gaussian_apply_memory_is_linear_in_n():
    # Basis and images hold 2 * 8 * N * k bytes; signals in and exposures out
    # take 2 * 8 * N * s. The peak an apply allocates may not exceed their sum.
    n, s = 200_000, 3
    ws = LazyGaussianWeights(n, GaussianWeightParams(1.0, 1.0, 0.2, 0.5), n_rounds=2, seed=1)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        for t in (1, 2):
            g = rng.standard_normal((n, s))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = ws.apply(g, t)
            peak = tracemalloc.get_traced_memory()[1] - before
            k = len(ws.static.basis)
            assert out.shape == (n, s) and k == s * t
            assert peak <= 2 * 8 * n * (k + s), f"round {t}: {peak} bytes for k={k}"
            del out
    finally:
        tracemalloc.stop()
