import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillsim.estimators import (
    RANK_RTOL,
    TSQR_CHUNK_LEAVES,
    TSQR_LEAF_ROWS,
    Feature,
    FeatureSpec,
    ScenarioPath,
    StructureMetadata,
    basic_feature_spec,
    _BASES,
    _feature_terms,
    _round_factors,
    cluster_feature_spec,
    dm_estimate,
    fit_ese,
    ht_estimate,
    influencer_feature_spec,
    propagate,
    tte_from_coeffs,
)
from spillsim.panel import OutcomePanel, TreatmentPanel, column_mean


def design_matrix(spec, w, y, structure=None):
    """One regression row per (unit, round) for rounds 1..T and the round-t
    outcomes as the target: the N·T-row problem ``fit_ese`` solves from
    per-round factors without building it, and the reference it is tested
    against."""
    terms = _feature_terms(spec, w, y, structure)
    n = w.n_units
    x = np.empty((n * w.n_rounds, len(terms)))
    for t in range(1, w.n_rounds + 1):
        w_t, y_prev = w.column(t), y.column(t - 1)
        for f, (base, scale, arg) in enumerate(terms):
            x[(t - 1) * n : t * n, f] = scale(w_t, y_prev, arg) * _BASES[base](w_t, y_prev)
    return x, np.concatenate([y.column(t) for t in range(1, w.n_rounds + 1)])


# --- difference in means ------------------------------------------------------

DM_FIXTURES = [
    ([2.0, 4.0, 6.0], [1, 0, 1], 0.0),
    ([5.0, 5.0], [1, 0], 0.0),
    ([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1], 2.0),
    ([-1.0, 1.0, 3.0], [0, 1, 0], 0.0),
    ([2.0, 8.0], [0, 1], 6.0),
    ([10.0, 0.0, 2.0, 4.0], [1, 0, 0, 0], 8.0),
]


@pytest.mark.parametrize("y,w,expected", DM_FIXTURES)
def test_dm_hand_values(y, w, expected):
    assert dm_estimate(np.array(y), np.array(w, dtype=float)) == expected


def test_dm_degenerate_columns_yield_no_estimate():
    assert dm_estimate(np.array([1.0, 0.0]), np.array([1.0, 1.0])) is None
    assert dm_estimate(np.array([1.0, 0.0]), np.array([0.0, 0.0])) is None
    assert dm_estimate(np.array([10.0]), np.array([1.0])) is None


# --- inverse probability weighting ---------------------------------------------

HT_FIXTURES = [
    ([2.0, 4.0], [1, 0], 0.5, -2.0),
    ([0.0, 0.0, 0.0], [1, 0, 1], 0.3, 0.0),
    ([1.0, 1.0, 1.0, 1.0], [1, 1, 0, 0], 0.5, 0.0),
    ([3.0], [1], 0.25, 12.0),
    ([3.0], [0], 0.25, -4.0),
    ([1.0, 2.0, 3.0], [1, 0, 1], 0.5, 4.0 / 3.0),
]


@pytest.mark.parametrize("y,w,pi,expected", HT_FIXTURES)
def test_ht_hand_values(y, w, pi, expected):
    got = ht_estimate(np.array(y), np.array(w, dtype=float), pi)
    assert abs(got - expected) <= 1e-12


def test_ht_rejects_degenerate_probability():
    with pytest.raises(ValueError):
        ht_estimate(np.array([1.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        ht_estimate(np.array([1.0]), np.array([1.0]), 1.0)


def test_ht_equals_dm_on_half_treated():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = 2 * int(rng.integers(1, 40))
        w = np.zeros(n)
        w[rng.permutation(n)[: n // 2]] = 1.0
        y = rng.normal(size=n)
        assert abs(ht_estimate(y, w, 0.5) - dm_estimate(y, w)) <= 1e-12


@given(st.data())
@settings(max_examples=60)
def test_dm_ht_permutation_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    y = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    perm = np.array(data.draw(st.permutations(range(n))))
    dm1, dm2 = dm_estimate(y, w), dm_estimate(y[perm], w[perm])
    if dm1 is None:
        assert dm2 is None
    else:
        assert dm1 == pytest.approx(dm2, abs=1e-9)
    assert ht_estimate(y, w, 0.3) == pytest.approx(ht_estimate(y[perm], w[perm], 0.3), abs=1e-9)


@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=8),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
@settings(max_examples=60)
def test_ht_linear_in_outcomes(y1, a, b):
    n = len(y1)
    rng = np.random.default_rng(7)
    y1 = np.array(y1)
    y2 = rng.normal(size=n)
    w = (rng.random(n) < 0.4).astype(float)
    lhs = ht_estimate(a * y1 + b * y2, w, 0.4)
    rhs = a * ht_estimate(y1, w, 0.4) + b * ht_estimate(y2, w, 0.4)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# --- pooled regression ----------------------------------------------------------


def _simulate_linear_panel(n=200, t_max=4, seed=0):
    # Direct loop generation, independent of the dynamics engine: outcomes
    # follow 1.0*w + 0.8*y_prev + 0.5*mean(w) + 0.2 with no noise.
    rng = np.random.default_rng(seed)
    probs = np.array([0.0, 0.2, 0.4, 0.8])[:t_max]
    w = (rng.random((n, t_max)) < probs[None, :]).astype(float)
    y = np.empty((n, t_max + 1))
    y[:, 0] = rng.normal(size=n)
    for t in range(1, t_max + 1):
        w_t = w[:, t - 1]
        y[:, t] = 1.0 * w_t + 0.8 * y[:, t - 1] + 0.5 * w_t.mean() + 0.2
    return TreatmentPanel(w), OutcomePanel(y)


def test_fit_recovers_exact_linear_model():
    w, y = _simulate_linear_panel()
    spec = FeatureSpec.parse(["own_treatment", "lagged_outcome", "treated_fraction", "intercept"])
    coeffs = fit_ese(y, w, spec)
    got = coeffs.by_name()
    assert got["own_treatment"] == pytest.approx(1.0, abs=1e-8)
    assert got["lagged_outcome"] == pytest.approx(0.8, abs=1e-8)
    assert got["treated_fraction"] == pytest.approx(0.5, abs=1e-8)
    assert got["intercept"] == pytest.approx(0.2, abs=1e-8)
    assert coeffs.rss == pytest.approx(0.0, abs=1e-12)
    assert coeffs.n_rows == 200 * 4


def test_fit_constant_panel_intercept_only():
    w = TreatmentPanel(np.zeros((10, 3)))
    y = OutcomePanel(np.full((10, 4), 2.5))
    coeffs = fit_ese(y, w, FeatureSpec.parse(["intercept"]))
    assert coeffs.by_name()["intercept"] == pytest.approx(2.5, abs=1e-12)


def test_fit_duplicated_feature_minimum_norm():
    w, y = _simulate_linear_panel(n=80, t_max=4, seed=2)
    spec_dup = FeatureSpec(
        (
            Feature("own_treatment"),
            Feature("lagged_outcome"),
            Feature("treated_fraction"),
            Feature("lagged_mean"),  # lagged_mean duplicates nothing; real duplication below
            Feature("intercept"),
        )
    )
    # Duplicate exactly: build the matrix twice via two aliases of the same
    # column kind.
    x1, target = design_matrix(spec_dup, w, y)
    coeffs = fit_ese(y, w, spec_dup)
    fitted = x1 @ coeffs.values
    # duplicating a column must leave fitted values unchanged
    spec_two = FeatureSpec((Feature("own_treatment"), Feature("intercept")))
    x2, _ = design_matrix(spec_two, w, y)
    both = np.column_stack([x2, x2[:, 0]])
    coef_min, *_ = np.linalg.lstsq(both, target, rcond=1e-10)
    assert np.allclose(both @ coef_min, x2 @ np.linalg.lstsq(x2, target, rcond=1e-10)[0], atol=1e-8)
    # minimum-norm splits the weight evenly across the twin columns
    assert coef_min[0] == pytest.approx(coef_min[2], abs=1e-8)
    assert np.allclose(fitted, target, atol=1e-8)


def test_fit_literal_duplicate_column_through_api():
    # With a single all-units cluster, the cluster fraction literally equals
    # the treated fraction, giving two identical columns through the public
    # fit. Fitted values must match the non-duplicated fit and the twin
    # coefficients split evenly (minimum norm).
    w, y = _simulate_linear_panel(n=120, t_max=4, seed=9)
    structure = StructureMetadata(membership=np.zeros(120, dtype=int), n_clusters=1)
    plain = FeatureSpec.parse(["own_treatment", "lagged_outcome", "treated_fraction", "intercept"])
    doubled = FeatureSpec.parse(
        ["own_treatment", "lagged_outcome", "treated_fraction", "cluster_fraction:0", "intercept"]
    )
    fit_plain = fit_ese(y, w, plain)
    fit_doubled = fit_ese(y, w, doubled, structure)
    x_plain, target = design_matrix(plain, w, y)
    x_doubled, _ = design_matrix(doubled, w, y, structure)
    assert np.allclose(x_doubled @ fit_doubled.values, x_plain @ fit_plain.values, atol=1e-8)
    got = fit_doubled.by_name()
    assert got["treated_fraction"] == pytest.approx(got["cluster_fraction:0"], abs=1e-8)
    assert got["treated_fraction"] + got["cluster_fraction:0"] == pytest.approx(
        fit_plain.by_name()["treated_fraction"], abs=1e-7
    )


def test_fit_residuals_orthogonal_to_features():
    rng = np.random.default_rng(5)
    n, t_max = 60, 4
    w = TreatmentPanel((rng.random((n, t_max)) < 0.5).astype(float))
    y_vals = rng.normal(size=(n, t_max + 1))
    y = OutcomePanel(y_vals)
    spec = basic_feature_spec()
    coeffs = fit_ese(y, w, spec)
    x, target = design_matrix(spec, w, y)
    resid = target - x @ coeffs.values
    scale = max(1.0, float(np.abs(target).max()))
    assert np.all(np.abs(x.T @ resid) / (x.shape[0] * scale) < 1e-8)


UNINDEXED_KINDS = (
    "intercept",
    "own_treatment",
    "lagged_outcome",
    "treated_fraction",
    "lagged_mean",
)


def _assert_fit_matches_oracle(y, w, spec, structure=None, fit=None):
    """``fit`` (by default fit_ese's) against np.linalg.lstsq on the full
    N*T-row design matrix, refined by one more lstsq solve on its residual.

    Coefficients are compared normwise: the forward error of least squares is
    bounded by about cond(X) * eps * max|coef|, and on near-collinear
    features all of it may land on one small coefficient. The refinement
    step keeps lstsq's rank decision; on an ill-conditioned panel with large
    coefficients it takes the reference's fitted values from 1.8 times the
    1e-9 bound to 0.01 of it, measured against a 60-digit solution."""
    fit = fit_ese(y, w, spec, structure) if fit is None else fit
    x, target = design_matrix(spec, w, y, structure)
    ref, *_ = np.linalg.lstsq(x, target, rcond=RANK_RTOL)
    ref = ref + np.linalg.lstsq(x, target - x @ ref, rcond=RANK_RTOL)[0]
    resid = target - x @ ref
    assert np.max(np.abs(fit.values - ref)) <= 1e-9 * (1.0 + np.max(np.abs(ref))), (fit.values, ref)
    scale = 1.0 + float(np.abs(target).max())
    assert np.all(np.abs(x @ fit.values - x @ ref) <= 1e-9 * scale)
    assert abs(fit.rss - float(resid @ resid)) <= 1e-9 * (1.0 + float(target @ target))
    assert fit.n_rows == x.shape[0] == w.n_units * w.n_rounds


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fit_matches_lstsq_on_design_matrix(data):
    # Small panels with constant designs, exact duplicate columns (one
    # cluster, one unit, constant fractions) and the fewest rounds allowed.
    n = data.draw(st.sampled_from([1, 2, 3, 5, 12, 40]), label="n")
    kinds = data.draw(st.lists(st.sampled_from(UNINDEXED_KINDS), unique=True, max_size=7), label="kinds")
    k = data.draw(st.integers(0, min(n, 3)), label="clusters")
    influencers = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 2)), label="influencers")
    items = kinds + [f"cluster_fraction:{l}" for l in range(k)] + [f"influencer_treatment:{j}" for j in influencers]
    if not items:
        items = ["intercept"]
    spec = FeatureSpec.parse(items)
    t_max = max(1, spec.n_scenario_level()) + data.draw(st.integers(0, 2), label="extra rounds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    design = data.draw(st.sampled_from(["bernoulli", "all_control", "all_treated", "constant_fraction"]))
    if design == "bernoulli":
        w = (rng.random((n, t_max)) < rng.random(t_max)).astype(float)
    elif design == "constant_fraction":
        w = np.tile((np.arange(n) < (n + 1) // 2).astype(float)[:, None], (1, t_max))
    else:
        w = np.full((n, t_max), float(design == "all_treated"))
    y = rng.normal(size=(n, t_max + 1)) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="outcome scale")
    membership = rng.permutation(np.arange(n) % k) if k else None
    structure = StructureMetadata(membership=membership, n_clusters=k or None, influencers=tuple(influencers) or None)
    _assert_fit_matches_oracle(OutcomePanel(y), TreatmentPanel(w), spec, structure)


def test_fit_matches_lstsq_on_an_ill_conditioned_panel():
    # A draw of the property test above: cond(X) = 7.9e8 and max|coef| =
    # 5.2e7. Against a single lstsq solve the lagged_outcome coefficient
    # misses a per-coefficient 1e-9 bound 6.6-fold and the fitted values the
    # 1e-9 * max|target| bound 2.2-fold. Against the refined reference the
    # normwise coefficient error is 0.04 of its bound and the fitted values'
    # 0.58.
    n, t_max = 40, 5
    spec = FeatureSpec.parse(
        ["intercept", "own_treatment", "lagged_outcome", "treated_fraction", "lagged_mean",
         "influencer_treatment:2", "influencer_treatment:5"]
    )
    rng = np.random.default_rng(1)
    w = TreatmentPanel((rng.random((n, t_max)) < rng.random(t_max)).astype(float))
    y = OutcomePanel(rng.normal(size=(n, t_max + 1)) * 1e3)
    structure = StructureMetadata(influencers=(2, 5))
    _assert_fit_matches_oracle(y, w, spec, structure)
    # Any one coefficient off by 1e-6 of the largest still fails.
    fit = fit_ese(y, w, spec, structure)
    for j in range(len(spec.features)):
        values = fit.values.copy()
        values[j] += 1e-6 * np.max(np.abs(values))
        with pytest.raises(AssertionError):
            _assert_fit_matches_oracle(y, w, spec, structure, dataclasses.replace(fit, values=values))


@pytest.mark.parametrize("n", [2 * TSQR_LEAF_ROWS - 1, 2 * TSQR_LEAF_ROWS, 3 * TSQR_LEAF_ROWS + 17])
def test_fit_matches_lstsq_on_tall_panels(n):
    # At 2 * TSQR_LEAF_ROWS units each round is factored leaf by leaf.
    rng = np.random.default_rng(n)
    w = TreatmentPanel((rng.random((n, 5)) < np.array([0.0, 0.2, 0.4, 0.6, 0.8])).astype(float))
    y = OutcomePanel(rng.normal(size=(n, 6)) + 3.0)
    structure = StructureMetadata(membership=np.arange(n) % 2, n_clusters=2)
    for spec in (basic_feature_spec(), cluster_feature_spec(2), FeatureSpec.parse(UNINDEXED_KINDS)):
        _assert_fit_matches_oracle(y, w, spec, structure)


def _two_level_tsqr(block):
    """R factor of a tall block by the two-level TSQR over the whole block
    at once: every leaf of TSQR_LEAF_ROWS rows in one batched call, then the
    leaf R factors stacked on the leftover rows; a block of fewer than two
    leaves is factored whole. The reference for ``_round_factors``."""
    k = block.shape[0] // TSQR_LEAF_ROWS
    if k < 2:
        return np.linalg.qr(block, mode="r")
    split = k * TSQR_LEAF_ROWS
    leaves = np.linalg.qr(block[:split].reshape(k, TSQR_LEAF_ROWS, -1), mode="r")
    return np.linalg.qr(np.concatenate([leaves.reshape(-1, block.shape[1]), block[split:]]), mode="r")


def _reference_round_factors(y, w, bases):
    """Each round's N x (b + 1) block [B_t, y_t], built whole and factored by
    ``_two_level_tsqr``."""
    block = np.empty((w.n_units, len(bases) + 1), order="F")
    factors = []
    for t in range(1, w.n_rounds + 1):
        for k, base in enumerate(bases):
            block[:, k] = _BASES[base](w.column(t), y.column(t - 1))
        block[:, len(bases)] = y.column(t)
        factors.append(_two_level_tsqr(block))
    return factors


_LEAF, _CHUNK = TSQR_LEAF_ROWS, TSQR_CHUNK_LEAVES * TSQR_LEAF_ROWS


@pytest.mark.parametrize(
    "n",
    [1, 4, 2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1, 3 * _LEAF, _CHUNK - 1, _CHUNK, _CHUNK + 1,
     _CHUNK + _LEAF - 1, _CHUNK + _LEAF, 2 * _CHUNK + 1, 2 * _CHUNK + _LEAF + 17],
)
def test_round_factors_have_the_bits_of_the_two_level_tsqr(n):
    # Leaf and chunk boundaries, each +-1: rounds of fewer than two leaves
    # factored whole, leftover rows, a last chunk of one leaf or of one
    # leaf less than a full chunk. Row-major and column-major outcome panels
    # give the factors different strides to read.
    rng = np.random.default_rng(n)
    w = TreatmentPanel((rng.random((n, 3)) < np.array([0.2, 0.5, 0.8])).astype(float))
    for y in (OutcomePanel(rng.normal(size=(n, 4)) * 3.0 + 1.0),
              OutcomePanel(np.asfortranarray(rng.normal(size=(n, 4))))):
        for bases in (("one", "w", "y"), ("w",), ("y", "one")):
            got, want = _round_factors(y, w, bases), _reference_round_factors(y, w, bases)
            assert len(got) == len(want) == w.n_rounds
            for t, (a, b) in enumerate(zip(got, want), start=1):
                assert a.shape == b.shape, (bases, t)
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (bases, t)


def test_round_factors_hold_one_chunk_of_leaves_at_a_time():
    # N = 2*10^5, T = 5, four block columns: beyond its panels, the factoring
    # holds a chunk of leaves, the copy of it that np.linalg.qr makes, one
    # base column of a chunk, and the stacked leaf factors and leftover rows
    # with their copy: O(chunk) in all.
    # Building each round's N-row block, plus the copy of it that the batched
    # leaf factoring makes, took 64 B/unit.
    import tracemalloc

    n, t_max, bases = 200_000, 5, ("one", "w", "y")
    rng = np.random.default_rng(2)
    w = TreatmentPanel((rng.random((n, t_max)) < 0.5).astype(float))
    y = OutcomePanel(rng.normal(size=(n, t_max + 1)))
    chunk = TSQR_CHUNK_LEAVES * TSQR_LEAF_ROWS * (len(bases) + 1) * 8
    stack = (n // TSQR_LEAF_ROWS * (len(bases) + 1) + TSQR_LEAF_ROWS) * (len(bases) + 1) * 8
    _round_factors(y, w, bases)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _round_factors(y, w, bases)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 3 * chunk + 2 * stack + (64 << 10)
    assert peak <= bound, f"{peak / n:.1f} B/unit above the panels, bound {bound / n:.1f}"


def test_fits_sharing_round_factors_factor_once_per_base_tuple(monkeypatch):
    # Without the lagged outcome the base columns are (1, w), so that fit
    # factors anew; a second fit on the basic spec factors nothing.
    import spillsim.estimators as estimators_mod

    rng = np.random.default_rng(8)
    w = TreatmentPanel((rng.random((300, 4)) < np.array([0.0, 0.2, 0.4, 0.8])).astype(float))
    y = OutcomePanel(rng.normal(size=(300, 5)))
    specs = (basic_feature_spec(),
             FeatureSpec.parse(["intercept", "own_treatment", "treated_fraction", "lagged_mean"]))
    unshared = [fit_ese(y, w, spec) for spec in specs]
    calls, round_factors = [], estimators_mod._round_factors

    def counted(*args):
        calls.append(args[2])
        return round_factors(*args)

    monkeypatch.setattr(estimators_mod, "_round_factors", counted)
    shared: dict = {}
    for spec, want in zip((*specs, specs[0]), (*unshared, unshared[0])):
        got = fit_ese(y, w, spec, round_factors=shared)
        assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), spec.names
        assert got.rss == want.rss
    assert calls == [("one", "w", "y"), ("one", "w")]
    assert list(shared) == calls


# Relabeling moves an ESE effect by rounding alone, through a least-squares
# fit whose forward error is about cond(X) * eps relative, X the N·T-row
# design matrix, and a propagation over T rounds that amplifies it. In 6000
# random draws of the strategy below the gap never passed 38 cond(X) * eps *
# max(1, |a|); the fixed ill-conditioned draw reaches 56. This factor leaves
# room beyond both, and keeps the 1e-10 floor on every fit with cond(X)
# below 450 (the basic and cluster specs of that draw have 13.9).
RELABELING_COND_FACTOR = 1000.0


def _estimates(y, w, structure, influencers):
    """(estimate, relative tolerance of a relabeling check) of dm and ht at
    every round, and of the round-T effect of every ESE spec."""
    out = []
    for t in range(1, w.n_rounds + 1):
        out += [(dm_estimate(y.column(t), w.column(t)), 1e-10), (ht_estimate(y.column(t), w.column(t), 0.3), 1e-10)]
    for spec in (basic_feature_spec(), cluster_feature_spec(structure.n_clusters), influencer_feature_spec(influencers)):
        coeffs = fit_ese(y, w, spec, structure)
        cond = np.linalg.cond(design_matrix(spec, w, y, structure)[0])
        tol = max(1e-10, RELABELING_COND_FACTOR * cond * np.finfo(float).eps)
        out.append((tte_from_coeffs(coeffs, spec, column_mean(y, 0), w.n_rounds), tol))
    return out


def _assert_invariant_to_relabeling(n, k, seed, n_influencers, perm, relabel_structure=True):
    """Every estimate of a random panel against that of the panel whose unit
    i is unit perm[i], the structure metadata relabeled with the units
    unless ``relabel_structure`` is off (a planted label dependence)."""
    t_max = 5
    rng = np.random.default_rng(seed)
    w = (rng.random((n, t_max)) < rng.random(t_max)).astype(float)
    y = rng.normal(size=(n, t_max + 1))
    membership = rng.integers(0, k, n)
    membership[:k] = np.arange(k)  # no empty cluster
    influencers = sorted(rng.choice(n, size=n_influencers, replace=False))
    inverse = np.argsort(perm)
    before = _estimates(
        OutcomePanel(y), TreatmentPanel(w),
        StructureMetadata(membership=membership, n_clusters=k, influencers=tuple(influencers)), influencers,
    )
    relabeled = [int(inverse[j]) for j in influencers] if relabel_structure else influencers
    after = _estimates(
        OutcomePanel(y[perm]), TreatmentPanel(w[perm]),
        StructureMetadata(
            membership=membership[perm] if relabel_structure else membership, n_clusters=k,
            influencers=tuple(relabeled),
        ),
        relabeled,
    )
    for (a, tol), (b, _) in zip(before, after):
        if a is None:
            assert b is None
        else:
            assert abs(a - b) <= tol * max(1.0, abs(a)), (before, after)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_estimators_invariant_to_unit_relabeling(data):
    n = data.draw(st.integers(4, 30), label="n")
    k = data.draw(st.integers(1, 2), label="clusters")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n_influencers = data.draw(st.integers(1, 2), label="influencers")
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    _assert_invariant_to_relabeling(n, k, seed, n_influencers, perm)


def test_estimators_invariant_to_unit_relabeling_on_an_ill_conditioned_fit():
    # A draw of the property test: influencers (16, 27), units 21 and 22
    # swapped. Rounds 4 and 5 share the treated fraction 2/29 and nearly
    # share the lagged mean, so the influencer spec's cond(X) is 3.9e4; its
    # effect moves by 2.6e-9, five times the old fixed bound of 1e-10 * |a|.
    perm = np.arange(29)
    perm[[21, 22]] = [22, 21]
    _assert_invariant_to_relabeling(29, 1, 16570796, 2, perm)


@pytest.mark.parametrize("seed", [3, 16570796])
def test_relabeling_check_catches_structure_left_unrelabeled(seed):
    # The units move but the cluster ids and influencer ids stay put: the
    # structured effects change, and the conditioned bound must see it.
    perm = np.random.default_rng(seed).permutation(29)
    with pytest.raises(AssertionError):
        _assert_invariant_to_relabeling(29, 2, seed, 2, perm, relabel_structure=False)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_ese_estimates_scale_with_the_outcomes(data):
    # Every feature is outcome-free or linear in the outcomes, so scaling the
    # whole panel, baseline included, scales each effect by the same factor.
    n = data.draw(st.integers(12, 60), label="n")
    t_max = 5
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = TreatmentPanel((rng.random((n, t_max)) < rng.uniform(0.2, 0.8, t_max)).astype(float))
    y = rng.normal(size=(n, t_max + 1)) + rng.normal(size=t_max + 1)
    c = data.draw(st.sampled_from([-1.0, -3.7, 1e-3, 0.5, 2.0, 1e3]), label="c")
    membership = np.arange(n) % 2
    influencers = [int(rng.integers(n))]
    structure = StructureMetadata(membership=membership, n_clusters=2, influencers=tuple(influencers))
    for spec in (basic_feature_spec(), cluster_feature_spec(2), influencer_feature_spec(influencers)):
        effects = []
        for panel in (OutcomePanel(y), OutcomePanel(c * y)):
            coeffs = fit_ese(panel, w, spec, structure)
            effects.append(tte_from_coeffs(coeffs, spec, column_mean(panel, 0), t_max))
        base, scaled = effects
        assert abs(scaled - c * base) <= 1e-9 * abs(c) * max(1.0, abs(base)), (spec, c, base, scaled)


def test_fit_requires_enough_rounds():
    w = TreatmentPanel(np.ones((5, 2)))
    y = OutcomePanel(np.zeros((5, 3)))
    spec = basic_feature_spec()  # three scenario-level features, two rounds
    with pytest.raises(ValueError, match="scenario-level"):
        fit_ese(y, w, spec)


def test_cluster_features_require_metadata():
    w = TreatmentPanel(np.ones((4, 4)))
    y = OutcomePanel(np.zeros((4, 5)))
    spec = FeatureSpec.parse(["intercept", "cluster_fraction:0"])
    with pytest.raises(ValueError, match="cluster"):
        fit_ese(y, w, spec)


@pytest.mark.parametrize(
    "items,structure,rounds,match",
    [
        (["intercept"], StructureMetadata(), 3, "disagree on dimensions"),
        (["cluster_fraction:2"], StructureMetadata(membership=np.zeros(4, dtype=int), n_clusters=2), 4, "outside 0..1"),
        (["influencer_treatment:1"], StructureMetadata(), 4, "influencer id metadata"),
        (["influencer_treatment:1"], StructureMetadata(influencers=(0,)), 4, "not a listed influencer"),
    ],
    ids=["panel_dimensions", "cluster_id_range", "influencer_metadata", "influencer_unlisted"],
)
def test_fit_errors_name_the_fault(items, structure, rounds, match):
    w = TreatmentPanel(np.ones((4, rounds)))
    y = OutcomePanel(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=match):
        fit_ese(y, w, FeatureSpec.parse(items), structure)
    with pytest.raises(ValueError, match=match):
        design_matrix(FeatureSpec.parse(items), w, y, structure)


def test_design_matrix_columns_by_hand():
    # Each unindexed feature written out directly, independent of the table
    # that both fit_ese and design_matrix read.
    w_vals = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    y_vals = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    x, target = design_matrix(FeatureSpec.parse(UNINDEXED_KINDS), TreatmentPanel(w_vals), OutcomePanel(y_vals))
    w, y_prev = w_vals.T.reshape(-1), y_vals[:, :2].T.reshape(-1)
    w_bar, y_bar = np.repeat([2 / 3, 1 / 3], 3), np.repeat([4.0, 5.0], 3)
    expected = [np.ones(6), w, y_prev, w_bar, y_bar]
    assert np.allclose(x, np.column_stack(expected), rtol=1e-15, atol=0)
    assert np.array_equal(target, y_vals[:, 1:].T.reshape(-1))


def test_cluster_feature_columns():
    w = TreatmentPanel(np.array([[1.0], [0.0], [1.0], [1.0]]))
    y = OutcomePanel(np.zeros((4, 2)))
    structure = StructureMetadata(membership=np.array([0, 0, 1, 1]), n_clusters=2)
    spec = FeatureSpec.parse(["cluster_fraction:0", "cluster_fraction:1"])
    x, _ = design_matrix(spec, w, y, structure)
    assert np.allclose(x[:, 0], 0.5)
    assert np.allclose(x[:, 1], 1.0)


def test_influencer_feature_columns():
    w = TreatmentPanel(np.array([[1.0], [0.0], [1.0]]))
    y = OutcomePanel(np.zeros((3, 2)))
    structure = StructureMetadata(influencers=(1,))
    spec = FeatureSpec.parse(["influencer_treatment:1"])
    x, _ = design_matrix(spec, w, y, structure)
    assert np.allclose(x[:, 0], 0.0)


def test_feature_spec_validation():
    with pytest.raises(ValueError):
        FeatureSpec(())
    with pytest.raises(ValueError):
        FeatureSpec.parse(["intercept", "intercept"])
    with pytest.raises(ValueError):
        Feature("cluster_fraction")
    with pytest.raises(ValueError):
        Feature("own_treatment", index=1)
    with pytest.raises(ValueError):
        Feature("not_a_feature")


# --- counterfactual propagation ---------------------------------------------------


def _fixture_coeffs():
    spec = FeatureSpec.parse(["treated_fraction", "lagged_mean", "intercept"])
    from spillsim.estimators import ESECoefficients

    coeffs = ESECoefficients(names=spec.names, values=np.array([0.5, 0.9, 0.1]), rss=0.0, n_rows=0)
    return spec, coeffs


def test_propagate_fixed_point_under_no_treatment():
    spec, coeffs = _fixture_coeffs()
    traj = propagate(coeffs, spec, 1.0, ScenarioPath.all_control(3))
    assert np.allclose(traj, 1.0, atol=0, rtol=0)


def test_propagate_hand_recursion_all_treated():
    spec, coeffs = _fixture_coeffs()
    traj = propagate(coeffs, spec, 1.0, ScenarioPath.all_treated(2))
    assert traj[1] == pytest.approx(1.5)
    assert traj[2] == pytest.approx(1.95)


def test_propagate_intercept_only_jumps_to_constant():
    spec = FeatureSpec.parse(["intercept"])
    from spillsim.estimators import ESECoefficients

    coeffs = ESECoefficients(names=spec.names, values=np.array([3.0]), rss=0.0, n_rows=0)
    traj = propagate(coeffs, spec, -2.0, ScenarioPath.all_control(3))
    assert traj[0] == -2.0
    assert np.allclose(traj[1:], 3.0)


def test_tte_from_coeffs_hand_value():
    spec, coeffs = _fixture_coeffs()
    assert tte_from_coeffs(coeffs, spec, 1.0, 2) == pytest.approx(0.95)
    assert tte_from_coeffs(coeffs, spec, 1.0, 0) == 0.0


def test_tte_zero_when_treatment_cannot_enter():
    spec = FeatureSpec.parse(["lagged_mean", "intercept"])
    from spillsim.estimators import ESECoefficients

    coeffs = ESECoefficients(names=spec.names, values=np.array([0.7, 0.3]), rss=0.0, n_rows=0)
    for t in range(4):
        assert tte_from_coeffs(coeffs, spec, 2.0, t) == 0.0


def test_propagate_requires_aligned_names():
    spec, coeffs = _fixture_coeffs()
    other = FeatureSpec.parse(["intercept"])
    with pytest.raises(ValueError):
        propagate(coeffs, other, 0.0, ScenarioPath.all_control(1))


def test_scenario_path_validation():
    with pytest.raises(ValueError):
        ScenarioPath(fractions=())
    with pytest.raises(ValueError):
        ScenarioPath(fractions=(1.5,))
