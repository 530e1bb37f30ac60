import itertools
import tracemalloc

import numpy as np
import pytest

from spillsim.design import DesignSpec, assign
from spillsim.dynamics import (
    DynamicsSpec,
    LinearPeer,
    LinearUnit,
    MeanFieldThreshold,
    NonFiniteOutcome,
    WeightedSumExposure,
    ZeroPeer,
    compute_exposure,
    counterfactual_suite,
    evolution_residual,
    ground_truth_tte,
    simulate_panel,
    step,
)
from spillsim.panel import TreatmentPanel, column_mean, round_index_covariates
from spillsim.weights import (
    ExplicitDenseWeights,
    GaussianWeightParams,
    LazyGaussianWeights,
    gen_clustered,
    gen_dense_gaussian,
    gen_influencer,
)

UNIFORM_HALF = ExplicitDenseWeights(np.full((2, 2), 0.5))


def linear_spec(**kwargs):
    defaults = dict(
        unit=LinearUnit(w_coef=1.0, y_coef=1.0),
        peer=LinearPeer(w_coef=1.0, y_coef=0.0),
        exposure=WeightedSumExposure(),
        noise_sd=0.0,
    )
    defaults.update(kwargs)
    return DynamicsSpec(**defaults)


def test_zero_peer_gives_zero_exposure():
    spec = linear_spec(peer=ZeroPeer())
    e = compute_exposure(UNIFORM_HALF, spec, np.array([1.0, 0.0]), np.array([3.0, -1.0]), np.zeros((2, 1)), 1)
    assert np.array_equal(e, np.zeros(2))


def test_exposure_hand_value():
    spec = linear_spec()
    e = compute_exposure(UNIFORM_HALF, spec, np.array([1.0, 0.0]), np.zeros(2), np.zeros((2, 1)), 1)
    assert np.allclose(e, [0.5, 0.5], atol=0, rtol=0)


def test_threshold_exposure_hand_value():
    spec = linear_spec(exposure=MeanFieldThreshold(tau=0.4, strength=2.0))
    e = compute_exposure(UNIFORM_HALF, spec, np.array([1.0, 0.0]), np.zeros(2), np.zeros((2, 1)), 1)
    assert np.array_equal(e, [2.0, 2.0])
    e = compute_exposure(UNIFORM_HALF, spec, np.array([0.0, 0.0]), np.zeros(2), np.zeros((2, 1)), 1)
    assert np.array_equal(e, [0.0, 0.0])


@pytest.mark.parametrize("exposure", [WeightedSumExposure(), MeanFieldThreshold(tau=0.4, strength=-2.0)],
                         ids=["weighted_sum", "threshold"])
def test_compute_exposure_of_a_stack_is_the_exposure_of_each_column(exposure):
    # Scenario stacks and single columns go through the evolution's exposure
    # path alike, and every result is a fresh writable array.
    weights = gen_clustered(30, 3, 1.5, 0.3)
    spec = linear_spec(peer=LinearPeer(w_coef=1.2, y_coef=0.3), exposure=exposure)
    rng = np.random.default_rng(4)
    w = (rng.random((30, 3)) < [0.2, 0.5, 0.9]).astype(float)
    y = rng.normal(size=(30, 3))
    stack = compute_exposure(weights, spec, w, y, np.zeros((30, 1)), 1)
    assert stack.shape == (30, 3) and stack.flags.writeable
    for j in range(3):
        column = compute_exposure(weights, spec, w[:, j], y[:, j], np.zeros((30, 1)), 1)
        assert column.shape == (30,) and column.flags.writeable
        assert column.tobytes() == np.ascontiguousarray(stack[:, j]).tobytes()


def test_step_hand_value():
    spec = linear_spec()
    y = step(spec, np.array([1.0, 0.0]), np.zeros(2), np.zeros((2, 1)), np.array([0.5, 0.5]), np.zeros(2), 1)
    assert np.allclose(y, [1.5, 0.5], atol=0, rtol=0)


def test_step_identity_propagation():
    spec = linear_spec(unit=LinearUnit(y_coef=1.0), peer=ZeroPeer())
    y_prev = np.array([2.0, -3.0, 0.25])
    e = np.zeros(3)
    y = step(spec, np.zeros(3), y_prev, np.zeros((3, 1)), e, np.zeros(3), 1)
    assert np.array_equal(y, y_prev)


def test_step_deterministic_without_noise():
    spec = linear_spec()
    args = (np.array([1.0, 0.0]), np.array([0.3, 0.7]), np.zeros((2, 1)), np.array([0.1, 0.2]), np.zeros(2), 2)
    assert np.array_equal(step(spec, *args), step(spec, *args))


def test_step_reports_nonfinite_unit_and_round():
    spec = linear_spec(unit=LinearUnit(w_coef=1e308, y_coef=1e308))
    with pytest.raises(FloatingPointError, match="unit 1 at round 3"):
        step(spec, np.zeros(2), np.array([0.0, 1e308]), np.zeros((2, 1)), np.zeros(2), np.zeros(2), 3)
    stacked = np.array([[0.0, 0.0], [0.0, 1e308]])  # scenario 1 overflows at unit 1
    with pytest.raises(FloatingPointError, match="unit 1 at round 3 in scenario 1"):
        step(spec, np.zeros((2, 2)), stacked, np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 1)), 3)


def _hand_fixture_panels():
    # Worked recursion: w = [[1, 1], [0, 0]], uniform half weights, direct
    # effect 1, carryover 1, peer signal = treatment. Exposures are 0.5 each
    # round; unit outcomes are 0 -> 1.5 -> 3.0 and 0 -> 0.5 -> 1.0.
    w = TreatmentPanel(np.array([[1.0, 1.0], [0.0, 0.0]]))
    x = round_index_covariates(2, 2)
    y0 = np.zeros(2)
    return w, x, y0


def test_simulate_panel_matches_hand_recursion():
    w, x, y0 = _hand_fixture_panels()
    panel, exposure = simulate_panel(linear_spec(), UNIFORM_HALF, w, x, y0, seed=0)
    assert np.allclose(panel.values, [[0.0, 1.5, 3.0], [0.0, 0.5, 1.0]], atol=0, rtol=0)
    assert np.allclose(exposure.values, 0.5, atol=0, rtol=0)


def test_simulate_single_round_equals_step():
    spec = linear_spec()
    w = TreatmentPanel(np.array([[1.0], [0.0]]))
    x = round_index_covariates(2, 1)
    panel, exposure = simulate_panel(spec, UNIFORM_HALF, w, x, np.zeros(2), seed=1)
    e = compute_exposure(UNIFORM_HALF, spec, w.column(1), np.zeros(2), x.column(1), 1)
    direct = step(spec, w.column(1), np.zeros(2), x.column(1), e, np.zeros(2), 1)
    assert np.array_equal(panel.column(1), direct)
    assert np.array_equal(exposure.column(1), e)


def test_no_treatment_fixed_point():
    spec = linear_spec(unit=LinearUnit(y_coef=1.0), peer=LinearPeer(w_coef=1.0, y_coef=0.0))
    w = TreatmentPanel(np.zeros((3, 4)))
    x = round_index_covariates(3, 4)
    y0 = np.array([1.0, -2.0, 0.5])
    panel, _ = simulate_panel(spec, ExplicitDenseWeights(np.full((3, 3), 1 / 3)), w, x, y0, seed=5)
    for t in range(5):
        assert np.array_equal(panel.column(t), y0)


def test_counterfactual_suite_common_randomness():
    # With treatment unable to enter, every scenario yields the same panel.
    spec = linear_spec(
        unit=LinearUnit(w_coef=0.0, y_coef=0.9),
        peer=LinearPeer(w_coef=0.0, y_coef=0.4),
        noise_sd=0.5,
    )
    n, t_max = 30, 3
    weights = gen_dense_gaussian(n, GaussianWeightParams(1.0, 1.0, 0.1, 0.1), t_max, seed=13)
    x = round_index_covariates(n, t_max)
    y0 = np.linspace(-1, 1, n)
    scn = [
        assign(DesignSpec(kind="constant", n_units=n, n_rounds=t_max, value=1), 0),
        assign(DesignSpec(kind="constant", n_units=n, n_rounds=t_max, value=0), 0),
        assign(DesignSpec(kind="bernoulli", n_units=n, n_rounds=t_max, probs=(0.5,) * t_max), 7),
    ]
    panels = counterfactual_suite(spec, weights, scn, x, y0, seed=3)
    assert np.array_equal(panels[0].values, panels[1].values)
    assert np.array_equal(panels[0].values, panels[2].values)


def test_counterfactual_suite_identical_scenarios_and_order_independence():
    spec = linear_spec(noise_sd=0.2)
    n, t_max = 12, 2
    weights = gen_dense_gaussian(n, GaussianWeightParams(1.0, 0.5), t_max, seed=2)
    x = round_index_covariates(n, t_max)
    y0 = np.zeros(n)
    w_a = assign(DesignSpec(kind="bernoulli", n_units=n, n_rounds=t_max, probs=(0.5, 0.5)), 1)
    w_b = assign(DesignSpec(kind="constant", n_units=n, n_rounds=t_max, value=1), 0)
    ab = counterfactual_suite(spec, weights, [w_a, w_b], x, y0, seed=9)
    ba = counterfactual_suite(spec, weights, [w_b, w_a], x, y0, seed=9)
    aa = counterfactual_suite(spec, weights, [w_a, w_a], x, y0, seed=9)
    assert np.array_equal(ab[0].values, ba[1].values)
    assert np.array_equal(ab[1].values, ba[0].values)
    assert np.array_equal(aa[0].values, aa[1].values)
    # A lone simulation agrees with its suite counterpart up to BLAS kernel
    # rounding (matrix-vector versus matrix-matrix accumulation order).
    solo, _ = simulate_panel(spec, weights, w_a, x, y0, seed=9)
    assert np.allclose(solo.values, ab[0].values, rtol=0, atol=1e-10)


def test_ground_truth_tte_hand_values():
    w, x, y0 = _hand_fixture_panels()
    all1 = TreatmentPanel(np.ones((2, 2)))
    all0 = TreatmentPanel(np.zeros((2, 2)))
    treated, control = counterfactual_suite(linear_spec(), UNIFORM_HALF, [all1, all0], x, y0, seed=0)
    # all treated: exposure 1 per round; y: 0 -> 2 -> 4. all control: stays 0.
    assert ground_truth_tte(control, treated, 1) == 2.0
    assert ground_truth_tte(control, treated, 2) == 4.0
    assert ground_truth_tte(control, control, 2) == 0.0


def test_direct_effect_only_tte_constant():
    spec = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.0), peer=ZeroPeer())
    n, t_max = 8, 3
    x = round_index_covariates(n, t_max)
    weights = ExplicitDenseWeights(np.zeros((n, n)))
    all1 = TreatmentPanel(np.ones((n, t_max)))
    all0 = TreatmentPanel(np.zeros((n, t_max)))
    treated, control = counterfactual_suite(spec, weights, [all1, all0], x, np.zeros(n), seed=0)
    for t in range(1, t_max + 1):
        assert ground_truth_tte(control, treated, t) == 1.0


def test_evolution_identity_with_noise():
    spec = linear_spec(noise_sd=0.7)
    n, t_max = 25, 4
    weights = gen_dense_gaussian(n, GaussianWeightParams(1.0, 1.0, 0.2, 0.2), t_max, seed=1)
    w = assign(DesignSpec(kind="bernoulli", n_units=n, n_rounds=t_max, probs=(0.3,) * t_max), 8)
    x = round_index_covariates(n, t_max)
    y0 = np.ones(n)
    panel, exposure = simulate_panel(spec, weights, w, x, y0, seed=77)
    assert evolution_residual(spec, weights, w, x, panel, exposure, seed=77) == 0.0


# Each response kind with every term non-zero: the treatment, intercept and
# trend, and a covariate that is the round index broadcast over the units;
# and a unit whose intercept and trend are zero, so both terms are skipped.
_RESPONSES = {
    "linear_unit": lambda w_coef: LinearUnit(w_coef=w_coef, y_coef=0.9, x_coef=(0.3,), intercept=-1.1, trend=0.25),
    "linear_unit_no_shift": lambda w_coef: LinearUnit(w_coef=w_coef, y_coef=0.9, x_coef=(0.3,)),
    "linear_peer": lambda w_coef: LinearPeer(w_coef=w_coef, y_coef=0.9),
}


def _respond_into(response, w, y, out, t=3):
    x = round_index_covariates(len(y), t).column(t)
    if isinstance(response, LinearPeer):
        return response.value(w, y, out=out)
    return response.value(w, y, x, t, out=out)


@pytest.mark.parametrize("kind", sorted(_RESPONSES))
def test_a_constant_treatment_adds_one_scalar_to_the_response(kind):
    # A treatment constant over units (stride 0, as the constant panels are)
    # and the broadcast covariate each add a scalar: with ``out`` given, the
    # response allocates no array as long as the population.
    n = 100_000
    response = _RESPONSES[kind](-0.7)
    y, out, w = np.random.default_rng(2).normal(size=n), np.empty(n), np.broadcast_to(1.0, (n,))
    _respond_into(response, w, y, out)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _respond_into(response, w, y, out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * n // 4, f"{peak / n:.1f} B/unit"


@pytest.mark.parametrize("kind", sorted(_RESPONSES))
@pytest.mark.parametrize("w_coef", [0.0, 1.0, -0.7])
@pytest.mark.parametrize("value", [0.0, 1.0])
def test_a_constant_treatment_gives_the_bits_of_its_materialized_column(kind, w_coef, value):
    # The scalar and the skipped zero terms change no bit of an outcome that
    # is not an exact zero: the broadcast, the materialized column and the
    # formula with every term added all agree.
    n, t = 1000, 3
    response = _RESPONSES[kind](w_coef)
    y = np.random.default_rng(5).normal(size=n)
    broadcast, column = np.broadcast_to(value, (n,)), np.full(n, value)
    got = _respond_into(response, broadcast, y, np.empty(n), t)
    want = _respond_into(response, column, y, np.empty(n), t)
    full = response.w_coef * column + response.y_coef * y
    if not isinstance(response, LinearPeer):
        full = full + response.intercept + response.trend * t + response.x_coef[0] * np.full(n, float(t))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), full.view(np.uint64))


def test_monotone_treatment_response_brute_force():
    # All response parameters non-negative: raising any treatment entry can
    # never lower any outcome. Checked over every pair of comparable panels
    # on a 2-unit, 3-round instance (all 2^6 assignments).
    spec = linear_spec(
        unit=LinearUnit(w_coef=0.6, y_coef=0.8),
        peer=LinearPeer(w_coef=0.5, y_coef=0.3),
    )
    weights = ExplicitDenseWeights(np.array([[0.2, 0.4], [0.1, 0.3]]))
    x = round_index_covariates(2, 3)
    y0 = np.array([0.1, -0.2])
    panels = {}
    for bits in itertools.product([0.0, 1.0], repeat=6):
        w = TreatmentPanel(np.array(bits).reshape(2, 3))
        panels[bits], _ = simulate_panel(spec, weights, w, x, y0, seed=0)
    for a, b in itertools.product(panels, repeat=2):
        if all(x1 <= x2 for x1, x2 in zip(a, b)):
            assert np.all(panels[a].values <= panels[b].values + 1e-12)


def test_exposure_variance_shrinks_with_population():
    # Dispersion of the mean exposure across replications should halve
    # (within 25%) when the population quadruples.
    def mean_exposure_std(n, reps):
        spec = linear_spec(peer=LinearPeer(w_coef=1.0, y_coef=0.5))
        vals = []
        for rep in range(reps):
            weights = gen_dense_gaussian(n, GaussianWeightParams(1.0, 1.0), 1, seed=1000 + rep)
            rng = np.random.default_rng(500 + rep)
            w_t = (rng.random(n) < 0.5).astype(float)
            y_prev = rng.normal(size=n)
            e = compute_exposure(weights, spec, w_t, y_prev, np.zeros((n, 1)), 1)
            vals.append(e.mean())
        return np.std(vals)

    ratio = mean_exposure_std(250, 40) / mean_exposure_std(1000, 40)
    assert 1.5 <= ratio <= 2.5


def test_counterfactual_suite_takes_one_spec_per_scenario():
    # Each column evolves exactly as it does in a suite under its own spec,
    # whichever exposure mechanism and unit response its neighbours have.
    from spillsim.weights import gen_clustered

    n, t_max = 30, 3
    weights = gen_clustered(n, 2, 1.0, 0.3)
    x = round_index_covariates(n, t_max)
    y0 = np.linspace(-1.0, 1.0, n)
    w_a = assign(DesignSpec(kind="bernoulli", n_units=n, n_rounds=t_max, probs=(0.2, 0.5, 0.8)), 4)
    w_b = assign(DesignSpec(kind="constant", n_units=n, n_rounds=t_max, value=1), 0)
    summed = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7), peer=LinearPeer(0.5, 0.3), noise_sd=0.2)
    trending = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7, trend=0.4), peer=LinearPeer(0.5, 0.3),
                           noise_sd=0.2)
    threshold = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7), exposure=MeanFieldThreshold(0.4, 1.5),
                            noise_sd=0.2)
    scenarios = [w_a, w_b, w_a, w_b, w_a]
    specs = [threshold, summed, summed, trending, threshold]
    mixed = counterfactual_suite(specs, weights, scenarios, x, y0, seed=6)
    alone = {id(sp): counterfactual_suite(sp, weights, scenarios, x, y0, seed=6) for sp in specs}
    for k, sp in enumerate(specs):
        assert np.array_equal(mixed[k].values, alone[id(sp)][k].values), k
    with pytest.raises(ValueError, match="4 dynamics specs for 5 scenarios"):
        counterfactual_suite(specs[:4], weights, scenarios, x, y0, seed=6)


def test_counterfactual_suite_returns_one_panel_for_columns_that_evolve_alike():
    # Threshold columns share a panel when their treatment panel fixes the
    # same level in every round; weighted-sum columns when their specs
    # compare equal, as a trend of -0.0 does with 0.0.
    from spillsim.dynamics import _evolve
    from spillsim.weights import gen_clustered

    n, t_max = 40, 4
    weights = gen_clustered(n, 2, 1.0, 0.3)
    x = round_index_covariates(n, t_max)
    y0 = np.linspace(-1.0, 1.0, n)
    ramp = TreatmentPanel((np.arange(n)[:, None] < np.array([0, 8, 16, 32])).astype(float))  # 0.8 < tau
    nobody, everybody = (assign(DesignSpec(kind="constant", n_units=n, n_rounds=t_max, value=v), 0) for v in (0, 1))
    unit = LinearUnit(w_coef=1.0, y_coef=0.7)
    specs = [linear_spec(unit=unit, exposure=MeanFieldThreshold(0.9, strength), noise_sd=0.2)
             for strength in (0.0, 1.5, 3.0)]
    specs += [linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7, trend=trend), peer=LinearPeer(0.5, 0.3),
                          noise_sd=0.2) for trend in (0.0, 0.5, 0.0, -0.0)]
    columns = [sp for sp in specs for _ in range(3)]
    scenarios = [ramp, nobody, everybody] * len(specs)
    panels = counterfactual_suite(columns, weights, scenarios, x, y0, seed=6)

    shared = [[0, 3, 6], [1, 4, 7], [9, 15, 18], [10, 16, 19], [11, 17, 20]]
    alone = [[k] for k in (2, 5, 8, 12, 13, 14)]
    assert _same_object_groups(panels) == sorted(shared + alone)
    for k, (sp, w) in enumerate(zip(columns, scenarios)):
        (solo,) = counterfactual_suite(sp, weights, [w], x, y0, seed=6)
        assert np.array_equal(panels[k].values.view(np.uint64), solo.values.view(np.uint64)), k
    again, mats = _evolve(columns, weights, scenarios, x, y0, 6, keep_exposures=True)
    assert _same_object_groups(mats) == _same_object_groups(again) == sorted(shared + alone)


def _same_object_groups(objects) -> list[list[int]]:
    """The positions of each distinct object, sorted."""
    groups: dict[int, list[int]] = {}
    for k, obj in enumerate(objects):
        groups.setdefault(id(obj), []).append(k)
    return sorted(groups.values())


def test_nonfinite_outcome_names_the_first_requested_column_of_a_shared_column():
    n, t_max = 4, 2
    spec = linear_spec(unit=LinearUnit(y_coef=10.0), exposure=MeanFieldThreshold(0.5, 1e308))
    nobody, everybody = (assign(DesignSpec(kind="constant", n_units=n, n_rounds=t_max, value=v), 0) for v in (0, 1))
    # The two nobody-treated columns are one; only the everybody-treated
    # column, requested third and evolved second, overflows.
    with pytest.raises(NonFiniteOutcome, match="unit 0 at round 2 in scenario 2"):
        counterfactual_suite(spec, ExplicitDenseWeights(np.eye(n)), [nobody, nobody, everybody],
                             round_index_covariates(n, t_max), np.zeros(n), seed=0)


def test_nonfinite_outcome_names_the_lowest_unit_then_the_earliest_requested_column():
    # Treated units overflow (1e308 + 1e308) from round 2 on, so several
    # cells blow up in one round. The scan goes round by round, then unit by
    # unit, then column by column in request order: round 3's unit 0 and a
    # higher unit of an earlier column never win.
    n, t_max = 4, 3
    spec = linear_spec(unit=LinearUnit(w_coef=1e308, intercept=1e308), peer=ZeroPeer())

    def treating(round_2, round_3=()):
        values = np.zeros((n, t_max))
        values[list(round_2), 1] = values[list(round_3), 2] = 1.0
        return TreatmentPanel(values)

    a, b, c = treating({2, 3}, {0}), treating({1, 2}), treating({1, 3})
    cases = [([a, b], 1), ([b, a], 0), ([a, c, b], 1), ([a, b, c], 1), ([c, b, a, c], 0)]
    for scenarios, column in cases:
        with pytest.raises(NonFiniteOutcome) as info:
            counterfactual_suite(spec, ExplicitDenseWeights(np.eye(n)), scenarios,
                                 round_index_covariates(n, t_max), np.zeros(n), seed=0)
        assert (info.value.unit, info.value.round, info.value.scenario) == (1, 2, column)


# --- the evolution against a unit-major reference loop ----------------------


def _runs(specs, key):
    """Maximal runs of consecutive columns whose specs agree on ``key``, each
    with the spec of its first column."""
    runs, start = [], 0
    for k in range(1, len(specs) + 1):
        if k == len(specs) or key(specs[k]) != key(specs[start]):
            runs.append((specs[start], slice(start, k)))
            start = k
    return runs


def _reference_evolve(specs, weights, scenarios, x, y0, seed):
    """The evolution loop in unit-major layout: a C-ordered (N, s) state,
    treatments gathered by ``np.column_stack``, one stacked ``weights.apply``
    call per run of weighted-sum columns, one response per run of columns
    with one unit response and noise scale, and an (s, N, T + 1) outcome
    buffer. Columns that evolve alike are evolved once, as in the engine,
    but found by the reference ``_distinct_columns_per_column``. Returns the
    outcome and exposure matrix of every requested column."""
    from spillsim.rng import substream

    index, lead, levels = _distinct_columns_per_column(specs, scenarios)
    scenarios, specs = [scenarios[k] for k in lead], [specs[k] for k in lead]
    n, t_max, s = y0.size, scenarios[0].n_rounds, len(lead)
    weighted = [run for run in _runs(specs, lambda sp: (sp.exposure, sp.peer))
                if not isinstance(run[0].exposure, MeanFieldThreshold)]
    responses = _runs(specs, lambda sp: (sp.unit, sp.noise_sd))
    y_cur = np.tile(y0[:, None], (1, s))
    outcomes, exposures = np.empty((s, n, t_max + 1)), np.empty((s, n, t_max))
    outcomes[:, :, 0] = y_cur.T
    for t in range(1, t_max + 1):
        w_cols = np.column_stack([w.column(t) for w in scenarios])
        x_t = x.column(t)[:, None, :]
        noise = substream(seed, "noise", t).standard_normal(n)[:, None]
        e_t = np.empty((n, s))
        e_t[:] = levels[t - 1]
        if weighted:
            signals = np.hstack([sp.peer.value(w_cols[:, cols], y_cur[:, cols]) for sp, cols in weighted])
            e_t[:, np.r_[tuple(cols for _, cols in weighted)]] = weights.apply(signals, t)
        blocks = []
        for sp, cols in responses:
            y = sp.unit.value(w_cols[:, cols], y_cur[:, cols], x_t, t) + e_t[:, cols]
            blocks.append(y + sp.noise_sd * noise if sp.noise_sd > 0.0 else y)
        y_cur = np.hstack(blocks)
        outcomes[:, :, t] = y_cur.T
        exposures[:, :, t - 1] = e_t.T
    return [outcomes[d] for d in index], [exposures[d] for d in index]


def _assert_same_bits(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), what


def _assert_evolves_as_reference(columns, make_weights, scenarios, x, y0, seed):
    """``_evolve`` (with and without exposures) and ``counterfactual_suite``
    match the reference bit for bit, and every panel's round columns are
    contiguous. Each run gets a fresh set, so no run reads the images a lazy
    set kept from an earlier run."""
    from spillsim.dynamics import _evolve

    want_y, want_e = _reference_evolve(columns, make_weights(), scenarios, x, y0, seed)
    kept, mats = _evolve(columns, make_weights(), scenarios, x, y0, seed, keep_exposures=True)
    bare, none = _evolve(columns, make_weights(), scenarios, x, y0, seed, keep_exposures=False)
    suite = counterfactual_suite(columns, make_weights(), scenarios, x, y0, seed)
    assert none == []
    for k in range(len(scenarios)):
        for panels in (kept, bare, suite):
            _assert_same_bits(panels[k].values, want_y[k], f"outcomes of column {k}")
            assert all(panels[k].column(t).flags.c_contiguous for t in range(panels[k].n_rounds + 1)), k
        _assert_same_bits(mats[k].values, want_e[k], f"exposures of column {k}")


_N, _T = 257, 4
_GAUSSIAN = GaussianWeightParams(1.0, 1.0, 0.2, 0.5)
_MAKE_WEIGHTS = {
    "lazy_gaussian": lambda: LazyGaussianWeights(_N, _GAUSSIAN, _T, seed=8),
    "materialized_gaussian": lambda: gen_dense_gaussian(_N, _GAUSSIAN, _T, seed=8),
    "explicit": lambda: ExplicitDenseWeights(np.random.default_rng(8).normal(0.0, 1.0 / _N, (_N, _N))),
    "clustered": lambda: gen_clustered(_N, 3, 1.5, 0.3),
    "influencer": lambda: gen_influencer(_N, (1, 5, 200), 0.8, 0.4),
}


def _blocks_fixture(kind: str, seeds=(7, 8, 9)):
    """Each seed's weight set, assignment and baseline, and the joined
    population of all of them: its assignment is column-contiguous, as the
    harness joins it. Clustered and explicit seeds share one set."""
    make = {"lazy_gaussian": lambda seed: LazyGaussianWeights(_N, _GAUSSIAN, _T, seed)}.get(kind)
    shared = None if make else _MAKE_WEIGHTS[kind]()
    sets = [make(seed) if make else shared for seed in seeds]
    design = DesignSpec(kind="bernoulli", n_units=_N, n_rounds=_T, probs=(0.0, 0.2, 0.4, 0.8))
    observed = [assign(design, seed) for seed in seeds]
    y0 = [np.random.default_rng(seed).normal(0.5, 1.0, _N) for seed in seeds]
    joined = TreatmentPanel._built(np.concatenate([w.values.T for w in observed], axis=1).T)
    return sets, observed, y0, joined


@pytest.mark.parametrize("kind", ["lazy_gaussian", "clustered", "explicit"])
def test_a_suite_in_blocks_gives_each_block_the_bits_of_its_seed_alone(kind):
    # Three seeds' populations joined. Each block draws its own noise and
    # applies its own weight set, threshold levels and round means. Round 3
    # crosses tau in some blocks and not in others, so the observed
    # threshold column evolves alike with another column in some blocks only.
    from spillsim.dynamics import _evolve

    seeds = (7, 8, 9)
    sets, observed, y0, joined = _blocks_fixture(kind, seeds)
    crossed = [w.column(3).mean() > 0.4 for w in observed]
    assert any(crossed) and not all(crossed)
    constants = {n: [assign(DesignSpec(kind="constant", n_units=n, n_rounds=_T, value=v), 0) for v in (0, 1)]
                 for n in (_N, 3 * _N)}
    noisy = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7), peer=LinearPeer(0.5, 0.2), noise_sd=0.3)
    # Taus 0.4 and 0.41 agree wherever round 3 stays below both.
    specs = [noisy] + [linear_spec(unit=noisy.unit, exposure=MeanFieldThreshold(tau, 2.0), noise_sd=0.3)
                       for tau in (0.4, 0.41)]
    columns = [sp for sp in specs for _ in range(3)]
    for keep in (None, [0, 3, 6]):
        kwargs = dict(keep_exposures=keep is None, keep=keep)
        suite, mats = _evolve(columns, sets, [joined, *constants[3 * _N]] * 3, round_index_covariates(3 * _N, _T),
                              np.concatenate(y0), list(seeds), **kwargs)
        assert len(suite) == 3 * len(columns)
        for b, seed in enumerate(seeds):
            ws = LazyGaussianWeights(_N, _GAUSSIAN, _T, seed) if kind == "lazy_gaussian" else sets[b]
            alone, alone_mats = _evolve(columns, ws, [observed[b], *constants[_N]] * 3, round_index_covariates(_N, _T),
                                        y0[b], seed, **kwargs)
            block = suite.block(b)
            assert _same_object_groups(block) == _same_object_groups(alone)
            assert np.array(block.means).tobytes() == np.array(alone.means).tobytes()
            for k, (got, want) in enumerate(zip(block, alone)):
                assert (got is None) == (want is None), k
                if want is not None:
                    _assert_same_bits(got.values, want.values, f"block {b}, column {k}")
            for k, (got, want) in enumerate(zip(mats[b * len(columns) : (b + 1) * len(columns)], alone_mats)):
                _assert_same_bits(got.values, want.values, f"exposures of block {b}, column {k}")
        if keep is None:
            assert len({str(_same_object_groups(suite.block(b))) for b in range(3)}) > 1


def test_a_nonfinite_outcome_in_blocks_is_named_by_its_first_block():
    # Unit 4 of the second block and unit 9 of the third overflow in round 1:
    # the second is named, with its unit counted within the block, as that
    # block alone names it.
    seeds = (7, 8, 9)
    sets, observed, y0, joined = _blocks_fixture("clustered", seeds)
    y0[1][4], y0[2][9] = 1e308, -1e308
    spec = linear_spec(unit=LinearUnit(y_coef=10.0))
    with pytest.raises(NonFiniteOutcome, match=r"^non-finite outcome for unit 4 at round 1 in scenario 0 of block 1$"):
        counterfactual_suite(spec, sets, [joined], round_index_covariates(3 * _N, _T), np.concatenate(y0), seeds)
    with pytest.raises(NonFiniteOutcome, match=r"^non-finite outcome for unit 4 at round 1 in scenario 0$"):
        counterfactual_suite(spec, sets[1], [observed[1]], round_index_covariates(_N, _T), y0[1], seeds[1])
    with pytest.raises(ValueError, match=r"^3 seeds and 2 weight sets for 771 units$"):
        counterfactual_suite(spec, sets[1:], [joined], round_index_covariates(3 * _N, _T), np.concatenate(y0), seeds)


def _evolution_fixture():
    x = round_index_covariates(_N, _T)
    y0 = np.random.default_rng(3).normal(0.5, 1.0, _N)
    observed = assign(DesignSpec(kind="bernoulli", n_units=_N, n_rounds=_T, probs=(0.0, 0.2, 0.4, 0.8)), 5)
    nobody, everybody = (assign(DesignSpec(kind="constant", n_units=_N, n_rounds=_T, value=v), 0) for v in (0, 1))
    return [observed, nobody, everybody], x, y0


@pytest.mark.parametrize("kind", sorted(_MAKE_WEIGHTS))
def test_evolution_matches_the_unit_major_reference(kind):
    make_weights = _MAKE_WEIGHTS[kind]
    scenarios, x, y0 = _evolution_fixture()
    spec = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7, x_coef=(0.05,), intercept=0.2),
                       peer=LinearPeer(1.2, 0.3))
    _assert_evolves_as_reference([spec] * 3, make_weights, scenarios, x, y0, seed=4)
    # One scenario, as simulate_panel evolves it, with noise.
    noisy = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.9, intercept=-0.3), noise_sd=0.3)
    (want_y,), (want_e,) = _reference_evolve([noisy], make_weights(), scenarios[:1], x, y0, 6)
    panel, exposure = simulate_panel(noisy, make_weights(), scenarios[0], x, y0, seed=6)
    _assert_same_bits(panel.values, want_y, "simulate_panel outcomes")
    _assert_same_bits(exposure.values, want_e, "simulate_panel exposures")
    # A sweep: exposure runs (A, B) and (C), response runs (A), (B, C) and
    # (D), and a threshold column D beside the weighted-sum ones.
    unit_1 = LinearUnit(w_coef=1.0, y_coef=0.7, trend=0.1)
    unit_2 = LinearUnit(w_coef=0.8, y_coef=0.6, intercept=-0.2)
    sweep = [
        linear_spec(unit=unit_1, peer=LinearPeer(1.2, 0.3), noise_sd=0.2),
        linear_spec(unit=unit_2, peer=LinearPeer(1.2, 0.3), noise_sd=0.2),
        linear_spec(unit=unit_2, peer=LinearPeer(0.5, -0.4), noise_sd=0.2),
        linear_spec(unit=unit_2, exposure=MeanFieldThreshold(0.3, 1.5)),
    ]
    columns = [sp for sp in sweep for _ in scenarios]
    _assert_evolves_as_reference(columns, make_weights, scenarios * len(sweep), x, y0, seed=7)


def test_threshold_evolution_matches_the_unit_major_reference():
    scenarios, x, y0 = _evolution_fixture()
    columns = [linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7), exposure=MeanFieldThreshold(tau, 2.0))
               for tau in (0.1, 0.5, 0.9) for _ in scenarios]
    _assert_evolves_as_reference(columns, _MAKE_WEIGHTS["clustered"], scenarios * 3, x, y0, seed=2)


@pytest.mark.parametrize("kind", ["clustered", "influencer", "lazy_gaussian"])
def test_constant_broadcasts_evolve_as_materialized_panels(kind):
    # The nobody- and everybody-treated panels are stride-0 broadcasts; a
    # sweep of weighted-sum and threshold columns (whose levels come from the
    # panels' treated fractions) evolves them as it does full F-ordered copies.
    make_weights = _MAKE_WEIGHTS[kind]
    (observed, *constants), x, y0 = _evolution_fixture()
    assert all(w.values.strides == (0, 0) for w in constants)
    materialized = [TreatmentPanel(np.full((_N, _T), v, order="F")) for v in (0.0, 1.0)]
    unit = LinearUnit(w_coef=1.0, y_coef=0.7, trend=0.1)
    sweep = [linear_spec(unit=unit, peer=LinearPeer(1.2, 0.3), noise_sd=0.2)]
    sweep += [linear_spec(unit=unit, exposure=MeanFieldThreshold(tau, strength), noise_sd=0.2)
              for tau in (0.1, 0.5, 0.9) for strength in (0.0, 1.5)]
    columns = [sp for sp in sweep for _ in range(3)]
    got = counterfactual_suite(columns, make_weights(), [observed, *constants] * len(sweep), x, y0, seed=9)
    want = counterfactual_suite(columns, make_weights(), [observed, *materialized] * len(sweep), x, y0, seed=9)
    assert _same_object_groups(got) == _same_object_groups(want)
    for k, (a, b) in enumerate(zip(got, want)):
        _assert_same_bits(a.values, b.values, f"outcomes of column {k}")


def _stacked_exposures(weights, spec, scenarios, panels, t):
    """One ``weights.apply`` call on the (N, s) stack of the columns' peer
    signals at round t, read from their evolved panels."""
    signals = np.column_stack([spec.peer.value(w.column(t), y.column(t - 1)) for w, y in zip(scenarios, panels)])
    return weights.apply(signals, t)


@pytest.mark.parametrize("kind", ["clustered", "influencer"])
def test_structured_exposures_are_the_stacked_apply_bit_for_bit(kind):
    # Structured kinds get one column per weights.apply call; the exposures
    # the engine keeps are still those of one call on the round's stack.
    from spillsim.dynamics import _evolve

    scenarios, x, y0 = _evolution_fixture()
    weights = _MAKE_WEIGHTS[kind]()
    spec = linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7, trend=0.1), peer=LinearPeer(1.2, 0.3), noise_sd=0.2)
    panel, exposure = simulate_panel(spec, weights, scenarios[0], x, y0, seed=3)
    panels, mats = _evolve(spec, weights, scenarios, x, y0, 3, keep_exposures=True)
    for t in range(1, _T + 1):
        one = _stacked_exposures(weights, spec, scenarios[:1], [panel], t)
        _assert_same_bits(exposure.column(t), one[:, 0], f"simulate_panel exposures of round {t}")
        stack = _stacked_exposures(weights, spec, scenarios, panels, t)
        for k, mat in enumerate(mats):
            _assert_same_bits(mat.column(t), stack[:, k], f"exposures of column {k}, round {t}")


@pytest.mark.parametrize("kind", sorted(_MAKE_WEIGHTS))
def test_each_structured_column_gets_its_own_apply_call(kind, monkeypatch):
    # A column-independent kind is called once per weighted-sum column and
    # round with that column alone, after the round's noise is drawn; any
    # other kind once per round with the whole stack, before the noise row
    # exists. Threshold columns never reach weights.apply.
    from spillsim import dynamics

    weights = _MAKE_WEIGHTS[kind]()
    calls, apply, substream = [], type(weights).apply, dynamics.substream
    monkeypatch.setattr(type(weights), "apply", lambda ws, gv, t: calls.append((t, np.shape(gv))) or apply(ws, gv, t))
    monkeypatch.setattr(dynamics, "substream", lambda *key: calls.append(key) or substream(*key))
    scenarios, x, y0 = _evolution_fixture()
    unit = LinearUnit(w_coef=1.0, y_coef=0.7)
    specs = [linear_spec(unit=unit, noise_sd=0.2), linear_spec(unit=unit, exposure=MeanFieldThreshold(0.3, 1.5)),
             linear_spec(unit=unit, peer=LinearPeer(0.5, -0.4), noise_sd=0.2)]
    counterfactual_suite(specs * 3, weights, [w for w in scenarios for _ in specs], x, y0, seed=1)
    if weights.column_independent:
        want = [call for t in range(1, _T + 1) for call in [(1, "noise", t)] + [(t, (_N, 1))] * 6]
    else:
        want = [call for t in range(1, _T + 1) for call in [(t, (_N, 6)), (1, "noise", t)]]
    assert calls == want
    assert weights.column_independent == (kind in ("clustered", "influencer"))


@pytest.mark.parametrize("kind", sorted(_MAKE_WEIGHTS))
def test_evolution_with_several_noise_scales_matches_the_unit_major_reference(kind):
    # Noise scales 0.2, 0.5 and none: the noise is scaled afresh for each
    # row, not in place, and a noiseless row sits between noisy ones.
    scenarios, x, y0 = _evolution_fixture()
    unit = LinearUnit(w_coef=0.8, y_coef=0.6, intercept=-0.2)
    sweep = [
        linear_spec(unit=unit, peer=LinearPeer(1.2, 0.3), noise_sd=0.2),
        linear_spec(unit=unit, peer=LinearPeer(1.2, 0.3), noise_sd=0.0),
        linear_spec(unit=unit, exposure=MeanFieldThreshold(0.3, 1.5), noise_sd=0.5),
        linear_spec(unit=LinearUnit(w_coef=1.0, y_coef=0.7, trend=0.1), noise_sd=0.5),
    ]
    columns = [sp for sp in sweep for _ in scenarios]
    _assert_evolves_as_reference(columns, _MAKE_WEIGHTS[kind], scenarios * len(sweep), x, y0, seed=11)


def test_panels_constant_over_units_take_their_fractions_from_one_row():
    # A panel whose units all share each round's value (stride 0 over units)
    # has that value as its treated fraction, exactly as the mean over units.
    from spillsim.dynamics import _Plan

    rounds = np.array([0.0, 1.0, 1.0, 0.0])
    by_round = TreatmentPanel._built(np.broadcast_to(rounds, (5, 4)))
    nobody, everybody = (assign(DesignSpec(kind="constant", n_units=5, n_rounds=4, value=v), 0) for v in (0, 1))
    observed = assign(DesignSpec(kind="bernoulli", n_units=5, n_rounds=4, probs=(0.1, 0.5, 0.5, 0.9)), 3)
    unit = LinearUnit(w_coef=1.0, y_coef=0.5)
    specs = [linear_spec(unit=unit, exposure=MeanFieldThreshold(tau, 2.0)) for tau in (0.25, 0.75)] * 4
    scenarios = [panel for panel in (by_round, nobody, everybody, observed) for _ in range(2)]
    plan = _Plan.of(specs, scenarios, 1, True, None)
    index, lead, levels = _block_columns(plan, 0)
    want_index, want_lead, want_levels = _distinct_columns_per_column(specs, scenarios)
    assert (index, lead, plan.lead) == (want_index, want_lead, want_lead)
    assert levels.tobytes() == want_levels.tobytes()
    assert levels[:, 0].tolist() == (2.0 * rounds).tolist()


def _block_columns(plan, b):
    """Block b's part of a ``_Plan`` in the format of
    ``_distinct_columns_per_column``: the rows its requested columns read,
    renumbered in order of first appearance, the first column to read each
    and their threshold levels, (n_rounds, d)."""
    block_rows, levels = plan.block_rows, plan.levels
    rows, number = block_rows[b], {}
    index = [number.setdefault(row, len(number)) for row in rows]
    return index, [rows.index(row) for row in number], levels[:, b, list(number), 0]


def _distinct_columns_per_column(specs, scenarios):
    """The rows of ``_Plan.of`` as one threshold level per column: the reference
    for its single comparison over every threshold column."""
    fractions, distinct = {}, {}
    index, levels = [], np.zeros((scenarios[0].n_rounds, len(scenarios)))
    for k, (sp, w) in enumerate(zip(specs, scenarios)):
        if isinstance(sp.exposure, MeanFieldThreshold):
            if id(w) not in fractions:
                fractions[id(w)] = w.values.T.mean(axis=1)
            levels[:, k] = sp.exposure.strength * (fractions[id(w)] > sp.exposure.tau).astype(np.float64)
            exposure = levels[:, k].tobytes()
        else:
            exposure = (sp.exposure, sp.peer)
        key = (id(w), sp.unit, sp.noise_sd, exposure)
        if key not in distinct:
            distinct[key] = (len(distinct), k)
        index.append(distinct[key][0])
    lead = [k for _, k in distinct.values()]
    return index, lead, levels[:, lead]


def test_each_block_of_units_gets_the_columns_it_would_get_alone():
    # Three blocks of four units: the ramp's block 1 crosses tau = 0.5 where
    # blocks 0 and 2 do not, so its threshold columns part where theirs merge.
    from spillsim.dynamics import _Plan

    block_ramps = [[[0, 0, 0, 0]] * 4, [[0, 1, 1, 1]] * 4, [[0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]
    ramp = TreatmentPanel(np.concatenate(block_ramps).astype(float))
    everybody = assign(DesignSpec(kind="constant", n_units=12, n_rounds=4, value=1), 0)
    unit = LinearUnit(w_coef=1.0, y_coef=0.5)
    specs = [linear_spec(unit=unit, exposure=MeanFieldThreshold(0.5, 2.0)), linear_spec(unit=unit),
             linear_spec(unit=unit, exposure=MeanFieldThreshold(0.5, 0.0)), linear_spec(unit=unit)]
    scenarios = [ramp, ramp, ramp, everybody]
    plan = _Plan.of(specs, scenarios, 3, True, None)
    assert plan.levels.shape == (4, 3, 4, 1)
    for b in range(3):
        index, lead, levels = _block_columns(plan, b)
        alone = {id(w): TreatmentPanel(w.values[4 * b : 4 * b + 4]) for w in scenarios}
        want_index, want_lead, want_levels = _distinct_columns_per_column(specs, [alone[id(w)] for w in scenarios])
        assert (index, lead) == (want_index, want_lead)
        assert levels.tobytes() == want_levels.tobytes()
    # Columns 0 and 2 part in block 1, so they take two rows.
    assert (plan.lead, plan.block_rows) == ([0, 1, 2, 3], [[0, 1, 0, 3], [0, 1, 2, 3], [0, 1, 0, 3]])


@pytest.mark.parametrize("order", ["requested", "reversed", "shuffled"])
def test_threshold_levels_of_all_columns_match_the_per_column_levels(order):
    from spillsim.dynamics import _Plan

    # Treated fractions 0, 1/4, 1/2 and 3/4 by round: tau = 0.5 and 0.25 sit
    # exactly on a round's fraction, which does not exceed them.
    ramp = TreatmentPanel(np.array([[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=float))
    observed = assign(DesignSpec(kind="bernoulli", n_units=4, n_rounds=4, probs=(0.1, 0.5, 0.5, 0.9)), 3)
    nobody, everybody = (assign(DesignSpec(kind="constant", n_units=4, n_rounds=4, value=v), 0) for v in (0, 1))
    unit = LinearUnit(w_coef=1.0, y_coef=0.5)
    thresholds = [linear_spec(unit=unit, exposure=MeanFieldThreshold(tau, strength))
                  for tau in (0.25, 0.5, 0.7) for strength in (0.0, -0.0, 2.0, -1.5)]
    weighted = [linear_spec(unit=unit), linear_spec(unit=LinearUnit(w_coef=2.0), peer=LinearPeer(0.5, 0.1))]
    # Weighted-sum columns between threshold columns, and every treatment
    # panel shared by many columns.
    specs = [sp for k, th in enumerate(thresholds) for sp in (th, weighted[k % 2])]
    panels = [ramp, observed, nobody, everybody]
    scenarios = [panels[k % 3] for k in range(len(specs))]
    specs += thresholds[:3] + [thresholds[1]]
    scenarios += [ramp, ramp, everybody, ramp]
    perm = {"requested": range(len(specs)), "reversed": range(len(specs) - 1, -1, -1),
            "shuffled": np.random.default_rng(5).permutation(len(specs))}[order]
    specs, scenarios = [specs[k] for k in perm], [scenarios[k] for k in perm]

    plan = _Plan.of(specs, scenarios, 1, True, None)
    index, lead, levels = _block_columns(plan, 0)
    want_index, want_lead, want_levels = _distinct_columns_per_column(specs, scenarios)
    assert (index, lead, plan.lead) == (want_index, want_lead, want_lead)
    assert levels.shape == want_levels.shape and levels.dtype == want_levels.dtype
    assert levels.tobytes() == want_levels.tobytes()
    # The fixture shares columns, and its levels fall on both sides of a tau
    # with both signs of zero.
    assert len(set(index)) < len(specs)
    assert {2.0, -1.5} <= set(levels.ravel().tolist())
    assert np.signbit(levels[levels == 0.0]).any() and not np.signbit(levels[levels == 0.0]).all()


def _input_fault(case):
    """Call the public entry point named by ``case`` with one faulty input;
    the rest is a valid two-round fixture on four units."""
    ws, spec = gen_clustered(4, 1, 1.0, 0.0), linear_spec()
    w = assign(DesignSpec(kind="bernoulli", n_units=4, n_rounds=2, probs=(0.5, 0.5)), 1)
    x, y0 = round_index_covariates(4, 2), np.zeros(4)
    if case == "exposure_shapes":
        return compute_exposure(ws, spec, np.zeros(4), np.zeros(3), np.zeros((4, 1)), 1)
    if case == "exposure_population":
        return compute_exposure(ws, spec, np.zeros(5), np.zeros(5), np.zeros((5, 1)), 1)
    if case == "step_shapes":
        return step(spec, np.zeros(4), np.zeros(4), np.zeros((4, 1)), np.zeros(3), np.zeros(4), 1)
    if case == "no_scenarios":
        return counterfactual_suite(spec, ws, [], x, y0, 0)
    if case == "scenario_shapes":
        other = assign(DesignSpec(kind="constant", n_units=4, n_rounds=3, value=1), 0)
        return counterfactual_suite(spec, ws, [w, other], x, y0, 0)
    if case == "spec_count":
        return counterfactual_suite([spec], ws, [w, w], x, y0, 0)
    if case == "keep_range":
        return counterfactual_suite(spec, ws, [w], x, y0, 0, keep=[3])
    if case == "baseline_shape":
        return simulate_panel(spec, ws, w, x, np.zeros(5), 0)
    if case == "baseline_finite":
        return simulate_panel(spec, ws, w, x, np.array([0.0, np.inf, 0.0, 0.0]), 0)
    if case == "covariate_shape":
        return simulate_panel(spec, ws, w, round_index_covariates(4, 3), y0, 0)
    if case == "weight_population":
        return simulate_panel(spec, gen_clustered(5, 1, 1.0, 0.0), w, x, y0, 0)
    assert case == "residual_seed"
    noisy = linear_spec(noise_sd=0.5)
    y, e = simulate_panel(noisy, ws, w, x, y0, 0)
    return evolution_residual(noisy, ws, w, x, y, e)


@pytest.mark.parametrize(
    "case, message",
    [
        ("exposure_shapes", "treatment and lagged outcome columns must share a shape"),
        ("exposure_population", "columns disagree with the weight set population size"),
        ("step_shapes", "step inputs must share a shape"),
        ("no_scenarios", "need at least one treatment scenario"),
        ("scenario_shapes", r"all scenarios must share \(n_units, n_rounds\)"),
        ("spec_count", "1 dynamics specs for 2 scenarios"),
        ("keep_range", r"keep entry 3 outside the scenarios 0\.\.0"),
        ("baseline_shape", r"initial outcomes must have shape \(4,\)"),
        ("baseline_finite", "initial outcomes must be finite"),
        ("covariate_shape", "covariate panel does not match the scenarios"),
        ("weight_population", "columns disagree with the weight set population size"),
        ("residual_seed", "seed required to re-evaluate noisy dynamics"),
    ],
)
def test_evolution_entry_points_name_each_input_fault(case, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _input_fault(case)


@pytest.mark.parametrize("evolve", ["simulate_panel", "counterfactual_suite", "step", "evolution_residual"])
def test_evolution_refuses_more_covariate_coefficients_than_covariates(evolve):
    # Once an IndexError from inside the unit response.
    spec = linear_spec(unit=LinearUnit(w_coef=1.0, x_coef=(1.0, 2.0)))
    ws, x = gen_clustered(4, 1, 1.0, 0.0), round_index_covariates(4, 2)
    w = assign(DesignSpec(kind="bernoulli", n_units=4, n_rounds=2, probs=(0.5, 0.5)), 1)
    y, e = simulate_panel(linear_spec(), ws, w, x, np.zeros(4), 0)
    calls = {
        "simulate_panel": lambda: simulate_panel(spec, ws, w, x, np.zeros(4), 0),
        "counterfactual_suite": lambda: counterfactual_suite(spec, ws, [w], x, np.zeros(4), 0),
        "step": lambda: step(spec, w.column(1), y.column(0), x.column(1), e.column(1), np.zeros(4), 1),
        "evolution_residual": lambda: evolution_residual(spec, ws, w, x, y, e),
    }
    with pytest.raises(ValueError, match=r"^x_coef lists more coefficients than the 1 covariates$"):
        calls[evolve]()


def test_engine_built_panels_are_views_of_read_only_buffers():
    # Treatments, outcomes and exposures are views of the engine's buffers,
    # and no panel can be changed through the array that owns its memory.
    w = assign(DesignSpec(kind="bernoulli", n_units=4, n_rounds=2, probs=(0.5, 0.5)), 1)
    y, e = simulate_panel(linear_spec(), gen_clustered(4, 1, 1.0, 0.0), w, round_index_covariates(4, 2), np.ones(4), 0)
    assert e.values.base.shape == (2, 1, 4)  # the round-major exposure buffer, not a copy
    for panel in (w, y, e):
        base = panel.values.base
        assert base is not None and not base.flags.writeable and not panel.values.flags.writeable
        before = panel.values.copy()
        with pytest.raises(ValueError, match="read-only"):
            base[(0,) * base.ndim] = 123.0
        assert np.array_equal(panel.values, before)
