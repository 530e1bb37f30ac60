import itertools

import numpy as np
import pytest

from spillsim.design import DesignSpec, assign
from spillsim.dynamics import (
    DynamicsSpec,
    LinearPeer,
    LinearUnit,
    MeanFieldThreshold,
    SaturatingUnit,
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
from spillsim.weights import ExplicitDenseWeights, GaussianWeightParams, gen_dense_gaussian

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


def test_saturating_unit_bounded():
    spec = linear_spec(unit=SaturatingUnit(w_coef=5.0, y_coef=5.0, scale=2.0), peer=ZeroPeer())
    y = step(spec, np.ones(3), np.array([10.0, -10.0, 0.0]), np.zeros((3, 1)), np.zeros(3), np.zeros(3), 1)
    assert np.all(np.abs(y) <= 2.0)


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
