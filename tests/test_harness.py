import math

import numpy as np
import pytest

from spillsim.design import DesignSpec, assign
from spillsim.dynamics import DynamicsSpec, LinearPeer, LinearUnit, MeanFieldThreshold, WeightedSumExposure, ZeroPeer
from spillsim.harness import EstimatorOverflow, ScenarioConfig, WeightConfig, failure_sweep, replicate, run_once


def uniform_weights() -> WeightConfig:
    # one cluster with w_in = 1 gives every ordered pair weight 1/n
    return WeightConfig(kind="clustered", n_clusters=1, w_in=1.0, w_out=0.0)


def linear_config(n=400, t_max=4, noise=0.0, w_coef=1.0, peer_w=0.6, reps=1, seed=11) -> ScenarioConfig:
    return ScenarioConfig(
        n_units=n,
        n_rounds=t_max,
        weights=uniform_weights(),
        dynamics=DynamicsSpec(
            unit=LinearUnit(w_coef=w_coef, y_coef=0.8, intercept=0.2),
            peer=LinearPeer(w_coef=peer_w, y_coef=0.3),
            exposure=WeightedSumExposure(),
            noise_sd=noise,
        ),
        design=DesignSpec(kind="bernoulli", n_units=n, n_rounds=t_max, probs=(0.0, 0.2, 0.4, 0.8)[:t_max]),
        estimators=("dm", "ht", "ese_basic"),
        baseline_mean=0.5,
        baseline_sd=1.0,
        base_seed=seed,
        n_reps=reps,
    )


def null_config(n=100, reps=1, seed=3, noise=0.1) -> ScenarioConfig:
    # treatment cannot enter the dynamics anywhere
    cfg = linear_config(n=n, reps=reps, seed=seed)
    import dataclasses

    dyn = DynamicsSpec(
        unit=LinearUnit(w_coef=0.0, y_coef=0.8, intercept=0.2),
        peer=LinearPeer(w_coef=0.0, y_coef=0.3),
        exposure=WeightedSumExposure(),
        noise_sd=noise,
    )
    return dataclasses.replace(cfg, dynamics=dyn)


def _hand_oracle(config: ScenarioConfig, seed: int):
    """Loop re-implementation of one replication, independent of the engine."""
    from spillsim.rng import substream

    n, t_max = config.n_units, config.n_rounds
    w_obs = assign(config.design, seed).values
    y0 = config.baseline_mean + config.baseline_sd * substream(seed, "baseline").standard_normal(n)
    dyn = config.dynamics

    def roll(w):
        y = np.empty((n, t_max + 1))
        y[:, 0] = y0
        for t in range(1, t_max + 1):
            w_t = w[:, t - 1]
            peer = dyn.peer.w_coef * w_t + dyn.peer.y_coef * y[:, t - 1]
            expo = np.full(n, peer.mean())  # uniform 1/n weights
            y[:, t] = dyn.unit.w_coef * w_t + dyn.unit.y_coef * y[:, t - 1] + dyn.unit.intercept + expo
        return y

    y_obs = roll(w_obs)
    y_none = roll(np.zeros((n, t_max)))
    y_all = roll(np.ones((n, t_max)))
    return w_obs, y_obs, y_none, y_all


def test_run_once_matches_hand_oracle():
    config = linear_config(n=60, seed=21)
    record = run_once(config, 21)
    _, y_obs, y_none, y_all = _hand_oracle(config, 21)
    assert record.gt_tte == pytest.approx(y_all[:, -1].mean() - y_none[:, -1].mean(), abs=1e-9)
    assert np.allclose(record.gt_control, y_none.mean(axis=0), atol=1e-9)
    assert np.allclose(record.gt_treated, y_all.mean(axis=0), atol=1e-9)


def test_run_once_dm_matches_hand_formula():
    config = linear_config(n=60, seed=4)
    record = run_once(config, 4)
    w_obs, y_obs, _, _ = _hand_oracle(config, 4)
    last_w, last_y = w_obs[:, -1], y_obs[:, -1]
    expected = last_y[last_w == 1].mean() - last_y[last_w == 0].mean()
    assert record.estimates["dm"] == pytest.approx(expected, abs=1e-9)


def test_null_scenario_gt_zero_and_trajectories_coincide():
    # Noiseless inert-treatment dynamics: the fit is exact, so the treatment
    # coefficients vanish and the two counterfactual trajectories agree.
    record = run_once(null_config(noise=0.0), 3)
    assert record.gt_tte == 0.0
    lo, hi = record.ese_trajectories["ese_basic"]
    assert np.allclose(lo, hi, atol=1e-8)


def test_null_scenario_noisy_trajectories_close_at_scale():
    # With outcome noise the gap shrinks at the fit's sampling scale.
    record = run_once(null_config(n=2000, noise=0.05), 3)
    assert record.gt_tte == 0.0
    lo, hi = record.ese_trajectories["ese_basic"]
    assert np.max(np.abs(np.array(hi) - np.array(lo))) < 0.05


def test_run_once_deterministic():
    config = linear_config(n=50, noise=0.3, seed=8)
    a = run_once(config, 8)
    b = run_once(config, 8)
    assert a.estimates == b.estimates
    assert a.gt_tte == b.gt_tte
    assert a.gt_treated == b.gt_treated
    assert a.ese_trajectories == b.ese_trajectories


def test_estimator_isolation_flag():
    record = run_once(linear_config(n=30), 5)
    assert record.estimators_isolated


def test_ese_exact_recovery_noiseless():
    config = linear_config(n=400, noise=0.0, seed=2)
    record = run_once(config, 2)
    assert record.estimates["ese_basic"] == pytest.approx(record.gt_tte, abs=1e-6)


def test_replicate_single_rep_equals_record():
    config = linear_config(n=80, noise=0.2, seed=14, reps=1)
    report = replicate(config)
    record = run_once(config, 14)
    assert report.n_reps == 1
    for name, est in record.estimates.items():
        summary = report.summaries[name]
        assert summary.mean_estimate == pytest.approx(est)
        assert summary.bias == pytest.approx(est - record.gt_tte)
        assert summary.rmse == pytest.approx(abs(est - record.gt_tte))


def test_replicate_report_algebra():
    config = linear_config(n=60, noise=0.4, seed=100, reps=12)
    report = replicate(config)
    for name, summary in report.summaries.items():
        errs = np.array(
            [rec.estimates[name] - rec.gt_tte for rec in report.records if rec.estimates[name] is not None]
        )
        var = float(np.mean((errs - errs.mean()) ** 2))
        assert summary.rmse**2 == pytest.approx(summary.bias**2 + var, rel=1e-9)
        assert summary.bias**2 <= summary.rmse**2 + 1e-12


def test_replicate_null_scenario_clt_bound():
    report = replicate(null_config(n=100, reps=100, seed=500))
    dm = report.summaries["dm"]
    ests = np.array([r.estimates["dm"] for r in report.records if r.estimates["dm"] is not None])
    assert abs(dm.bias) <= 4.0 * ests.std() / math.sqrt(len(ests)) + 1e-12


def test_no_estimate_excluded_not_failed():
    import dataclasses

    config = linear_config(n=40, reps=3, seed=9)
    config = dataclasses.replace(
        config, design=DesignSpec(kind="constant", n_units=40, n_rounds=4, value=1), estimators=("dm", "ht")
    )
    report = replicate(config)
    assert report.summaries["dm"].n_excluded == 3
    assert report.summaries["ht"].n_excluded == 3
    assert math.isnan(report.summaries["dm"].bias)


def test_replicate_deterministic():
    config = linear_config(n=50, noise=0.3, seed=77, reps=4)
    a = replicate(config)
    b = replicate(config)
    assert a.to_dict(include_runtime=False) == b.to_dict(include_runtime=False)


def test_fixed_network_mode_shares_weights_across_reps():
    import dataclasses

    base = linear_config(n=40, reps=2, seed=1)
    cfg = dataclasses.replace(
        base,
        weights=WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0),
        fixed_network=True,
        dynamics=DynamicsSpec(
            unit=LinearUnit(w_coef=0.0, y_coef=0.0, intercept=0.0),
            peer=LinearPeer(w_coef=0.0, y_coef=1.0),
            exposure=WeightedSumExposure(),
            noise_sd=0.0,
        ),
        estimators=("dm",),
        baseline_sd=0.0,
        baseline_mean=1.0,
    )
    # outcome at t=1 is the row sum of the static weights times the constant
    # baseline, so identical across reps iff the network is shared
    reps = [run_once(cfg, cfg.base_seed + r) for r in range(2)]
    assert reps[0].gt_control == reps[1].gt_control


def test_fixed_network_replications_match_the_materialized_oracle(monkeypatch):
    # Seed-dependent baselines, noise and assignments make every replication's
    # signals differ, so only one shared realization reproduces every panel.
    import dataclasses

    from spillsim import harness
    from spillsim.dynamics import counterfactual_suite
    from spillsim.weights import GaussianWeightParams, gen_dense_gaussian

    params = GaussianWeightParams(1.0, 1.0, 0.2, 0.3)
    cfg = dataclasses.replace(
        linear_config(n=30, t_max=3, noise=0.2, reps=3, seed=5),
        weights=WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0, mu_t=0.2, sigma2_t=0.3),
        fixed_network=True,
    )
    calls = []

    def spy(spec, weights, scenarios, x, y0, seed):
        panels = counterfactual_suite(spec, weights, scenarios, x, y0, seed)
        calls.append((scenarios, x, y0, seed, panels))
        return panels

    monkeypatch.setattr(harness, "counterfactual_suite", spy)
    replicate(cfg)
    assert len(calls) == 3 and len({y0.tobytes() for _, _, y0, _, _ in calls}) == 3
    oracle = gen_dense_gaussian(cfg.n_units, params, cfg.n_rounds, cfg.base_seed)
    for scenarios, x, y0, seed, panels in calls:
        again = counterfactual_suite(cfg.dynamics, oracle, scenarios, x, y0, seed)
        for got, want in zip(panels, again):
            assert np.array_equal(got.values, want.values)


def test_dense_gaussian_engine_follows_fixed_network():
    from spillsim.weights import DenseGaussianWeights, LazyGaussianWeights

    wc = WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0)
    assert isinstance(wc.build(10, 2, 0), LazyGaussianWeights)
    assert isinstance(wc.build(10, 2, 0, shared=True), DenseGaussianWeights)


def test_sweep_degenerate_grid_reduces_to_replicate():
    config = linear_config(n=60, noise=0.1, seed=31, reps=2)
    table = failure_sweep(config, "trend", [0.0])
    base = replicate(config)
    for row in table.rows:
        assert row.bias == pytest.approx(base.summaries[row.estimator].bias)
        assert row.rmse == pytest.approx(base.summaries[row.estimator].rmse)


def test_sweep_rejects_empty_grid_and_bad_parameter():
    config = linear_config(n=20)
    with pytest.raises(ValueError):
        failure_sweep(config, "trend", [])
    with pytest.raises(ValueError):
        failure_sweep(config, "threshold_strength", [1.0])  # not a threshold scenario
    with pytest.raises(ValueError):
        failure_sweep(config, "nope", [1.0])


def test_sweep_threshold_parameter_applies():
    import dataclasses

    config = linear_config(n=50, reps=1, seed=6)
    dyn = dataclasses.replace(config.dynamics, exposure=MeanFieldThreshold(tau=0.5, strength=0.0))
    config = dataclasses.replace(config, dynamics=dyn)
    table = failure_sweep(config, "threshold_strength", [0.0, 3.0])
    gt_by_value = {}
    for value, report in zip((0.0, 3.0), table.reports):
        gt_by_value[value] = report.gt_tte_mean
    # stronger threshold exposure raises the all-treated trajectory
    assert gt_by_value[3.0] > gt_by_value[0.0]


def test_config_cross_validation():
    import dataclasses

    base = dataclasses.replace(linear_config(n=20), weights=WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=0.0))
    with pytest.raises(ValueError, match="ese_cluster"):
        dataclasses.replace(base, estimators=("ese_cluster",))
    with pytest.raises(ValueError, match="ese_influencer"):
        dataclasses.replace(base, estimators=("ese_influencer",))


def test_cluster_and_influencer_estimators_run():
    import dataclasses

    base = linear_config(n=60, reps=1, seed=44)
    clustered = dataclasses.replace(
        base,
        weights=WeightConfig(kind="clustered", n_clusters=2, w_in=1.0, w_out=0.2),
        estimators=("ese_cluster",),
    )
    rec = run_once(clustered, 44)
    assert rec.estimates["ese_cluster"] is not None
    # one influencer keeps the scenario-level feature count within T = 4
    influencer = dataclasses.replace(
        base,
        weights=WeightConfig(kind="influencer", influencers=(0,), w_inf=1.0, w_base=0.5),
        estimators=("ese_influencer",),
    )
    rec = run_once(influencer, 44)
    assert rec.estimates["ese_influencer"] is not None


# --- seed-major sweeps ---------------------------------------------------------


def _threshold_config(reps=3, seed=40) -> ScenarioConfig:
    import dataclasses

    cfg = linear_config(n=80, noise=0.2, reps=reps, seed=seed)
    return dataclasses.replace(
        cfg,
        weights=WeightConfig(kind="clustered", n_clusters=2, w_in=1.0, w_out=0.3),
        dynamics=dataclasses.replace(cfg.dynamics, exposure=MeanFieldThreshold(tau=0.3, strength=0.0)),
        estimators=("dm", "ht", "ese_basic", "ese_cluster"),
    )


def _trend_config(weights: WeightConfig, reps=3, seed=60, **kwargs) -> ScenarioConfig:
    import dataclasses

    return dataclasses.replace(linear_config(n=70, noise=0.2, reps=reps, seed=seed), weights=weights, **kwargs)


INFLUENCER_WEIGHTS = WeightConfig(kind="influencer", influencers=(5,), w_inf=0.8, w_base=0.4)
DENSE_WEIGHTS = WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0, mu_t=0.1, sigma2_t=0.2)


def _at_value(config: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """The scenario with one grid value substituted, built independently of
    the sweep code."""
    import dataclasses

    dyn = config.dynamics
    if parameter == "trend":
        dyn = dataclasses.replace(dyn, unit=dataclasses.replace(dyn.unit, trend=value))
    else:
        dyn = dataclasses.replace(dyn, exposure=dataclasses.replace(dyn.exposure, strength=value))
    return dataclasses.replace(config, dynamics=dyn)


def _report_numbers(report) -> tuple[list, np.ndarray]:
    """Every label and every number of a report and its records, including
    trajectories and coefficients, in a fixed order."""
    labels, numbers = [report.n_reps], []
    for name, s in sorted(report.summaries.items()):
        labels += [name, s.n_used, s.n_excluded]
        numbers += [s.mean_estimate, s.bias, s.rmse]
    numbers += [report.gt_tte_mean, *report.gt_control, *report.gt_treated]
    for name, (lo, hi) in sorted(report.ese_trajectories.items()):
        labels.append(name)
        numbers += [*lo, *hi]
    for rec in report.records:
        labels += [rec.seed, rec.estimators_isolated, sorted(rec.estimates)]
        numbers += [rec.estimates[k] for k in sorted(rec.estimates)]
        numbers += [rec.gt_tte, *rec.gt_control, *rec.gt_treated]
        for name, (lo, hi) in sorted(rec.ese_trajectories.items()):
            labels.append(name)
            numbers += [*lo, *hi]
        for name, coeffs in sorted(rec.coefficients.items()):
            labels += [name, coeffs.names, coeffs.n_rows]
            numbers += [*coeffs.values, coeffs.rss]
    return labels, np.array(numbers, dtype=np.float64)


def _assert_same_report(got, want, rel: float = 0.0) -> None:
    got_labels, got_numbers = _report_numbers(got)
    want_labels, want_numbers = _report_numbers(want)
    assert got_labels == want_labels
    if rel == 0.0:
        assert np.array_equal(got_numbers.view(np.uint64), want_numbers.view(np.uint64))
    else:
        assert np.all(np.abs(got_numbers - want_numbers) <= rel * np.abs(want_numbers)), (got_numbers, want_numbers)


@pytest.mark.parametrize(
    "config, parameter, grid",
    [
        (_threshold_config(), "threshold_strength", [0.0, 1.5, 3.0]),
        (_trend_config(INFLUENCER_WEIGHTS, estimators=("dm", "ese_basic", "ese_influencer")), "trend", [0.0, 0.5, 2.0]),
    ],
    ids=["clustered_threshold", "influencer_trend"],
)
def test_sweep_reports_equal_per_value_replicates_bit_for_bit(config, parameter, grid):
    # Weights that do not depend on the seed make every grid value's panels
    # independent of the others, so the lockstep pass must change no bit.
    table = failure_sweep(config, parameter, grid)
    assert len(table.reports) == len(grid)
    for value, report in zip(grid, table.reports):
        _assert_same_report(report, replicate(_at_value(config, parameter, value)))


def test_fixed_network_sweep_matches_per_value_replicates():
    # One materialized network serves every grid value; a wider matrix
    # product may block its sums differently, so only the last bits may move.
    config = _trend_config(DENSE_WEIGHTS, fixed_network=True)
    grid = [0.0, 1.0, 2.5]
    table = failure_sweep(config, "trend", grid)
    for value, report in zip(grid, table.reports):
        _assert_same_report(report, replicate(_at_value(config, "trend", value)), rel=1e-12)


def test_lazy_dense_sweep_is_invariant_to_grid_order_and_duplicates():
    config = _trend_config(DENSE_WEIGHTS)
    ab = failure_sweep(config, "trend", [0.5, 2.0]).reports
    ba = failure_sweep(config, "trend", [2.0, 0.5]).reports
    _assert_same_report(ab[0], ba[1])
    _assert_same_report(ab[1], ba[0])
    twice = failure_sweep(config, "trend", [0.5, 0.5]).reports
    _assert_same_report(twice[0], twice[1])
    # A grid value's columns alone give the same draws as replicate's pass.
    _assert_same_report(twice[0], replicate(_at_value(config, "trend", 0.5)))


def test_sweep_runs_each_seed_once_through_run_once(monkeypatch):
    from spillsim import harness

    calls = []
    original = harness.run_once

    def spy(config, seed, *args, **kwargs):
        calls.append(seed)
        return original(config, seed, *args, **kwargs)

    monkeypatch.setattr(harness, "run_once", spy)
    config = _threshold_config(reps=3, seed=40)
    table = failure_sweep(config, "threshold_strength", [0.0, 1.0, 2.0, 3.0])
    assert calls == [40, 41, 42]
    assert [[r.seed for r in rep.records] for rep in table.reports] == [[40, 41, 42]] * 4


@pytest.mark.parametrize(
    "config, builds",
    [
        (_threshold_config(reps=3), (1, 1)),
        (_trend_config(WeightConfig(kind="influencer", influencers=(1,), w_inf=1.0, w_base=0.2)), (1, 1)),
        (_trend_config(DENSE_WEIGHTS, fixed_network=True), (1, 1)),
        (_trend_config(DENSE_WEIGHTS, reps=3), (3, 3)),
    ],
    ids=["clustered", "influencer", "fixed_network", "lazy_dense"],
)
def test_weights_built_once_per_run_unless_seed_dependent(monkeypatch, config, builds):
    calls = []
    original = WeightConfig.build

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WeightConfig, "build", spy)
    replicate(config)
    after_benchmark = len(calls)
    parameter = "threshold_strength" if isinstance(config.dynamics.exposure, MeanFieldThreshold) else "trend"
    failure_sweep(config, parameter, [0.0, 1.0])
    assert (after_benchmark, len(calls) - after_benchmark) == builds


def test_counterfactual_panels_are_read_only_views_of_one_buffer():
    from spillsim.dynamics import counterfactual_suite
    from spillsim.panel import round_index_covariates
    from spillsim.weights import gen_clustered

    config = linear_config(n=20, noise=0.3)
    w_obs = assign(config.design, 3)
    w_all = assign(DesignSpec(kind="constant", n_units=20, n_rounds=4, value=1), 3)
    panels = counterfactual_suite(
        config.dynamics, gen_clustered(20, 1, 1.0, 0.0), [w_obs, w_all, w_obs], round_index_covariates(20, 4),
        np.linspace(-1.0, 1.0, 20), 3,
    )
    buffer = panels[0].values.base
    assert buffer is not None
    for panel in panels:
        assert panel.values.base is buffer and np.shares_memory(panel.values, buffer)
        assert not panel.values.flags.writeable
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0
    assert np.array_equal(panels[0].values, panels[2].values)


def test_sweep_errors_name_the_grid_value():
    with pytest.raises(ValueError, match=r"threshold_strength=nan: threshold strength must be finite"):
        failure_sweep(_threshold_config(), "threshold_strength", [0.0, float("nan")])
    with pytest.raises(FloatingPointError, match=r"^trend=1e\+308: non-finite outcome for unit 0 at round 2 "
                                                 r"in scenario observed$"):
        failure_sweep(_trend_config(INFLUENCER_WEIGHTS, reps=1), "trend", [0.0, 1e308])


def test_replication_errors_name_the_scenario():
    import dataclasses

    config = linear_config(n=10)
    # Round 1 treats every unit only in the universal-treatment scenario, and
    # round 2 feeds its huge treatment effect back.
    config = dataclasses.replace(config, dynamics=dataclasses.replace(
        config.dynamics, unit=LinearUnit(w_coef=1e300, y_coef=1e10)))
    with pytest.raises(FloatingPointError, match=r"^non-finite outcome for unit 0 at round 2 in scenario all$"):
        run_once(config, 1)


# --- shared estimator pass ---------------------------------------------------------


CLUSTERED_WEIGHTS = WeightConfig(kind="clustered", n_clusters=2, w_in=1.0, w_out=0.2)
OWN_TIMES_LAG = "intercept, own_treatment, lagged_outcome, own_times_lag"


@pytest.mark.parametrize(
    "weights, estimators, overrides, factorings",
    [
        (CLUSTERED_WEIGHTS, ("dm", "ese_basic", "ese_cluster"), {}, 1),
        (INFLUENCER_WEIGHTS, ("ht", "ese_basic", "ese_influencer"), {}, 1),
        # own_times_lag adds the w*y base column, so its fit factors anew.
        (CLUSTERED_WEIGHTS, ("ese_basic", "ese_cluster"), {"ese_basic": OWN_TIMES_LAG}, 2),
    ],
    ids=["clustered", "influencer", "own_times_lag_override"],
)
def test_ese_fits_share_one_factoring_per_base_tuple(monkeypatch, weights, estimators, overrides, factorings):
    import dataclasses

    from spillsim import estimators as estimators_mod
    from spillsim import harness
    from spillsim.estimators import FeatureSpec, fit_ese

    config = dataclasses.replace(
        _trend_config(weights, reps=1, seed=8), estimators=estimators,
        feature_overrides={name: FeatureSpec.parse(items.split(", ")) for name, items in overrides.items()},
    )
    calls, panels = [], []
    round_factors, suite = estimators_mod._round_factors, harness.counterfactual_suite

    def counted(*args):
        calls.append(args[2])
        return round_factors(*args)

    def captured(spec, weights, scenarios, *args):
        out = suite(spec, weights, scenarios, *args)
        panels.append((out[0], scenarios[0], harness.structure_of(weights)))
        return out

    monkeypatch.setattr(estimators_mod, "_round_factors", counted)
    monkeypatch.setattr(harness, "counterfactual_suite", captured)
    record = run_once(config, 8)
    assert len(calls) == factorings
    (y, w, structure), = panels
    for name in estimators:
        if name.startswith("ese_"):
            want = fit_ese(y, w, config.feature_spec(name, structure), structure)
            got = record.coefficients[name]
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), name
            assert got.rss == want.rss


def test_run_once_retains_no_outcome_buffer(monkeypatch):
    # The shared factors live for one estimator pass: once run_once returns,
    # nothing may keep the (3, N, T + 1) outcome buffer alive.
    import gc
    import weakref

    from spillsim import harness

    refs, suite = [], harness.counterfactual_suite

    def watched(*args):
        out = suite(*args)
        refs.append(weakref.ref(out[0].values.base))
        return out

    monkeypatch.setattr(harness, "counterfactual_suite", watched)
    record = run_once(_trend_config(CLUSTERED_WEIGHTS, reps=1, estimators=("dm", "ese_basic", "ese_cluster")), 8)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert set(record.coefficients) == {"ese_basic", "ese_cluster"}


def test_aggregation_overflow_names_the_estimator_value_and_seed():
    import dataclasses

    from spillsim.harness import RunRecord, _aggregate

    def record(seed, estimate):
        return RunRecord(seed=seed, estimates={"dm": estimate}, gt_tte=0.5, gt_control=(0.0,), gt_treated=(0.5,),
                         ese_trajectories={}, coefficients={}, estimators_isolated=True)

    config = dataclasses.replace(linear_config(), estimators=("dm",))
    records = [record(7, -3.0), record(5, 1.0), record(6, 1e200)]
    with pytest.raises(EstimatorOverflow, match=r"^dm at trend=2\.0, seed 6: overflow encountered in square$"):
        _aggregate(config, records, 0.0, "trend=2.0, ")


def test_ground_truth_overflow_names_the_grid_value_and_seed():
    # Outcomes near 1e308 are finite, but their population mean is not.
    message = r"^ground truth at trend=1e\+306, seed 60: overflow encountered in reduce$"
    with pytest.raises(EstimatorOverflow, match=message):
        failure_sweep(_trend_config(INFLUENCER_WEIGHTS, reps=1), "trend", [0.0, 1e306])


def test_constant_scenarios_are_built_once_per_run(monkeypatch):
    # The nobody- and everybody-treated panels depend on no seed: a run of
    # several replications assigns each of them once.
    from spillsim import design as design_mod

    calls = []
    original = design_mod.assign

    def counted(spec, seed):
        calls.append(spec.kind)
        return original(spec, seed)

    monkeypatch.setattr(design_mod, "assign", counted)
    config = linear_config(n=37, reps=3)
    report = replicate(config)
    assert calls.count("constant") == 2 and calls.count("bernoulli") == 3
    assert report.n_reps == 3
    none, everyone = config._constant_scenarios
    assert not none.values.any() and everyone.values.all()


# --- one estimator pass per distinct observed panel -----------------------------


def _ramp_below_tau_config(reps=3, seed=40) -> ScenarioConfig:
    # The observed ramp (at most 0.8 treated) stays below tau, so the swept
    # strength never reaches the observed panel.
    import dataclasses

    cfg = _threshold_config(reps=reps, seed=seed)
    exposure = MeanFieldThreshold(tau=0.95, strength=0.0)
    return dataclasses.replace(cfg, dynamics=dataclasses.replace(cfg.dynamics, exposure=exposure))


def _count_fits(monkeypatch, overflow_at: int | None = None) -> list:
    """Count ``harness.fit_ese`` calls; call number ``overflow_at`` raises."""
    from spillsim import harness

    calls, fit = [], harness.fit_ese

    def counted(*args, **kwargs):
        calls.append(args[2])
        if len(calls) == overflow_at:
            raise FloatingPointError("overflow encountered in matmul")
        return fit(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_ese", counted)
    return calls


GRID = [0.0, 0.5, 1.0, 2.0, 3.0]
CLUSTER_ESTIMATORS = ("dm", "ht", "ese_basic", "ese_cluster")


@pytest.mark.parametrize(
    "config, parameter, grid, passes",
    [
        (_ramp_below_tau_config(), "threshold_strength", GRID, 1),
        (_trend_config(CLUSTERED_WEIGHTS, estimators=CLUSTER_ESTIMATORS), "trend", GRID, len(GRID)),
        (_trend_config(CLUSTERED_WEIGHTS, estimators=CLUSTER_ESTIMATORS), "trend", [0.0, 0.5, 1.0, 0.5, 3.0], 4),
    ],
    ids=["threshold_below_tau", "trend", "trend_repeated_value"],
)
def test_sweep_fits_each_distinct_observed_panel_once_per_seed(monkeypatch, config, parameter, grid, passes):
    calls = _count_fits(monkeypatch)
    table = failure_sweep(config, parameter, grid)
    assert len(calls) == passes * config.n_reps * 2  # two ESE estimators
    for r in range(config.n_reps):
        records = [report.records[r] for report in table.reports]
        for attr in ("estimates", "ese_trajectories", "coefficients"):
            assert len({id(getattr(rec, attr)) for rec in records}) == len(grid), attr
    for value, report in zip(grid, table.reports):
        _assert_same_report(report, replicate(_at_value(config, parameter, value)))


def test_replicate_fits_once_per_seed(monkeypatch):
    calls = _count_fits(monkeypatch)
    config = _ramp_below_tau_config(reps=3)
    replicate(config)
    assert len(calls) == 3 * 2


def test_overflow_in_a_shared_pass_names_the_first_grid_value_and_the_seed(monkeypatch):
    import dataclasses

    _count_fits(monkeypatch, overflow_at=2)
    config = dataclasses.replace(_ramp_below_tau_config(reps=2), estimators=("dm", "ese_basic"))
    # Seed 40 fits once for all three values; the second fit is seed 41's,
    # made for the first grid value.
    message = r"^ese_basic at threshold_strength=2\.0, seed 41: overflow encountered in matmul$"
    with pytest.raises(EstimatorOverflow, match=message):
        failure_sweep(config, "threshold_strength", [2.0, 0.0, 1.0])
