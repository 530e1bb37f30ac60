import math

import numpy as np
import pytest

from spillsim.design import DesignSpec, assign
from spillsim.dynamics import DynamicsSpec, LinearPeer, LinearUnit, MeanFieldThreshold, WeightedSumExposure, ZeroPeer
from spillsim.harness import ScenarioConfig, WeightConfig, failure_sweep, replicate, run_once


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
