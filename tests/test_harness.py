import math
import re
from pathlib import Path

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


def test_run_once_refuses_a_weight_set_of_no_kind():
    # A matrix built in code exposes no structure to the estimators, so the
    # replication names its class instead of scoring it.
    from spillsim.weights import ExplicitDenseWeights

    with pytest.raises(ValueError, match="^ExplicitDenseWeights is not the engine of any weight kind$"):
        run_once(linear_config(n=6), 11, weights=ExplicitDenseWeights(np.full((6, 6), 1 / 6)))


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
    assert a.to_dict() == b.to_dict()
    assert "runtime_seconds" not in a.to_dict()


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


def test_fixed_network_replications_match_the_materialized_oracle():
    # A fixed network serves every replication's pass, each with signals of
    # its own. Over independent networks, the engine fixed_network builds and
    # the materialized oracle must give two passes of two rounds the same law:
    # per pass, round, unit and column the exposures' mean and variance, and
    # the covariance of every entry of the first pass with every entry of the
    # second. Each difference is a two-sample z statistic; the bound leaves a
    # 0.1% chance that any of them exceeds it by luck.
    from statistics import NormalDist

    from spillsim.weights import GaussianWeightParams, gen_dense_gaussian

    n, draws = 4, 4000
    weights = WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0, mu_t=0.3, sigma2_t=0.5)
    params = GaussianWeightParams(**weights.params)
    # The second pass sends the first pass's round-1 ones column again.
    first = np.column_stack([np.linspace(-1.0, 2.0, n), np.ones(n)])
    second = np.column_stack([np.ones(n), np.linspace(2.0, -0.5, n)])

    def two_passes(ws):
        exposures = []
        for g in (first, second):  # round 2's signals follow round 1's exposures
            e1 = ws.apply(g, 1)
            exposures.append([e1, ws.apply(np.tanh(e1) + 0.5 * g, 2)])
        return np.array(exposures).reshape(2, -1)  # (pass, round x unit x column)

    def stats(e):
        c = e - e.mean(axis=0)
        cross = c[:, 0, :, None] * c[:, 1, None, :]
        per_draw = np.concatenate([e.reshape(draws, -1), (c**2).reshape(draws, -1), cross.reshape(draws, -1)], axis=1)
        return per_draw.mean(axis=0), per_draw.var(axis=0) / draws

    (a, var_a), (b, var_b) = (
        stats(np.array([two_passes(make(seed)) for seed in range(draws)]))
        for make in (
            lambda seed: weights.build(n, 2, seed),
            # Disjoint seeds: both engines draw from the same substream names.
            lambda seed: gen_dense_gaussian(n, params, 2, 10**6 + seed),
        )
    )
    z = np.abs(a - b) / np.sqrt(var_a + var_b)
    assert z.size == 32 + 32 + 16 * 16
    bound = NormalDist().inv_cdf(1 - 0.001 / (2 * z.size))
    assert z.max() < bound, f"largest |z| {z.max():.2f} of {z.size}, bound {bound:.2f}"


def test_fixed_network_runs_at_a_size_the_materialized_matrix_cannot(monkeypatch):
    # At N = 10^5 a materialized network takes 80 GB; the lazy one grows by
    # 16 N bytes per distinct column. Both replications read the one network
    # the run built.
    import dataclasses

    from spillsim import harness
    from spillsim.dynamics import counterfactual_suite
    from spillsim.weights import LazyGaussianWeights

    cfg = dataclasses.replace(
        linear_config(n=100_000, t_max=2, reps=2, seed=3),
        weights=WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0),
        fixed_network=True,
        estimators=("dm",),
    )
    builds, networks = [], []
    build = WeightConfig.build
    monkeypatch.setattr(WeightConfig, "build", lambda self, *a, **k: builds.append(a) or build(self, *a, **k))

    def spy(spec, weights, *args, **kwargs):
        networks.append(weights)
        return counterfactual_suite(spec, weights, *args, **kwargs)

    monkeypatch.setattr(harness, "counterfactual_suite", spy)
    report = replicate(cfg)
    assert [r.seed for r in report.records] == [3, 4]
    assert builds == [(100_000, 2, 3)] and len(networks) == 2
    assert networks[0] is networks[1] and isinstance(networks[0], LazyGaussianWeights)


def test_sweep_degenerate_grid_reduces_to_replicate():
    config = linear_config(n=60, noise=0.1, seed=31, reps=2)
    table = failure_sweep(config, "trend", [0.0])
    base = replicate(config)
    (report,) = table.reports
    for name, summary in report.summaries.items():
        assert summary.bias == pytest.approx(base.summaries[name].bias)
        assert summary.rmse == pytest.approx(base.summaries[name].rmse)


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


def test_empty_population_is_still_rejected():
    import dataclasses

    # DesignSpec rejects it, and a config must match its design's dimensions.
    with pytest.raises(ValueError, match="design dimensions disagree"):
        dataclasses.replace(linear_config(n=20), n_units=0)
    with pytest.raises(ValueError, match="at least one unit"):
        dataclasses.replace(
            linear_config(n=20), n_units=0, design=DesignSpec(kind="constant", n_units=0, n_rounds=4, value=0)
        )


def test_each_estimator_and_weight_kind_name_is_listed_once_in_the_source():
    # The one exception: an estimator's weight_kind= names the kind it needs.
    import spillsim
    from spillsim.harness import ESTIMATORS, WEIGHT_KINDS

    lines = [line for path in Path(spillsim.__file__).parent.glob("*.py") for line in path.read_text().splitlines()]
    names = [*ESTIMATORS, *WEIGHT_KINDS]
    assert len(names) == 8
    counts = {name: sum(f'"{name}"' in line for line in lines) for name in names}
    needed = {name: sum(est.weight_kind == name for est in ESTIMATORS.values()) for name in names}
    assert needed["clustered"] == needed["influencer"] == 1
    assert counts == {name: 1 + needed[name] for name in names}


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
        labels += [rec.seed, sorted(rec.estimates)]
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


def test_lazy_dense_sweep_is_invariant_to_grid_order_and_duplicates():
    # A fixed network serves every seed's pass; each pass sees the same
    # distinct columns whatever the grid's order and duplicates.
    for config in (_trend_config(DENSE_WEIGHTS), _trend_config(DENSE_WEIGHTS, fixed_network=True)):
        ab = failure_sweep(config, "trend", [0.5, 2.0]).reports
        ba = failure_sweep(config, "trend", [2.0, 0.5]).reports
        _assert_same_report(ab[0], ba[1])
        _assert_same_report(ab[1], ba[0])
        twice = failure_sweep(config, "trend", [0.5, 0.5]).reports
        _assert_same_report(twice[0], twice[1])
        # A grid value's columns alone give the same draws as replicate's pass.
        _assert_same_report(twice[0], replicate(_at_value(config, "trend", 0.5)))


def test_estimators_see_only_observed_panels(monkeypatch):
    # counterfactual_suite evolves [observed, nobody treated, everybody
    # treated] per dynamics spec; the estimators may get the first alone,
    # and the counterfactuals are not even kept as panels. Both seeds of the
    # sweep evolve in one call.
    from spillsim import harness
    from spillsim.dynamics import counterfactual_suite
    from spillsim.harness import estimate_rounds

    suites, fits = [], []

    def suite(*args, **kwargs):
        panels = counterfactual_suite(*args, **kwargs)
        suites.append(panels)
        return panels

    def estimate(config, y, w, *args):
        fits.append((config, y, w))
        return estimate_rounds(config, y, w, *args)

    monkeypatch.setattr(harness, "counterfactual_suite", suite)
    monkeypatch.setattr(harness, "estimate_rounds", estimate)
    run_once(linear_config(n=30), 5)
    failure_sweep(_threshold_config(reps=2), "threshold_strength", [0.0, 1.0, 2.0])
    observed = {id(p) for panels in suites for p in panels[0::3]}
    counterfactual = [p for panels in suites for k, p in enumerate(panels) if k % 3]
    assert len(suites) == 2 and len(fits) >= 3
    assert counterfactual and all(p is None for p in counterfactual)
    for config, y, w in fits:
        assert id(y) in observed
        assert all(w is not c for c in config._constant_scenarios)


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
    with pytest.raises(FloatingPointError, match=r"^trend=1e\+308, seed 60: non-finite outcome for unit 0 "
                                                 r"at round 2 in scenario observed$"):
        failure_sweep(_trend_config(INFLUENCER_WEIGHTS, reps=1), "trend", [0.0, 1e308])


def test_replication_errors_name_the_scenario():
    import dataclasses

    config = linear_config(n=10)
    # Round 1 treats every unit only in the universal-treatment scenario, and
    # round 2 feeds its huge treatment effect back.
    config = dataclasses.replace(config, dynamics=dataclasses.replace(
        config.dynamics, unit=LinearUnit(w_coef=1e300, y_coef=1e10)))
    with pytest.raises(FloatingPointError, match=r"^seed 1: non-finite outcome for unit 0 at round 2 "
                                                 r"in scenario all$"):
        run_once(config, 1)


# --- shared estimator pass ---------------------------------------------------------


CLUSTERED_WEIGHTS = WeightConfig(kind="clustered", n_clusters=2, w_in=1.0, w_out=0.2)


@pytest.mark.parametrize(
    "weights, estimators",
    [
        (CLUSTERED_WEIGHTS, ("dm", "ese_basic", "ese_cluster")),
        (INFLUENCER_WEIGHTS, ("ht", "ese_basic", "ese_influencer")),
    ],
    ids=["clustered", "influencer"],
)
def test_ese_fits_share_one_factoring_per_base_tuple(monkeypatch, weights, estimators):
    # Every shipped ESE feature set has the base columns (1, w, y), so a
    # replication factors its observed panels once. Specs with different
    # base tuples are tested on fit_ese directly.
    import dataclasses

    from spillsim import estimators as estimators_mod
    from spillsim import harness
    from spillsim.estimators import fit_ese

    config = dataclasses.replace(_trend_config(weights, reps=1, seed=8), estimators=estimators)
    calls, panels = [], []
    round_factors, suite = estimators_mod._round_factors, harness.counterfactual_suite

    def counted(*args):
        calls.append(args[2])
        return round_factors(*args)

    def captured(spec, weights, scenarios, *args, **kwargs):
        out = suite(spec, weights, scenarios, *args, **kwargs)
        panels.append((out[0], scenarios[0], harness.structure_of(weights)))
        return out

    monkeypatch.setattr(estimators_mod, "_round_factors", counted)
    monkeypatch.setattr(harness, "counterfactual_suite", captured)
    record = run_once(config, 8)
    assert len(calls) == 1
    (y, w, structure), = panels
    for name in estimators:
        if name.startswith("ese_"):
            want = fit_ese(y, w, config.feature_spec(name, structure), structure)
            got = record.coefficients[name]
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), name
            assert got.rss == want.rss


def test_ground_truth_trajectories_are_the_round_means_of_gt_tte(monkeypatch):
    # The trajectories and gt_tte take a round's mean by one reduction, so
    # the last round's gap is gt_tte bit for bit. At this N adding the units
    # in sequence gives other bits in some round.
    from spillsim import harness

    calls, suite = [], harness.counterfactual_suite

    def captured(*args, **kwargs):
        calls.append(args)
        return suite(*args, **kwargs)

    monkeypatch.setattr(harness, "counterfactual_suite", captured)
    record = run_once(linear_config(n=2000, noise=0.3), 5)
    panels = suite(*calls[0])  # the same columns, every one kept whole
    for got, panel in ((record.gt_control, panels[1]), (record.gt_treated, panels[2])):
        want = np.array([panel.column(t).mean() for t in range(panel.n_rounds + 1)])
        assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))
    gap = np.float64(record.gt_treated[-1]) - np.float64(record.gt_control[-1])
    assert np.float64(record.gt_tte).view(np.uint64) == gap.view(np.uint64)


@pytest.mark.parametrize("kind", ["clustered", "influencer", "lazy_gaussian", "threshold_sweep"])
def test_ground_truth_is_the_column_means_of_the_full_suite(monkeypatch, kind):
    # run_once keeps only the observed panels whole and takes the ground truth
    # from the counterfactual columns' round means as they evolve. Those have
    # the bits of column_mean of the panels that counterfactual_suite returns
    # when it keeps every column. The sweep's grid values share columns.
    from spillsim import harness
    from spillsim.dynamics import ground_truth_tte
    from spillsim.panel import column_mean

    weights = {"clustered": CLUSTERED_WEIGHTS, "influencer": INFLUENCER_WEIGHTS, "lazy_gaussian": DENSE_WEIGHTS}
    sweep = None
    if kind == "threshold_sweep":
        config = _threshold_config(reps=1)
        sweep = harness._sweep_grid(config, "threshold_strength", [0.0, 1.0, 1.0, 2.0])
    else:
        config = _trend_config(weights[kind], reps=1)
    calls, suite = [], harness.counterfactual_suite
    monkeypatch.setattr(harness, "counterfactual_suite", lambda *a, **k: calls.append(a) or suite(*a, **k))
    records = run_once(config, config.base_seed, sweep=sweep)
    (args,) = calls
    # Fresh weights of the same seed, so the suite draws its images anew
    # instead of reading those run_once's pass left in a lazy set.
    panels = suite(args[0], config.weights.build(config.n_units, config.n_rounds, config.base_seed), *args[2:])
    assert all(panel is not None for panel in panels)
    if sweep is not None:
        assert len({id(panel) for panel in panels}) < len(panels)
    for k, record in enumerate(records if sweep else (records,)):
        control, treated = panels[3 * k + 1 : 3 * k + 3]
        for got, panel in ((record.gt_control, control), (record.gt_treated, treated)):
            want = [column_mean(panel, t) for t in range(config.n_rounds + 1)]
            assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        tte = ground_truth_tte(control, treated, config.n_rounds)
        assert np.float64(record.gt_tte).view(np.uint64) == np.float64(tte).view(np.uint64)


def test_run_once_retains_no_outcome_buffer(monkeypatch):
    # The shared factors live for one estimator pass: once run_once returns,
    # nothing may keep the (T + 1, 1, N) buffer of the observed panel alive.
    import gc
    import weakref

    from spillsim import harness

    refs, suite = [], harness.counterfactual_suite

    def watched(*args, **kwargs):
        out = suite(*args, **kwargs)
        refs.append(weakref.ref(out[0].values.base))
        return out

    monkeypatch.setattr(harness, "counterfactual_suite", watched)
    record = run_once(_trend_config(CLUSTERED_WEIGHTS, reps=1, estimators=("dm", "ese_basic", "ese_cluster")), 8)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert set(record.coefficients) == {"ese_basic", "ese_cluster"}


def _evolution_peak_rows(t_max: int, grid_values: int) -> int:
    """The traced peak of one replication of clustered.cfg, in rows of N
    float64s, with ``grid_values`` values of a trend sweep (1: no sweep). The
    inputs are the baseline, T assignment rounds and cluster membership:
    T + 2 rows. Each value keeps its observed panel's T + 1 rounds, and its
    two counterfactual columns one state row each. Clustered weights take
    one column per ``weights.apply`` call, so the round's temporaries do not
    grow with the columns: the noise, drawn before the columns respond and
    scaled in place, and while a column responds its exposure row and one
    product (3)."""
    distinct = 3 * grid_values
    held = grid_values * (t_max + 1) + (distinct - grid_values)
    return (t_max + 2) + held + 3


# Bytes of interpreter objects a traced replication may hold beyond its rows.
TRACED_SLACK = 64 << 10


def _traced_peak_of_run_once(n: int, grid: list[float] | None = None) -> int:
    import re
    import tracemalloc

    from spillsim.config import parse_config
    from spillsim.harness import _sweep_grid

    def config_of(n_units):
        text = (Path(__file__).resolve().parents[1] / "configs" / "clustered.cfg").read_text()
        return parse_config(re.sub(r"(?m)^n_units\s*=.*$", f"n_units = {n_units}", text))

    # A first call allocates what every later call reuses (imports, caches),
    # so a small one runs before the traced window opens.
    warm = config_of(1200)
    run_once(warm, warm.base_seed, sweep=None if grid is None else _sweep_grid(warm, "trend", grid))
    config = config_of(n)
    sweep = None if grid is None else _sweep_grid(config, "trend", grid)
    tracemalloc.start()
    try:
        run_once(config, config.base_seed, sweep=sweep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_one_replication_holds_one_outcome_panel_at_scale():
    # clustered.cfg at N = 2*10^5 (T = 5, three distinct columns, one kept):
    # 18 rows, 144 B/unit. A stacked weights.apply call per round, with
    # responses built in fresh temporaries, peaked at 176 B/unit.
    n = 200_000
    peak, bound = _traced_peak_of_run_once(n), 8 * n * _evolution_peak_rows(5, 1) + TRACED_SLACK
    assert peak <= bound, f"traced peak {peak / n:.0f} B/unit, bound {bound / n:.0f} B/unit"


def test_one_replication_of_a_sweep_holds_one_round_of_temporaries():
    # A five-value trend sweep of clustered.cfg at N = 5*10^4 (15 distinct
    # columns, five kept): 50 rows, 400 B/unit. A stacked weights.apply call
    # per round peaked at 624 B/unit, and the block responses before it at
    # 912.
    n = 50_000
    peak = _traced_peak_of_run_once(n, [0.0, 0.1, 0.2, 0.3, 0.4])
    bound = 8 * n * _evolution_peak_rows(5, 5) + TRACED_SLACK
    assert peak <= bound, f"traced peak {peak / n:.0f} B/unit, bound {bound / n:.0f} B/unit"


@pytest.mark.parametrize(
    "name, parameter, rows, kept",
    [
        # Observed, nobody treated and everybody treated, the observed kept.
        ("clustered", None, 3, 1),
        # The observed ramp never crosses tau, so every strength leaves the
        # observed and nobody-treated columns alike; the everybody-treated
        # columns part by strength.
        ("threshold", "threshold_strength", 7, 1),
        # README's G x 3 columns, G kept, for G grid values that part all.
        ("clustered", "trend", 15, 5),
    ],
)
def test_a_replication_evolves_the_rows_the_readme_counts(monkeypatch, name, parameter, rows, kept):
    from spillsim import dynamics
    from spillsim.config import parse_config
    from spillsim.harness import _sweep_grid

    plans, of = [], dynamics._Plan.of

    def spy(*args):
        plans.append(of(*args))
        return plans[-1]

    monkeypatch.setattr(dynamics._Plan, "of", staticmethod(spy))
    text = (Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg").read_text()
    config = parse_config(re.sub(r"(?m)^n_units\s*=.*$", "n_units = 200", text))
    sweep = None if parameter is None else _sweep_grid(config, parameter, [0.0, 1.0, 2.0, 3.0, 4.0])
    run_once(config, config.base_seed, sweep=sweep)
    assert [(len(plan.lead), len(plan.kept)) for plan in plans] == [(rows, kept)]


def test_aggregation_overflow_names_the_estimator_value_and_seed():
    import dataclasses

    from spillsim.harness import RunRecord, _aggregate

    def record(seed, estimate):
        return RunRecord(seed=seed, estimates={"dm": estimate}, gt_tte=0.5, gt_control=(0.0,), gt_treated=(0.5,),
                         ese_trajectories={}, coefficients={})

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


def test_sweep_averages_each_shared_counterfactual_panel_once_per_seed():
    # Below tau the nobody-treated panel does not depend on the threshold
    # strength, so every grid value of a seed takes its round means from one
    # average; each strength moves the everybody-treated panel.
    config = _ramp_below_tau_config(reps=2)
    table = failure_sweep(config, "threshold_strength", GRID)
    for r in range(config.n_reps):
        records = [report.records[r] for report in table.reports]
        assert len({id(rec.gt_control) for rec in records}) == 1
        assert len({id(rec.gt_treated) for rec in records}) == len(GRID)
    for value, report in zip(GRID, table.reports):
        _assert_same_report(report, replicate(_at_value(config, "threshold_strength", value)))


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


@pytest.mark.parametrize(
    "name, parameter, grid, distinct",
    [("threshold", "threshold_strength", [0, 1, 2, 3, 4], 7), ("trend_weak_signal", "trend", [0, 0.5, 1, 2, 3], 15)],
)
def test_sweep_evolves_each_distinct_column_once_per_seed(monkeypatch, name, parameter, grid, distinct):
    # Below tau the observed ramp and the nobody-treated panel do not depend
    # on the threshold strength, so a seed of the threshold sweep evolves 1 +
    # 1 + 5 of its 15 columns; every trend value changes every column.
    from spillsim import harness
    from spillsim.config import parse_config

    config = parse_config((Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg").read_text())
    # Every column is kept, so that each distinct column has its own panel.
    suites, suite = [], harness.counterfactual_suite
    monkeypatch.setattr(harness, "counterfactual_suite",
                        lambda *a, **k: suites.append(suite(*a, **{**k, "keep": None})) or suites[-1])
    run_once(config, config.base_seed, sweep=harness._sweep_grid(config, parameter, grid))
    (panels,) = suites
    assert len(panels) == 3 * len(grid) and len({id(panel) for panel in panels}) == distinct


# --- seeds evolved in batches ------------------------------------------------------


BATCH = 3  # seeds per batch in the tests below


def _batched(monkeypatch, config: ScenarioConfig) -> ScenarioConfig:
    """``config`` with 2 x BATCH + 1 replications, whose seeds evolve BATCH
    at a time, so the last batch holds one seed."""
    import dataclasses

    from spillsim import harness

    monkeypatch.setattr(harness, "SEED_BATCH_UNITS", BATCH * config.n_units)
    return dataclasses.replace(config, n_reps=2 * BATCH + 1)


def _count_suites(monkeypatch) -> list:
    """The seed argument of every ``harness.counterfactual_suite`` call."""
    from spillsim import harness

    calls, suite = [], harness.counterfactual_suite
    monkeypatch.setattr(harness, "counterfactual_suite", lambda *a, **k: calls.append(a[5]) or suite(*a, **k))
    return calls


def _seed_by_seed(config: ScenarioConfig, **kwargs) -> list:
    """``run_once`` of every seed of the run, each evolved alone."""
    return [run_once(config, seed, **kwargs) for seed in range(config.base_seed, config.base_seed + config.n_reps)]


def _crossing_threshold_config() -> ScenarioConfig:
    # Round 3 treats 40% of units in expectation, and tau sits there: some
    # seeds cross it and some do not, so the columns a seed evolves alike
    # differ between the seeds of a batch.
    import dataclasses

    cfg = _threshold_config()
    return dataclasses.replace(cfg, dynamics=dataclasses.replace(cfg.dynamics, exposure=MeanFieldThreshold(0.4, 0.0)))


@pytest.mark.parametrize(
    "config, parameter, grid",
    [
        (_trend_config(DENSE_WEIGHTS), "trend", [0.0, 0.5, 2.0]),
        (_trend_config(CLUSTERED_WEIGHTS, estimators=CLUSTER_ESTIMATORS), "trend", [0.0, 1.0, 0.0]),
        (_trend_config(INFLUENCER_WEIGHTS, estimators=("dm", "ese_basic", "ese_influencer")), "trend", [0.5, 3.0]),
        (_crossing_threshold_config(), "threshold_strength", [0.0, 1.5, 3.0]),
    ],
    ids=["lazy_dense", "clustered", "influencer", "threshold"],
)
def test_seeds_evolved_in_batches_keep_the_bits_of_each_seed_alone(monkeypatch, config, parameter, grid):
    from spillsim import harness

    config = _batched(monkeypatch, config)
    sweep = harness._sweep_grid(config, parameter, grid)
    alone, swept_alone = _seed_by_seed(config), _seed_by_seed(config, sweep=sweep)
    calls = _count_suites(monkeypatch)
    report, table = replicate(config), failure_sweep(config, parameter, grid)
    # Batches of 3, 3 and 1 seeds, in both runs.
    assert [len(c) if isinstance(c, list) else 1 for c in calls] == [BATCH, BATCH, 1] * 2
    _assert_same_report(report, harness._aggregate(config, alone, 0.0))
    for k, value in enumerate(grid):
        want = harness._aggregate(config, [records[k] for records in swept_alone], 0.0, f"{parameter}={value!r}, ")
        _assert_same_report(table.reports[k], want)
    if parameter == "threshold_strength":
        crossed = [assign(config.design, seed).values[:, 2].mean() > 0.4 for seed in (40, 41, 42)]
        assert any(crossed) and not all(crossed)


def test_a_fixed_lazy_network_evolves_one_seed_at_a_time(monkeypatch):
    # The one lazy engine a fixed network shares draws its images in the
    # order of its calls, so its seeds evolve one at a time, in seed order.
    from spillsim.harness import _aggregate

    config = _batched(monkeypatch, _trend_config(DENSE_WEIGHTS, fixed_network=True))
    network = config.weights.build(config.n_units, config.n_rounds, config.base_seed)
    alone = _seed_by_seed(config, weights=network)
    calls = _count_suites(monkeypatch)
    report = replicate(config)
    assert calls == list(range(60, 60 + config.n_reps))
    _assert_same_report(report, _aggregate(config, alone, 0.0))


def _plant_baselines(monkeypatch, values: dict) -> None:
    """Give unit 7 of each seed in ``values`` that baseline outcome."""
    from spillsim import harness

    inputs = harness.observed_inputs

    def planted(config, seed, weights=None):
        weights, w_obs, x, y0 = inputs(config, seed, weights)
        if seed in values:
            y0 = y0.copy()
            y0[7] = values[seed]
        return weights, w_obs, x, y0

    monkeypatch.setattr(harness, "observed_inputs", planted)


def _error_of(run) -> str:
    with pytest.raises(FloatingPointError) as info:
        run()
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("later_overflows", [False, True])
def test_a_batch_raises_the_error_of_the_run_seed_by_seed(monkeypatch, later_overflows):
    # Outcomes grow tenfold a round. The second seed of the first batch
    # overflows at round 3; the third, at round 1, is the one the batch's
    # evolution meets first. The error must still name the second, or an
    # estimator overflow of the first seed, scored before the second
    # evolves in a run seed by seed.
    import dataclasses

    config = linear_config(n=40, seed=5)
    config = _batched(monkeypatch, dataclasses.replace(
        config, dynamics=dataclasses.replace(config.dynamics, unit=LinearUnit(y_coef=10.0))))
    _plant_baselines(monkeypatch, {6: 1e306, 7: 1e308})
    if later_overflows:
        _count_fits(monkeypatch, overflow_at=1)
        want = r"^EstimatorOverflow: ese_basic at seed 5: overflow encountered in matmul$"
    else:
        want = r"^FloatingPointError: seed 6: non-finite outcome for unit 7 at round 3 in scenario observed$"
    alone = _error_of(lambda: _seed_by_seed(config))
    if later_overflows:
        _count_fits(monkeypatch, overflow_at=1)
    assert _error_of(lambda: replicate(config)) == alone
    assert re.match(want, alone), alone


def _traced_peak_of_replicate(n: int) -> tuple[int, int]:
    """The traced peak of ``replicate`` on clustered.cfg at N = n with one
    batch of seeds, and the number of seeds in it."""
    import dataclasses
    import tracemalloc

    from spillsim.config import parse_config
    from spillsim.harness import SEED_BATCH_UNITS

    def config_of(n_units):
        text = (Path(__file__).resolve().parents[1] / "configs" / "clustered.cfg").read_text()
        config = parse_config(re.sub(r"(?m)^n_units\s*=.*$", f"n_units = {n_units}", text))
        return dataclasses.replace(config, n_reps=SEED_BATCH_UNITS // n_units)

    replicate(config_of(1200))  # what every later call reuses (imports, caches)
    config = config_of(n)
    tracemalloc.start()
    try:
        replicate(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, config.n_reps


def test_a_batch_of_seeds_holds_each_seed_s_replication_rows():
    # clustered.cfg at N = 2000 evolves its S = 4 seeds in one batch: the
    # joined inputs, each seed's kept panel and state rows, the round's
    # temporaries for all of them, then one seed's fit at a time. A fit that
    # factors every round at once (about 40 rows of N) on top of the batch's
    # held rows (about 45) peaks at 87 rows.
    n = 2000
    peak, seeds = _traced_peak_of_replicate(n)
    assert seeds == 4
    bound = 8 * n * seeds * _evolution_peak_rows(5, 1) + TRACED_SLACK
    assert peak <= bound, f"traced peak {peak / (8 * n):.1f} rows of N, bound {bound / (8 * n):.1f}"
