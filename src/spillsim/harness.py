"""Closed-loop scenario runner and Monte Carlo benchmark.

One replication simulates an observed experiment, re-simulates the two
bracketing counterfactuals (nobody treated, everybody treated) under the same
weight and noise realization, runs every configured estimator on the observed
data alone, and scores each against the simulated truth. The benchmark
replicates this over a seed range and aggregates bias and RMSE; sweeps run
the benchmark along a grid of one dynamics parameter, seed by seed, with every
grid value sharing the seed's draws.

Estimators never see counterfactual panels; each replication carries an audit
flag asserting that isolation.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import design as design_mod
from .design import DesignSpec
from .dynamics import (
    DynamicsSpec,
    LinearUnit,
    MeanFieldThreshold,
    NonFiniteOutcome,
    counterfactual_suite,
    ground_truth_tte,
)
from .estimators import (
    ESECoefficients,
    FeatureSpec,
    ScenarioPath,
    StructureMetadata,
    basic_feature_spec,
    cluster_feature_spec,
    dm_estimate,
    ht_estimate,
    influencer_feature_spec,
    propagate,
)
from .estimators import fit_ese
from .panel import OutcomePanel, TreatmentPanel, column_mean, round_index_covariates
from .rng import substream
from .weights import (
    ClusteredWeights,
    GaussianWeightParams,
    InfluencerWeights,
    LazyGaussianWeights,
    WeightSet,
    gen_clustered,
    gen_dense_gaussian,
    gen_influencer,
)

CLASSICAL_ESTIMATORS = ("dm", "ht")
ESE_ESTIMATORS = ("ese_basic", "ese_cluster", "ese_influencer")
KNOWN_ESTIMATORS = CLASSICAL_ESTIMATORS + ESE_ESTIMATORS
# The counterfactual suite of one replication, in evolution order.
SCENARIOS = ("observed", "none", "all")


@dataclass(frozen=True)
class WeightConfig:
    """Declarative weight-set choice; built once per run unless it depends on
    the seed, then once per replication."""

    kind: str  # dense_gaussian | clustered | influencer | explicit
    mu: float = 0.0
    sigma2: float = 0.0
    mu_t: float = 0.0
    sigma2_t: float = 0.0
    n_clusters: int = 2
    w_in: float = 0.0
    w_out: float = 0.0
    influencers: tuple[int, ...] = ()
    w_inf: float = 0.0
    w_base: float = 0.0
    matrix_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("dense_gaussian", "clustered", "influencer", "explicit"):
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def depends_on_seed(self, shared: bool = False) -> bool:
        """Whether ``build`` draws a new weight set for each seed. Only the
        lazy Gaussian does; a shared (fixed) network is drawn once."""
        return self.kind == "dense_gaussian" and not shared

    def build(self, n_units: int, n_rounds: int, seed: int, shared: bool = False) -> WeightSet:
        """The weight set for one forward pass, or for several when ``shared``
        (a fixed network): only the materialized Gaussian can serve those."""
        if self.kind == "dense_gaussian":
            params = GaussianWeightParams(self.mu, self.sigma2, self.mu_t, self.sigma2_t)
            if shared:
                return gen_dense_gaussian(n_units, params, n_rounds, seed)
            return LazyGaussianWeights(n_units, params, n_rounds, seed)
        if self.kind == "clustered":
            return gen_clustered(n_units, self.n_clusters, self.w_in, self.w_out)
        if self.kind == "influencer":
            return gen_influencer(n_units, self.influencers, self.w_inf, self.w_base)
        from .weights import read_explicit_csv

        ws = read_explicit_csv(self.matrix_path)
        if ws.n_units != n_units:
            raise ValueError(f"explicit matrix is {ws.n_units}x{ws.n_units}, population is {n_units}")
        return ws


@dataclass(frozen=True)
class ScenarioConfig:
    n_units: int
    n_rounds: int
    weights: WeightConfig
    dynamics: DynamicsSpec
    design: DesignSpec
    estimators: tuple[str, ...] = ("dm", "ht", "ese_basic")
    feature_overrides: dict = field(default_factory=dict)
    baseline_mean: float = 0.0
    baseline_sd: float = 1.0
    base_seed: int = 0
    n_reps: int = 1
    fixed_network: bool = False

    def __post_init__(self):
        if self.n_units < 1 or self.n_rounds < 1:
            raise ValueError("population and round counts must be positive")
        if self.design.n_units != self.n_units or self.design.n_rounds != self.n_rounds:
            raise ValueError("design dimensions disagree with the population")
        if self.n_reps < 1:
            raise ValueError("replication count must be at least 1")
        for est in self.estimators:
            if est not in KNOWN_ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
        if "ese_cluster" in self.estimators and self.weights.kind != "clustered":
            raise ValueError("ese_cluster requires clustered weights")
        if "ese_influencer" in self.estimators and self.weights.kind != "influencer":
            raise ValueError("ese_influencer requires influencer weights")
        if not (np.isfinite(self.baseline_mean) and np.isfinite(self.baseline_sd) and self.baseline_sd >= 0):
            raise ValueError("baseline outcome moments must be finite, sd non-negative")

    def feature_spec(self, estimator: str, structure: StructureMetadata) -> FeatureSpec:
        if estimator in self.feature_overrides:
            return self.feature_overrides[estimator]
        if estimator == "ese_basic":
            return basic_feature_spec()
        if estimator == "ese_cluster":
            _, k = structure.require_clusters()
            return cluster_feature_spec(k)
        if estimator == "ese_influencer":
            return influencer_feature_spec(structure.require_influencers())
        raise ValueError(f"{estimator} has no feature spec")


@dataclass(frozen=True)
class RunRecord:
    seed: int
    estimates: dict[str, float | None]
    gt_tte: float
    gt_control: tuple[float, ...]
    gt_treated: tuple[float, ...]
    ese_trajectories: dict[str, tuple[tuple[float, ...], tuple[float, ...]]]
    coefficients: dict[str, ESECoefficients]
    estimators_isolated: bool


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    n_used: int
    n_excluded: int
    mean_estimate: float
    bias: float
    rmse: float

    def __post_init__(self):
        if self.n_used > 0 and self.bias**2 > self.rmse**2 + 1e-12:
            raise ValueError("aggregation broke bias^2 <= rmse^2")


@dataclass(frozen=True)
class BenchmarkReport:
    n_reps: int
    summaries: dict[str, EstimatorSummary]
    gt_tte_mean: float
    gt_control: tuple[float, ...]
    gt_treated: tuple[float, ...]
    ese_trajectories: dict[str, tuple[tuple[float, ...], tuple[float, ...]]]
    records: tuple[RunRecord, ...]
    runtime_seconds: float

    def to_dict(self, include_records: bool = True, include_runtime: bool = True) -> dict:
        out = {
            "n_reps": self.n_reps,
            "gt_tte_mean": self.gt_tte_mean,
            "gt_control_trajectory": list(self.gt_control),
            "gt_treated_trajectory": list(self.gt_treated),
            "estimators": {
                name: {
                    "n_used": s.n_used,
                    "n_excluded": s.n_excluded,
                    "mean_estimate": s.mean_estimate,
                    "bias": s.bias,
                    "rmse": s.rmse,
                }
                for name, s in self.summaries.items()
            },
            "ese_trajectories": {
                name: {"control": list(c), "treated": list(t)} for name, (c, t) in self.ese_trajectories.items()
            },
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        if include_records:
            out["records"] = [
                {"seed": r.seed, "gt_tte": r.gt_tte, "estimates": r.estimates} for r in self.records
            ]
        return out

    def write_json(self, path) -> None:
        # Emitted files must be reproducible from (config, seed); wall time is
        # reported on stdout instead.
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_runtime=False), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path, scenario: str = "scenario") -> None:
        """Flat rows: scenario, estimator, rep seed, estimate, truth, bias."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "estimator", "rep", "estimate", "gt", "bias"])
            for rec in self.records:
                for name, est in sorted(rec.estimates.items()):
                    if est is None:
                        writer.writerow([scenario, name, rec.seed, "", repr(rec.gt_tte), ""])
                    else:
                        writer.writerow(
                            [scenario, name, rec.seed, repr(est), repr(rec.gt_tte), repr(est - rec.gt_tte)]
                        )


def structure_of(weights: WeightSet) -> StructureMetadata:
    if isinstance(weights, ClusteredWeights):
        return StructureMetadata(membership=weights.membership, n_clusters=weights.n_clusters)
    if isinstance(weights, InfluencerWeights):
        return StructureMetadata(influencers=weights.influencers)
    return StructureMetadata()


def run_once(
    config: ScenarioConfig,
    seed: int,
    sweep: SweepGrid | None = None,
    weights: WeightSet | None = None,
) -> RunRecord | tuple[RunRecord, ...]:
    """One replication: assign, simulate, re-simulate counterfactuals, run the
    estimators on the observed data, and score them.

    With ``sweep``, the three scenarios of every grid value evolve in one
    lockstep pass on this seed's weights, assignments, baseline and noise, and
    one record per value comes back, in grid order. ``weights`` is a weight
    set the caller built once for the whole run; by default the replication
    builds its own."""
    n, t_max = config.n_units, config.n_rounds
    if weights is None:
        weight_seed = config.base_seed if config.fixed_network else seed
        weights = config.weights.build(n, t_max, weight_seed, shared=config.fixed_network)
    structure = structure_of(weights)

    w_obs = design_mod.assign(config.design, seed)
    w_none = design_mod.assign(design_mod.constant_design(n, t_max, 0), seed)
    w_all = design_mod.assign(design_mod.constant_design(n, t_max, 1), seed)
    x = round_index_covariates(n, t_max)
    y0 = config.baseline_mean + config.baseline_sd * substream(seed, "baseline").standard_normal(n)

    specs = (config.dynamics,) if sweep is None else sweep.specs
    columns = config.dynamics if sweep is None else [spec for spec in specs for _ in SCENARIOS]
    try:
        panels = counterfactual_suite(columns, weights, [w_obs, w_none, w_all] * len(specs), x, y0, seed)
    except NonFiniteOutcome as exc:
        k, scenario = divmod(exc.scenario, len(SCENARIOS))
        where = "" if sweep is None else f"{sweep.parameter}={sweep.values[k]!r}: "
        raise FloatingPointError(
            f"{where}non-finite outcome for unit {exc.unit} at round {exc.round} in scenario {SCENARIOS[scenario]}"
        ) from exc
    records = []
    for k in range(len(specs)):
        observed, control, treated = panels[len(SCENARIOS) * k : len(SCENARIOS) * (k + 1)]
        gt_control = tuple(float(v) for v in control.values.mean(axis=0))
        gt_treated = tuple(float(v) for v in treated.values.mean(axis=0))
        gt = ground_truth_tte(control, treated, t_max)

        # Estimators receive the observed panel and design probabilities only.
        isolated = observed is not control and observed is not treated
        estimates, trajectories, coefficients = _run_estimators(config, observed, w_obs, structure)
        records.append(
            RunRecord(
                seed=seed,
                estimates=estimates,
                gt_tte=gt,
                gt_control=gt_control,
                gt_treated=gt_treated,
                ese_trajectories=trajectories,
                coefficients=coefficients,
                estimators_isolated=isolated,
            )
        )
    return records[0] if sweep is None else tuple(records)


def _run_weights(config: ScenarioConfig) -> dict:
    """``run_once`` keyword arguments for every seed of a run: the one weight
    set they share, unless each seed draws its own."""
    if config.weights.depends_on_seed(config.fixed_network):
        return {}
    weights = config.weights.build(config.n_units, config.n_rounds, config.base_seed, shared=config.fixed_network)
    return {"weights": weights}


def _run_estimators(
    config: ScenarioConfig,
    observed: OutcomePanel,
    w_obs: TreatmentPanel,
    structure: StructureMetadata,
):
    t_max = config.n_rounds
    y_t = observed.column(t_max)
    w_t = w_obs.column(t_max)
    estimates: dict[str, float | None] = {}
    trajectories: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {}
    coefficients: dict[str, ESECoefficients] = {}
    for name in config.estimators:
        if name == "dm":
            estimates[name] = dm_estimate(y_t, w_t)
        elif name == "ht":
            pi = config.design.probs[t_max - 1] if config.design.kind == "bernoulli" else float(config.design.value)
            if 0.0 < pi < 1.0:
                estimates[name] = ht_estimate(y_t, w_t, pi)
            else:
                estimates[name] = None  # degenerate round; no reweighting possible
        else:
            spec = config.feature_spec(name, structure)
            coeffs = fit_ese(observed, w_obs, spec, structure)
            y0_mean = column_mean(observed, 0)
            hi = propagate(coeffs, spec, y0_mean, ScenarioPath.all_treated(t_max))
            lo = propagate(coeffs, spec, y0_mean, ScenarioPath.all_control(t_max))
            estimates[name] = float(hi[t_max] - lo[t_max])
            trajectories[name] = (tuple(map(float, lo)), tuple(map(float, hi)))
            coefficients[name] = coeffs
    return estimates, trajectories, coefficients


def replicate(config: ScenarioConfig, n_reps: int | None = None) -> BenchmarkReport:
    """Run replications under seeds base_seed .. base_seed + n_reps - 1 and
    aggregate. Missing estimates are excluded with an explicit count."""
    n_reps = config.n_reps if n_reps is None else n_reps
    if n_reps < 1:
        raise ValueError("replication count must be at least 1")
    started = time.perf_counter()
    shared = _run_weights(config)
    records = [run_once(config, config.base_seed + r, **shared) for r in range(n_reps)]
    return _aggregate(config, records, started)


def _aggregate(config: ScenarioConfig, records: list[RunRecord], started: float) -> BenchmarkReport:
    """Summaries of one scenario's records; runtime counts from ``started``."""
    records = sorted(records, key=lambda r: r.seed)

    summaries: dict[str, EstimatorSummary] = {}
    for name in config.estimators:
        errs = []
        vals = []
        excluded = 0
        for rec in records:
            est = rec.estimates[name]
            if est is None:
                excluded += 1
            else:
                vals.append(est)
                errs.append(est - rec.gt_tte)
        if vals:
            errs_arr = np.asarray(errs)
            bias = float(errs_arr.mean())
            rmse = float(np.sqrt(np.mean(errs_arr**2)))
            mean_est = float(np.mean(vals))
        else:
            bias = rmse = mean_est = float("nan")
        summaries[name] = EstimatorSummary(
            name=name, n_used=len(vals), n_excluded=excluded, mean_estimate=mean_est, bias=bias, rmse=rmse
        )

    gt_control = tuple(np.mean([r.gt_control for r in records], axis=0))
    gt_treated = tuple(np.mean([r.gt_treated for r in records], axis=0))
    ese_traj = {}
    for name in config.estimators:
        if name in ESE_ESTIMATORS:
            lows = [r.ese_trajectories[name][0] for r in records]
            highs = [r.ese_trajectories[name][1] for r in records]
            ese_traj[name] = (tuple(np.mean(lows, axis=0)), tuple(np.mean(highs, axis=0)))

    return BenchmarkReport(
        n_reps=len(records),
        summaries=summaries,
        gt_tte_mean=float(np.mean([r.gt_tte for r in records])),
        gt_control=gt_control,
        gt_treated=gt_treated,
        ese_trajectories=ese_traj,
        records=tuple(records),
        runtime_seconds=time.perf_counter() - started,
    )


SWEEP_PARAMETERS = ("trend", "threshold_strength")


@dataclass(frozen=True)
class SweepRow:
    value: float
    estimator: str
    bias: float
    rmse: float
    n_excluded: int


@dataclass(frozen=True)
class SweepTable:
    parameter: str
    rows: tuple[SweepRow, ...]
    reports: tuple[BenchmarkReport, ...]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "value", "estimator", "bias", "rmse", "n_excluded"])
            for row in self.rows:
                writer.writerow(
                    [self.parameter, repr(row.value), row.estimator, repr(row.bias), repr(row.rmse), row.n_excluded]
                )


@dataclass(frozen=True)
class SweepGrid:
    """The grid of one dynamics parameter and the dynamics spec of each value."""

    parameter: str
    values: tuple[float, ...]
    specs: tuple[DynamicsSpec, ...]


def _sweep_grid(config: ScenarioConfig, parameter: str, grid: Sequence[float]) -> SweepGrid:
    values = tuple(float(v) for v in grid)
    if not values:
        raise ValueError("sweep grid must be non-empty")
    dyn = config.dynamics
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}")
    if parameter == "trend" and not isinstance(dyn.unit, LinearUnit):
        raise ValueError("trend sweeps need a linear or saturating unit response")
    if parameter == "threshold_strength" and not isinstance(dyn.exposure, MeanFieldThreshold):
        raise ValueError("threshold sweeps need the mean-field threshold mechanism")
    specs = []
    for value in values:
        try:
            if parameter == "trend":
                specs.append(dataclasses.replace(dyn, unit=dataclasses.replace(dyn.unit, trend=value)))
            else:
                specs.append(dataclasses.replace(dyn, exposure=dataclasses.replace(dyn.exposure, strength=value)))
        except ValueError as exc:
            raise ValueError(f"{parameter}={value!r}: {exc}") from None
    return SweepGrid(parameter, values, tuple(specs))


def failure_sweep(config: ScenarioConfig, parameter: str, grid: Sequence[float]) -> SweepTable:
    """Benchmark the scenario at each grid value of one dynamics parameter.

    Seeds are the outer loop: each seed's weights, assignments, baseline and
    noise are drawn once and every grid value evolves on them (common random
    numbers), in one ``run_once`` pass per seed. Each report's runtime is the
    sweep's wall time up to that report."""
    sweep = _sweep_grid(config, parameter, grid)
    started = time.perf_counter()
    shared = _run_weights(config)
    per_seed = [run_once(config, config.base_seed + r, sweep=sweep, **shared) for r in range(config.n_reps)]
    rows: list[SweepRow] = []
    reports: list[BenchmarkReport] = []
    for k, value in enumerate(sweep.values):
        report = _aggregate(config, [records[k] for records in per_seed], started)
        reports.append(report)
        for name, summary in report.summaries.items():
            rows.append(
                SweepRow(
                    value=value,
                    estimator=name,
                    bias=summary.bias,
                    rmse=summary.rmse,
                    n_excluded=summary.n_excluded,
                )
            )
    return SweepTable(parameter=parameter, rows=tuple(rows), reports=tuple(reports))
