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

import contextlib
import csv
import dataclasses
import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
from .weights import WEIGHT_KINDS, WeightConfig, WeightSet, kind_of

# The counterfactual suite of one replication, in evolution order.
SCENARIOS = ("observed", "none", "all")


def _ht_or_none(design: DesignSpec, y: OutcomePanel, w: TreatmentPanel, t: int) -> float | None:
    """HT contrast at round t; None when the round's assignment probability is
    0 or 1, which leaves nothing to reweight."""
    pi = design.probs[t - 1] if design.kind == "bernoulli" else float(design.value)
    return ht_estimate(y.column(t), w.column(t), pi) if 0.0 < pi < 1.0 else None


@dataclass(frozen=True)
class Estimator:
    """One estimator ``estimators.use`` can name: a classical contrast
    ``(design, y, w, t) -> estimate or None``, or an ESE fit with default
    features for the run's structure metadata, which may need one weight
    kind. Estimator functions are looked up in this module at call time."""

    contrast: Callable | None = None
    features: Callable[[StructureMetadata], FeatureSpec] | None = None
    weight_kind: str | None = None


ESTIMATORS = {
    "dm": Estimator(contrast=lambda design, y, w, t: dm_estimate(y.column(t), w.column(t))),
    "ht": Estimator(contrast=_ht_or_none),
    "ese_basic": Estimator(features=lambda structure: basic_feature_spec()),
    "ese_cluster": Estimator(features=lambda s: cluster_feature_spec(s.require_clusters()[1]), weight_kind="clustered"),
    "ese_influencer": Estimator(
        features=lambda s: influencer_feature_spec(s.require_influencers()), weight_kind="influencer"
    ),
}


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
        # Errors name the config key at fault, as in a scenario config file.
        if self.n_units < 1 or self.n_rounds < 1:
            raise ValueError("population and round counts must be positive")
        if self.design.n_units != self.n_units or self.design.n_rounds != self.n_rounds:
            raise ValueError("design dimensions disagree with the population")
        if self.n_reps < 1:
            raise ValueError(f"run.reps: replication count must be at least 1, got {self.n_reps}")
        self.weights.check(self.n_units)
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError(f"estimators.use: unknown estimator {name!r}")
            needs = ESTIMATORS[name].weight_kind
            if needs is not None and self.weights.kind != needs:
                raise ValueError(f"estimators.use: {name} requires {needs} weights")
        if not np.isfinite(self.baseline_mean):
            raise ValueError("population.baseline_mean: must be finite")
        if not (np.isfinite(self.baseline_sd) and self.baseline_sd >= 0):
            raise ValueError(f"population.baseline_sd: must be finite and non-negative, got {self.baseline_sd}")

    def feature_spec(self, estimator: str, structure: StructureMetadata) -> FeatureSpec:
        if estimator in self.feature_overrides:
            return self.feature_overrides[estimator]
        features = ESTIMATORS[estimator].features
        if features is None:
            raise ValueError(f"{estimator} has no feature spec")
        return features(structure)

    @functools.cached_property
    def _constant_scenarios(self) -> tuple[TreatmentPanel, TreatmentPanel]:
        """The nobody-treated and everybody-treated panels. They depend on no
        seed, so the replications of a run share one read-only pair."""
        return tuple(design_mod.assign(design_mod.constant_design(self.n_units, self.n_rounds, v), 0) for v in (0, 1))


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

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "n_reps": self.n_reps,
            "gt_tte_mean": self.gt_tte_mean,
            "gt_control_trajectory": list(self.gt_control),
            "gt_treated_trajectory": list(self.gt_treated),
            "estimators": {
                name: {key: value for key, value in dataclasses.asdict(s).items() if key != "name"}
                for name, s in self.summaries.items()
            },
            "ese_trajectories": {
                name: {"control": list(c), "treated": list(t)} for name, (c, t) in self.ese_trajectories.items()
            },
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        out["records"] = [{"seed": r.seed, "gt_tte": r.gt_tte, "estimates": r.estimates} for r in self.records]
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
    """The structure metadata that the kind of ``weights`` exposes."""
    fields = WEIGHT_KINDS[kind_of(weights)].structure
    return StructureMetadata(**{name: getattr(weights, name) for name in fields})


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
    one record per value comes back, in grid order. Values whose observed
    panels are bit-identical share one estimator pass, so overflow in it names
    the first of them. ``weights`` is a weight set the caller built once for
    the whole run; by default the replication builds its own."""
    n, t_max = config.n_units, config.n_rounds
    if weights is None:
        weight_seed = config.base_seed if config.fixed_network else seed
        weights = config.weights.build(n, t_max, weight_seed, shared=config.fixed_network)
    structure = structure_of(weights)

    w_obs = design_mod.assign(config.design, seed)
    w_none, w_all = config._constant_scenarios
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
    # (observed bits, estimator pass) of each distinct observed panel; a
    # threshold that the observed ramp never crosses repeats them.
    passes: list[tuple[np.ndarray, tuple]] = []
    for k in range(len(specs)):
        observed, control, treated = panels[len(SCENARIOS) * k : len(SCENARIOS) * (k + 1)]
        where = f"seed {seed}" if sweep is None else f"{sweep.parameter}={sweep.values[k]!r}, seed {seed}"
        with _overflow_as("ground truth", lambda: where):
            gt_control = tuple(float(v) for v in control.values.mean(axis=0))
            gt_treated = tuple(float(v) for v in treated.values.mean(axis=0))
            gt = ground_truth_tte(control, treated, t_max)

        # Estimators receive the observed panel and design probabilities only.
        isolated = observed is not control and observed is not treated
        bits = observed.values.view(np.uint64) if len(specs) > 1 else None
        shared = next((result for seen, result in passes if np.array_equal(seen, bits)), None)
        if shared is None:
            estimates, trajectories, coefficients = estimate_rounds(
                config, observed, w_obs, structure, (t_max,), where
            )
            if bits is not None:
                passes.append((bits, (estimates, trajectories, coefficients)))
        else:
            estimates, trajectories, coefficients = shared
            trajectories, coefficients = dict(trajectories), dict(coefficients)
        records.append(
            RunRecord(
                seed=seed,
                estimates={name: values[0] for name, values in estimates.items()},
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


class EstimatorOverflow(FloatingPointError):
    """An estimator's arithmetic, the ground truth or the aggregation of
    either overflowed or went invalid on finite outcomes."""

    def __init__(self, estimator: str, where: str, cause: FloatingPointError):
        super().__init__(f"{estimator} at {where}: {cause}")


@contextlib.contextmanager
def _overflow_as(name: str, where: Callable[[], str]):
    """Run the block with floating-point overflow and invalid results raised,
    and re-raise them as ``EstimatorOverflow`` naming ``name`` and
    ``where()``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise EstimatorOverflow(name, where(), exc) from exc


def estimate_rounds(
    config: ScenarioConfig,
    y: OutcomePanel,
    w: TreatmentPanel,
    structure: StructureMetadata,
    rounds: Sequence[int],
    where: str,
) -> tuple[dict[str, tuple[float | None, ...]], dict, dict[str, ESECoefficients]]:
    """Every configured estimator on one observed panel pair, evaluated at
    each of ``rounds``.

    Returns the estimates (one per round; None where a classical contrast is
    undefined), the ESE mean trajectories (control, treated) over rounds
    0..T, and the ESE coefficients. ESE fits whose specs use the same base
    columns share one factoring of the panels, which is dropped on return.
    Arithmetic that overflows or goes invalid raises ``EstimatorOverflow``
    naming the estimator and ``where``.
    """
    t_max = config.n_rounds
    estimates: dict[str, tuple[float | None, ...]] = {}
    trajectories: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {}
    coefficients: dict[str, ESECoefficients] = {}
    round_factors: dict = {}
    for name in config.estimators:
        contrast = ESTIMATORS[name].contrast
        with _overflow_as(name, lambda: where):
            if contrast is not None:
                estimates[name] = tuple(contrast(config.design, y, w, t) for t in rounds)
            else:
                spec = config.feature_spec(name, structure)
                coeffs = fit_ese(y, w, spec, structure, round_factors)
                y0_mean = column_mean(y, 0)
                lo = propagate(coeffs, spec, y0_mean, ScenarioPath.all_control(t_max))
                hi = propagate(coeffs, spec, y0_mean, ScenarioPath.all_treated(t_max))
                estimates[name] = tuple(float(hi[t] - lo[t]) for t in rounds)
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


def _aggregate(config: ScenarioConfig, records: list[RunRecord], started: float, where: str = "") -> BenchmarkReport:
    """Summaries of one scenario's records; runtime counts from ``started``.

    Arithmetic that overflows or goes invalid raises ``EstimatorOverflow``
    naming the quantity, ``where`` (a sweep's ``parameter=value, ``) and the
    seed of the record with the largest magnitude in that quantity."""
    records = sorted(records, key=lambda r: r.seed)

    def seed_of_largest(pool: list[RunRecord], numbers) -> Callable[[], str]:
        return lambda: f"{where}seed {max(pool, key=lambda r: max(abs(v) for v in numbers(r))).seed}"

    summaries: dict[str, EstimatorSummary] = {}
    ese_traj = {}
    for name in config.estimators:
        used = [r for r in records if r.estimates[name] is not None]
        with _overflow_as(name, seed_of_largest(used, lambda r: (r.estimates[name], r.gt_tte))):
            if used:
                vals = np.array([r.estimates[name] for r in used])
                errs = vals - np.array([r.gt_tte for r in used])
                bias = float(errs.mean())
                rmse = float(np.sqrt(np.mean(errs**2)))
                mean_est = float(np.mean(vals))
            else:
                bias = rmse = mean_est = float("nan")
        summaries[name] = EstimatorSummary(
            name=name, n_used=len(used), n_excluded=len(records) - len(used), mean_estimate=mean_est, bias=bias,
            rmse=rmse,
        )
        if ESTIMATORS[name].contrast is None:
            with _overflow_as(name, seed_of_largest(records, lambda r: sum(r.ese_trajectories[name], ()))):
                lows = [r.ese_trajectories[name][0] for r in records]
                highs = [r.ese_trajectories[name][1] for r in records]
                ese_traj[name] = (tuple(np.mean(lows, axis=0)), tuple(np.mean(highs, axis=0)))

    with _overflow_as("ground truth", seed_of_largest(records, lambda r: (r.gt_tte, *r.gt_control, *r.gt_treated))):
        gt_control = tuple(np.mean([r.gt_control for r in records], axis=0))
        gt_treated = tuple(np.mean([r.gt_treated for r in records], axis=0))
        gt_tte_mean = float(np.mean([r.gt_tte for r in records]))

    return BenchmarkReport(
        n_reps=len(records),
        summaries=summaries,
        gt_tte_mean=gt_tte_mean,
        gt_control=gt_control,
        gt_treated=gt_treated,
        ese_trajectories=ese_traj,
        records=tuple(records),
        runtime_seconds=time.perf_counter() - started,
    )


# Sweepable parameter -> (the part of the dynamics spec that holds it, the
# class that part must be, its field there, what the class is).
SWEEP_PARAMETERS = {
    "trend": ("unit", LinearUnit, "trend", "a linear or saturating unit response"),
    "threshold_strength": ("exposure", MeanFieldThreshold, "strength", "the mean-field threshold mechanism"),
}


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
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; choose from {', '.join(SWEEP_PARAMETERS)}")
    part, cls, name, needs = SWEEP_PARAMETERS[parameter]
    dyn = config.dynamics
    if not isinstance(getattr(dyn, part), cls):
        raise ValueError(f"{parameter} sweeps need {needs}")
    specs = []
    for value in values:
        try:
            varied = dataclasses.replace(getattr(dyn, part), **{name: value})
            specs.append(dataclasses.replace(dyn, **{part: varied}))
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
        report = _aggregate(config, [records[k] for records in per_seed], started, f"{parameter}={value!r}, ")
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
