"""Closed-loop scenario runner and Monte Carlo benchmark.

One replication simulates an observed experiment, re-simulates the two
bracketing counterfactuals (nobody treated, everybody treated) under the same
weight and noise realization, runs every configured estimator on the observed
data alone, and scores each against the simulated truth. The benchmark
replicates this over a seed range and aggregates bias and RMSE; sweeps run
the benchmark along a grid of one dynamics parameter, with every grid value
sharing the seed's draws. Small populations evolve several seeds in one pass
(``_every_seed``), with the bits of each seed evolved alone.

Estimators see only the observed panels, never a counterfactual one.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import design as design_mod
from .design import DesignSpec
from .dynamics import (
    DynamicsSpec,
    LinearUnit,
    MeanFieldThreshold,
    NonFiniteOutcome,
    Suite,
    counterfactual_suite,
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
from .panel import (
    CovariatePanel, OutcomePanel, TreatmentPanel, column_mean, round_index_covariates, write_rows,
)
from .rng import substream
from .weights import WEIGHT_KINDS, KeyedValueError, WeightConfig, WeightSet, kind_of

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
    ``(design, y, w, t) -> estimate or None``, or an ESE fit with one
    feature set for the run's structure metadata, which may need one weight
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
    # By default every estimator that needs no particular weight kind.
    estimators: tuple[str, ...] = tuple(name for name, est in ESTIMATORS.items() if est.weight_kind is None)
    baseline_mean: float = 0.0
    baseline_sd: float = 1.0
    base_seed: int = 0
    n_reps: int = 1
    fixed_network: bool = False

    def __post_init__(self):
        # Errors name the config key at fault, as in a scenario config file.
        # DesignSpec rejects empty populations and panels without rounds.
        if self.design.n_units != self.n_units or self.design.n_rounds != self.n_rounds:
            raise ValueError("design dimensions disagree with the population")
        if self.n_reps < 1:
            raise KeyedValueError(f"replication count must be at least 1, got {self.n_reps}", "run.reps")
        self.weights.check(self.n_units)
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise KeyedValueError(f"unknown estimator {name!r}", "estimators.use")
            if self.estimators.count(name) > 1:
                raise KeyedValueError(f"lists {name} twice", "estimators.use")
            needs = ESTIMATORS[name].weight_kind
            if needs is not None and self.weights.kind != needs:
                raise KeyedValueError(f"{name} requires {needs} weights", "estimators.use")
        if not np.isfinite(self.baseline_mean):
            raise KeyedValueError("must be finite", "population.baseline_mean")
        if not (np.isfinite(self.baseline_sd) and self.baseline_sd >= 0):
            raise KeyedValueError(f"must be finite and non-negative, got {self.baseline_sd}", "population.baseline_sd")

    def feature_spec(self, estimator: str, structure: StructureMetadata) -> FeatureSpec:
        features = ESTIMATORS[estimator].features
        if features is None:
            raise ValueError(f"{estimator} has no feature spec")
        return features(structure)

    @functools.cached_property
    def _constant_scenarios(self) -> tuple[TreatmentPanel, TreatmentPanel]:
        """The nobody-treated and everybody-treated panels: read-only
        broadcasts of 0.0 and 1.0, which allocate no (n_units, n_rounds)
        array. They depend on no seed, so the replications of a run share
        one pair."""
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


@dataclass(frozen=True)
class EstimatorSummary:
    """An estimator's aggregate over the replications that gave it an
    estimate; its mean, bias and RMSE are NaN when none did."""

    n_used: int
    n_excluded: int
    mean_estimate: float
    bias: float
    rmse: float

    def __post_init__(self):
        if self.n_used > 0 and self.bias**2 > self.rmse**2 + 1e-12:
            raise ValueError("aggregation broke bias^2 <= rmse^2")

    def written(self) -> dict:
        """The fields as output files hold them: the NaNs of an estimator no
        replication gave an estimate as None, which JSON writes as null and
        CSV as an empty field (bare NaN is not JSON)."""
        return {k: None if isinstance(v, float) and np.isnan(v) else v for k, v in dataclasses.asdict(self).items()}


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

    def to_dict(self) -> dict:
        """Everything but the runtime: emitted files must be reproducible from
        (config, seed), so wall time is reported on stdout instead."""
        return {
            "n_reps": self.n_reps,
            "gt_tte_mean": self.gt_tte_mean,
            "gt_control_trajectory": list(self.gt_control),
            "gt_treated_trajectory": list(self.gt_treated),
            "estimators": {name: s.written() for name, s in self.summaries.items()},
            "ese_trajectories": {
                name: {"control": list(c), "treated": list(t)} for name, (c, t) in self.ese_trajectories.items()
            },
            "records": [{"seed": r.seed, "gt_tte": r.gt_tte, "estimates": r.estimates} for r in self.records],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    def write_csv(self, path) -> None:
        """Flat rows: estimator, rep seed, estimate, truth, bias."""
        write_rows(
            path,
            ["estimator", "rep", "estimate", "gt", "bias"],
            [
                [name, rec.seed, est, rec.gt_tte, None if est is None else est - rec.gt_tte]
                for rec in self.records
                for name, est in sorted(rec.estimates.items())
            ],
        )


def structure_of(weights: WeightSet) -> StructureMetadata:
    """The structure metadata that the kind of ``weights`` exposes."""
    fields = WEIGHT_KINDS[kind_of(weights)].structure
    return StructureMetadata(**{name: getattr(weights, name) for name in fields})


def observed_inputs(
    config: ScenarioConfig, seed: int, weights: WeightSet | None = None
) -> tuple[WeightSet, TreatmentPanel, CovariatePanel, np.ndarray]:
    """The observed experiment's inputs for one seed: the weight set, the
    assignment, the covariates and the baseline outcomes. ``weights`` is a
    weight set the caller built once for the whole run; by default the seed
    builds its own (the base seed's, for a fixed network)."""
    n, t_max = config.n_units, config.n_rounds
    if weights is None:
        weights = config.weights.build(n, t_max, config.base_seed if config.fixed_network else seed)
    w_obs = design_mod.assign(config.design, seed)
    x = round_index_covariates(n, t_max)
    y0 = config.baseline_mean + config.baseline_sd * substream(seed, "baseline").standard_normal(n)
    return weights, w_obs, x, y0


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
    one record per value comes back, in grid order. Only the observed panels
    are kept whole; the counterfactuals keep their round means alone. Values
    whose observed columns evolve alike share one estimator pass, so overflow
    in it names the first of them.
    ``weights`` is passed on to ``observed_inputs``. A seed of the batch
    that ``_every_seed`` is scoring takes its weight set, assignment and
    suite from the batch's one evolution and is only scored."""
    t_max = config.n_rounds
    wheres = [f"seed {seed}"] if sweep is None else [f"{sweep.parameter}={v!r}, seed {seed}" for v in sweep.values]
    columns = _columns(config, sweep)
    observed = range(0, len(columns), len(SCENARIOS))
    scoring = _scoring.get()
    evolved = scoring[2].pop(seed, None) if scoring and scoring[0] is config and scoring[1] is sweep else None
    if evolved is None:
        weights, w_obs, x, y0 = observed_inputs(config, seed, weights)
        try:
            suite = counterfactual_suite(
                columns, weights, [w_obs, *config._constant_scenarios] * len(wheres), x, y0, seed, keep=observed
            )
        except NonFiniteOutcome as exc:
            k, scenario = divmod(exc.scenario, len(SCENARIOS))
            raise FloatingPointError(
                f"{wheres[k]}: non-finite outcome for unit {exc.unit} at round {exc.round} "
                f"in scenario {SCENARIOS[scenario]}"
            ) from exc
    else:
        weights, w_obs, suite = evolved
    structure = structure_of(weights)
    records = []
    passes: dict[int, tuple] = {}  # id of a distinct observed panel -> its estimator pass
    for k, obs in enumerate(observed):
        control, treated = suite.means[obs + 1], suite.means[obs + 2]
        if not np.isfinite(control + treated).all():  # finite outcomes, an overflowing mean
            raise EstimatorOverflow("ground truth", wheres[k], FloatingPointError("overflow encountered in reduce"))

        # Estimators receive the observed panel and design probabilities only.
        if id(suite[obs]) not in passes:
            passes[id(suite[obs])] = estimate_rounds(config, suite[obs], w_obs, structure, (t_max,), wheres[k])
        estimates, trajectories, coefficients = passes[id(suite[obs])]
        records.append(
            RunRecord(
                seed=seed,
                estimates={name: values[0] for name, values in estimates.items()},
                # The bits of ground_truth_tte(control, treated, t_max).
                gt_tte=treated[t_max] - control[t_max],
                gt_control=control,
                gt_treated=treated,
                ese_trajectories=dict(trajectories),
                coefficients=dict(coefficients),
            )
        )
    return records[0] if sweep is None else tuple(records)


def _columns(config: ScenarioConfig, sweep: SweepGrid | None) -> list[DynamicsSpec]:
    """The dynamics spec of each column of a seed's suite: the scenarios of
    each grid value in turn."""
    return [spec for spec in ((config.dynamics,) if sweep is None else sweep.specs) for _ in SCENARIOS]


# The most units whose seeds evolve in one pass (see ``_every_seed``).
SEED_BATCH_UNITS = 1 << 14
# The batch being scored: (config, sweep, seed -> what run_once takes). It
# reaches run_once outside its arguments, so a caller that wraps run_once
# (a test's spy, the benchmark's tracer) still sees one plain call per seed.
_scoring: contextvars.ContextVar[tuple | None] = contextvars.ContextVar("scoring", default=None)


def _every_seed(config: ScenarioConfig, **kwargs) -> list:
    """``run_once`` with ``kwargs`` under every seed of the run, in seed order.
    The seeds share one weight set unless each draws its own.

    Seeds evolve in the fewest batches of at most S = max(1,
    SEED_BATCH_UNITS // n_units) seeds, split as evenly as they go, larger
    batches first, so that the largest batch, which sets the run's peak, is
    no larger than it must be. Each batch is one ``counterfactual_suite``
    call (``_evolve_batch``), so the fixed cost of a column's round is paid
    once per batch; ``run_once`` then scores each seed, with the bits the
    seed gives alone. A fixed network of a kind drawn per seed is one lazy
    engine, whose images depend on the order of its calls: one seed a
    batch. A batch that raises evolves again seed by seed, so the error is
    the one such a run gives."""
    per_seed = WEIGHT_KINDS[config.weights.kind].per_seed
    if config.fixed_network or not per_seed:
        kwargs["weights"] = config.weights.build(config.n_units, config.n_rounds, config.base_seed)
    cap = 1 if config.fixed_network and per_seed else max(1, SEED_BATCH_UNITS // config.n_units)
    seeds = range(config.base_seed, config.base_seed + config.n_reps)
    n_batches = -(-len(seeds) // cap)
    size, larger = divmod(len(seeds), n_batches)  # the first `larger` batches hold one seed more
    records = []
    for k in range(n_batches):
        start = k * size + min(k, larger)
        batch = seeds[start : start + size + (k < larger)]
        try:
            evolved = _evolve_batch(config, batch, **kwargs) if len(batch) > 1 else {}
        except (FloatingPointError, MemoryError):  # each seed evolves alone and raises as it would
            evolved = {}
        token = _scoring.set((config, kwargs.get("sweep"), evolved))
        try:
            records += [run_once(config, seed, **kwargs) for seed in batch]
        finally:
            _scoring.reset(token)
        del evolved  # before the next batch allocates its own
    return records


def _evolve_batch(
    config: ScenarioConfig, seeds: Sequence[int], sweep: SweepGrid | None = None, weights: WeightSet | None = None
) -> dict[int, tuple[WeightSet, TreatmentPanel, Suite]]:
    """Each seed's weight set, assignment and suite, from one
    ``counterfactual_suite`` call on the populations of ``seeds`` joined.
    Each seed's ``observed_inputs`` are copied in as they are made, and its
    assignment is then a view of the joined one."""
    n, t_max, size = config.n_units, config.n_rounds, len(seeds)
    rounds, y0, sets = np.empty((t_max, size * n)), np.empty(size * n), []
    for b, seed in enumerate(seeds):
        ws, w_obs, _, y0[b * n : (b + 1) * n] = observed_inputs(config, seed, weights)
        rounds[:, b * n : (b + 1) * n] = w_obs.values.T
        sets.append(ws)
    del w_obs  # the last seed's own assignment, copied in
    joined = TreatmentPanel.views(rounds.T[None])[0]
    constant = [TreatmentPanel._built(np.broadcast_to(w.values[0], joined.values.shape))
                for w in config._constant_scenarios]
    columns = _columns(config, sweep)
    suite = counterfactual_suite(
        columns, sets, [joined, *constant] * (len(columns) // len(SCENARIOS)),
        round_index_covariates(size * n, t_max), y0, list(seeds), keep=range(0, len(columns), len(SCENARIOS)),
    )
    assignments = TreatmentPanel.views(rounds.T.reshape(size, n, t_max))
    return {seed: (ws, w, suite.block(b)) for b, (seed, ws, w) in enumerate(zip(seeds, sets, assignments))}


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
    Arithmetic that overflows or goes invalid raises ``EstimatorOverflow``,
    and a panel an ESE fit cannot use a ``ValueError``, each naming the
    estimator and ``where``.
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
                try:
                    coeffs = fit_ese(y, w, spec, structure, round_factors)
                except ValueError as exc:  # a panel the fit cannot use
                    raise ValueError(f"{name} at {where}: {exc}") from exc
                y0_mean = column_mean(y, 0)
                lo = propagate(coeffs, spec, y0_mean, ScenarioPath.all_control(t_max))
                hi = propagate(coeffs, spec, y0_mean, ScenarioPath.all_treated(t_max))
                estimates[name] = tuple(float(hi[t] - lo[t]) for t in rounds)
                trajectories[name] = (tuple(map(float, lo)), tuple(map(float, hi)))
                coefficients[name] = coeffs
    return estimates, trajectories, coefficients


def replicate(config: ScenarioConfig) -> BenchmarkReport:
    """Run replications under seeds base_seed .. base_seed + n_reps - 1 and
    aggregate. Missing estimates are excluded with an explicit count."""
    started = time.perf_counter()
    return _aggregate(config, _every_seed(config), started)


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
            n_used=len(used), n_excluded=len(records) - len(used), mean_estimate=mean_est, bias=bias, rmse=rmse
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
    "trend": ("unit", LinearUnit, "trend", "a linear unit response"),
    "threshold_strength": ("exposure", MeanFieldThreshold, "strength", "the mean-field threshold mechanism"),
}


@dataclass(frozen=True)
class SweepTable:
    parameter: str
    values: tuple[float, ...]
    reports: tuple[BenchmarkReport, ...]

    def write_csv(self, path) -> None:
        fields = ("bias", "rmse", "n_excluded")
        write_rows(
            path,
            ["parameter", "value", "estimator", *fields],
            [
                [self.parameter, value, name, *map(s.written().get, fields)]
                for value, report in zip(self.values, self.reports)
                for name, s in report.summaries.items()
            ],
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
    per_seed = _every_seed(config, sweep=sweep)
    reports = tuple(
        _aggregate(config, [records[k] for records in per_seed], started, f"{parameter}={value!r}, ")
        for k, value in enumerate(sweep.values)
    )
    return SweepTable(parameter, sweep.values, reports)
