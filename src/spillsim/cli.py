"""Command line front end.

Subcommands:

* ``simulate``: draw assignments, run the dynamics once, write the observed
  outcome, treatment and exposure panels plus a manifest.
* ``estimate``: fit the evolution-based estimators on panel CSVs and write
  coefficient JSON and per-round estimate rows.
* ``benchmark``: Monte Carlo comparison of all configured estimators against
  simulated truth; writes the report as JSON and flat CSV.
* ``sweep``: benchmark along a grid of one dynamics parameter.
* ``demo``: run a built-in dense-network scenario and write a truth versus
  estimate trajectory table. Output bytes depend only on the seed.

All randomness flows from one seed (config ``run.seed`` unless overridden by
``--seed``) through named per-purpose substreams. Errors print a single JSON
line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import design as design_mod
from .config import ConfigError, config_hash, parse_config
from .dynamics import simulate_panel
from .harness import SWEEP_PARAMETERS, ScenarioConfig, estimate_rounds, failure_sweep, replicate, structure_of
from .panel import (
    read_outcome_csv,
    read_treatment_csv,
    round_index_covariates,
    write_matrix_csv,
    write_outcome_csv,
    write_treatment_csv,
)
from .rng import substream

DEMO_CONFIG = """\
[population]
n_units = 800
n_rounds = 4
baseline_mean = 0.0
baseline_sd = 1.0

[weights]
kind = dense_gaussian
mu = 1.0
sigma2 = 1.0

[dynamics]
unit = linear
w_coef = 1.0
y_coef = 0.5
peer = linear
peer_w = 1.5
peer_y = 0.2
exposure = weighted_sum
noise_sd = 0.1

[design]
kind = bernoulli
probs = 0.0, 0.2, 0.4, 0.8

[estimators]
use = dm, ht, ese_basic

[run]
seed = 7
reps = 3
"""


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (ConfigError, ValueError, OSError, FloatingPointError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use. Each subcommand runs the
    module's ``_cmd_<name>`` as it is at call time."""
    parser = argparse.ArgumentParser(prog="spillsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", type=Path, required=config_required, help="scenario config path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--reps", type=int, default=None, help="override run.reps")

    common(sub.add_parser("simulate", help="simulate one observed experiment"))

    p_est = sub.add_parser("estimate", help="fit estimators on existing panel CSVs")
    common(p_est)
    p_est.add_argument("--outcomes", type=Path, required=True, help="outcome panel CSV")
    p_est.add_argument("--treatments", type=Path, required=True, help="treatment panel CSV")

    common(sub.add_parser("benchmark", help="Monte Carlo estimator comparison"))

    p_sweep = sub.add_parser("sweep", help="benchmark along a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--grid", required=True, help="comma-separated parameter values")

    common(sub.add_parser("demo", help="run the built-in demo scenario"), config_required=False)

    return parser


def _load(args, text: str | None = None) -> tuple[ScenarioConfig, str]:
    if text is None:
        text = args.config.read_text()
    config = parse_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.reps is not None:
        if args.reps < 1:
            raise ConfigError("--reps must be at least 1")
        config = dataclasses.replace(config, n_reps=args.reps)
    return config, text


def _manifest(outdir: Path, text: str, config: ScenarioConfig, extra: dict | None = None, inputs=()) -> None:
    """Write manifest.json: the version, the config's identity and the sha256
    of every input file the command read (``inputs`` plus any file the weight
    config names), keyed by the path as given."""
    files = [*inputs, *config.weights.input_files()]
    payload = {
        "version": __version__,
        "config_hash": config_hash(text),
        "seed": config.base_seed,
        "n_reps": config.n_reps,
        "n_units": config.n_units,
        "n_rounds": config.n_rounds,
        "dynamics_hash": config.dynamics.spec_hash(),
    }
    if extra:
        payload.update(extra)
    if files:
        payload["input_sha256"] = {str(path): _sha256(path) for path in files}
    (outdir / "manifest.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cmd_simulate(args) -> int:
    config, text = _load(args)
    outdir = _ensure_outdir(args.out)
    seed = config.base_seed
    weights = config.weights.build(config.n_units, config.n_rounds, seed, shared=config.fixed_network)
    w_obs = design_mod.assign(config.design, seed)
    x = round_index_covariates(config.n_units, config.n_rounds)
    y0 = config.baseline_mean + config.baseline_sd * substream(seed, "baseline").standard_normal(config.n_units)
    panel, exposure = simulate_panel(config.dynamics, weights, w_obs, x, y0, seed)
    write_outcome_csv(outdir / "outcomes.csv", panel)
    write_treatment_csv(outdir / "treatments.csv", w_obs)
    write_matrix_csv(outdir / "exposure.csv", exposure.values)
    _manifest(outdir, text, config, {"scenario": "observed", "weights": weights.to_descriptor()})
    return 0


def _cmd_estimate(args) -> int:
    config, text = _load(args)
    outdir = _ensure_outdir(args.out)
    y = read_outcome_csv(args.outcomes)
    w = read_treatment_csv(args.treatments)
    # Both panels must match the config, and so each other, before any fit.
    for path, panel in ((args.outcomes, y), (args.treatments, w)):
        if (panel.n_units, panel.n_rounds) != (config.n_units, config.n_rounds):
            raise ConfigError(
                f"{path}: panel is {panel.n_units} units x {panel.n_rounds} rounds,"
                f" config says {config.n_units} x {config.n_rounds}"
            )
    weights = config.weights.build(config.n_units, config.n_rounds, config.base_seed)
    rounds = range(1, config.n_rounds + 1)
    estimates, _, coefficients = estimate_rounds(config, y, w, structure_of(weights), rounds, str(args.outcomes))
    coeff_payload = {name: coeffs.to_dict() for name, coeffs in coefficients.items()}
    rows = [(name, t, est) for name, values in estimates.items() for t, est in zip(rounds, values)]

    (outdir / "coefficients.json").write_text(json.dumps(coeff_payload, sort_keys=True, indent=2) + "\n")
    _write_estimates_csv(outdir / "estimates.csv", rows)
    inputs = [args.outcomes, args.treatments]
    _manifest(outdir, text, config, {"inputs": [str(path) for path in inputs]}, inputs)
    return 0


def _write_estimates_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "round", "estimate"])
        for name, t, est in sorted(rows, key=lambda r: (r[0], r[1])):
            writer.writerow([name, t, "" if est is None else repr(est)])


def _cmd_benchmark(args) -> int:
    config, text = _load(args)
    outdir = _ensure_outdir(args.out)
    report = replicate(config)
    report.write_json(outdir / "report.json")
    report.write_csv(outdir / "report.csv")
    _manifest(outdir, text, config)
    print(f"benchmark: {config.n_reps} replications in {report.runtime_seconds:.1f}s -> {outdir}")
    return 0


def _cmd_sweep(args) -> int:
    config, text = _load(args)
    outdir = _ensure_outdir(args.out)
    grid = []
    for i, entry in enumerate(str(args.grid).split(","), start=1):
        entry = entry.strip()
        if entry == "":
            continue
        try:
            value = float(entry)
        except ValueError:
            raise ConfigError(f"--grid entry {i} {entry!r} is not a number") from None
        if not np.isfinite(value):
            raise ConfigError(f"--grid entry {i} {entry!r} is not finite")
        grid.append(value)
    table = failure_sweep(config, args.param, grid)
    table.write_csv(outdir / "sweep.csv")
    _manifest(outdir, text, config, {"sweep_parameter": args.param, "grid": grid})
    return 0


def _cmd_demo(args) -> int:
    config, text = _load(args, text=DEMO_CONFIG)
    outdir = _ensure_outdir(args.out)
    report = replicate(config)
    record = report.records[0]  # records are sorted by seed; this is base_seed's

    trajectories = sorted(record.ese_trajectories.items())
    header = ["round", "gt_control", "gt_treated"]
    for name, _ in trajectories:
        header += [f"{name}_control", f"{name}_treated"]
    with open(outdir / "trajectories.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(config.n_rounds + 1):
            values = [record.gt_control[t], record.gt_treated[t]]
            for _, (lo, hi) in trajectories:
                values += [lo[t], hi[t]]
            writer.writerow([t, *(repr(float(v)) for v in values)])

    with open(outdir / "estimates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "estimate", "gt", "bias", "mean_bias", "rmse"])
        for name in sorted(record.estimates):
            est = record.estimates[name]
            summary = report.summaries[name]
            writer.writerow(
                [
                    name,
                    "" if est is None else repr(est),
                    repr(record.gt_tte),
                    "" if est is None else repr(est - record.gt_tte),
                    repr(summary.bias),
                    repr(summary.rmse),
                ]
            )
    _manifest(outdir, text, config, {"scenario": "demo"})
    return 0


def _ensure_outdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
