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
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, config_hash, parse_config
from .dynamics import simulate_panel
from .estimators import StructureMetadata
from .harness import SWEEP_PARAMETERS, ScenarioConfig, estimate_rounds, failure_sweep, observed_inputs, replicate
from .harness import structure_of
from .panel import (
    read_outcome_csv,
    read_treatment_csv,
    write_matrix_csv,
    write_outcome_csv,
    write_rows,
    write_treatment_csv,
)
from .weights import WEIGHT_KINDS

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

# glibc's mallopt parameters (malloc.h) and the values the entry points pin.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's dynamic threshold on 64-bit
TRIM_THRESHOLD = 1 << 30


@functools.cache
def pin_malloc_thresholds() -> bool:
    """Fix glibc's malloc thresholds for the rest of the process, so blocks
    freed by one replication stay in the heap for the next instead of going
    back to the kernel and faulting their pages in again. Blocks of at least
    ``MMAP_THRESHOLD`` bytes are still mapped and unmapped on their own.

    Both thresholds are set: setting either turns off glibc's dynamic
    adjustment of both. Program entry points call this first; no library
    function does, so a host process keeps its own allocator settings. Where
    the C library is not glibc it does nothing. Returns whether both were set."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


def main(argv: list[str] | None = None) -> int:
    pin_malloc_thresholds()
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

    def common(p, config=True):
        if config:  # the demo runs its built-in scenario and takes none
            p.add_argument("--config", type=Path, required=True, help="scenario config path")
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

    common(sub.add_parser("demo", help="run the built-in demo scenario"), config=False)

    return parser


def _load(args, text: str | None = None) -> tuple[ScenarioConfig, str, Path]:
    """The config with the ``--seed`` and ``--reps`` overrides, its text, and the created ``--out``."""
    if text is None:
        text = args.config.read_text()
        try:
            config = parse_config(text)
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
    else:
        config = parse_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.reps is not None:
        if args.reps < 1:
            raise ConfigError("--reps must be at least 1")
        config = dataclasses.replace(config, n_reps=args.reps)
    args.out.mkdir(parents=True, exist_ok=True)
    return config, text, args.out


def _manifest(outdir: Path, text: str, config: ScenarioConfig, extra: dict | None = None, inputs=()) -> None:
    """Write manifest.json: the version, the config's identity and the sha256
    of every input file the command read (``inputs``), keyed by the path as
    given."""
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
    if inputs:
        payload["input_sha256"] = {str(path): _sha256(path) for path in inputs}
    (outdir / "manifest.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cmd_simulate(args) -> int:
    config, text, outdir = _load(args)
    weights, w_obs, x, y0 = observed_inputs(config, config.base_seed)
    panel, exposure = simulate_panel(config.dynamics, weights, w_obs, x, y0, config.base_seed)
    write_outcome_csv(outdir / "outcomes.csv", panel)
    write_treatment_csv(outdir / "treatments.csv", w_obs)
    write_matrix_csv(outdir / "exposure.csv", exposure.values)
    _manifest(outdir, text, config, {"scenario": "observed", "weights": weights.to_descriptor()})
    return 0


def _cmd_estimate(args) -> int:
    config, text, outdir = _load(args)
    y = read_outcome_csv(args.outcomes)
    w = read_treatment_csv(args.treatments)
    # Both panels must match the config, and so each other, before any fit.
    for path, panel in ((args.outcomes, y), (args.treatments, w)):
        if (panel.n_units, panel.n_rounds) != (config.n_units, config.n_rounds):
            raise ConfigError(
                f"{path}: panel is {panel.n_units} units x {panel.n_rounds} rounds,"
                f" config says {config.n_units} x {config.n_rounds}"
            )
    # Only the structure metadata of the weights is used, so a kind that
    # exposes none (dense Gaussian) is not built.
    structure = StructureMetadata()
    if WEIGHT_KINDS[config.weights.kind].structure:
        structure = structure_of(config.weights.build(config.n_units, config.n_rounds, config.base_seed))
    rounds = range(1, config.n_rounds + 1)
    estimates, _, coefficients = estimate_rounds(config, y, w, structure, rounds, str(args.outcomes))
    coeff_payload = {name: coeffs.to_dict() for name, coeffs in coefficients.items()}
    rows = [(name, t, est) for name, values in sorted(estimates.items()) for t, est in zip(rounds, values)]

    (outdir / "coefficients.json").write_text(json.dumps(coeff_payload, sort_keys=True, indent=2) + "\n")
    write_rows(outdir / "estimates.csv", ["estimator", "round", "estimate"], rows)
    inputs = [args.outcomes, args.treatments]
    _manifest(outdir, text, config, {"inputs": [str(path) for path in inputs]}, inputs)
    return 0


def _cmd_benchmark(args) -> int:
    config, text, outdir = _load(args)
    report = replicate(config)
    report.write_json(outdir / "report.json")
    report.write_csv(outdir / "report.csv")
    _manifest(outdir, text, config)
    print(f"benchmark: {config.n_reps} replications in {report.runtime_seconds:.1f}s -> {outdir}")
    return 0


def _cmd_sweep(args) -> int:
    config, text, outdir = _load(args)
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
    if not grid:
        raise ConfigError(f"--grid {args.grid!r} lists no value")
    table = failure_sweep(config, args.param, grid)
    table.write_csv(outdir / "sweep.csv")
    _manifest(outdir, text, config, {"sweep_parameter": args.param, "grid": grid})
    return 0


def _cmd_demo(args) -> int:
    config, text, outdir = _load(args, text=DEMO_CONFIG)
    report = replicate(config)
    record = report.records[0]  # records are sorted by seed; this is base_seed's

    trajectories = sorted(record.ese_trajectories.items())
    header = ["round", "gt_control", "gt_treated"]
    header += [f"{name}_{side}" for name, _ in trajectories for side in ("control", "treated")]
    rows = [
        [t, record.gt_control[t], record.gt_treated[t], *(v for _, (lo, hi) in trajectories for v in (lo[t], hi[t]))]
        for t in range(config.n_rounds + 1)
    ]
    write_rows(outdir / "trajectories.csv", header, rows)

    rows = []
    for name, est in sorted(record.estimates.items()):
        summary = report.summaries[name]
        bias = None if est is None else est - record.gt_tte
        rows.append([name, est, record.gt_tte, bias, summary.bias, summary.rmse])
    write_rows(outdir / "estimates.csv", ["estimator", "estimate", "gt", "bias", "mean_bias", "rmse"], rows)
    _manifest(outdir, text, config, {"scenario": "demo"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
