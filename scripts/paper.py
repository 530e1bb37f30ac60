#!/usr/bin/env python3
"""Reproduce the paper's three claims from the shipped scenario configs.

* ``spillover.cfg``: control units absorb spillovers from treated peers, so
  the final-round contrasts land far from the universal-treatment effect,
  while the evolution-based fit recovers it.
* ``trend_weak_signal.cfg``: failure mode (a). A strong secular trend swamps
  a weak treatment signal, so the fit's bias grows with the trend slope.
* ``threshold.cfg``: failure mode (b). Peer influence switches on only past
  a treated share the observed ramp never reaches, so the bias persists when
  the population doubles.

Sizes, seeds and replication counts all come from the configs; this script
writes no files. ``spillsim benchmark`` and ``spillsim sweep`` write the same
runs with manifests.

    python scripts/paper.py [--configs DIR]
"""

import argparse
import dataclasses
from pathlib import Path

from spillsim.cli import pin_malloc_thresholds
from spillsim.config import parse_config
from spillsim.harness import failure_sweep, replicate

TREND_GRID = (0, 0.5, 1, 2, 3)


def spillover(config) -> None:
    report = replicate(config)
    print(f"true effect (mean over {config.n_reps} replications): {report.gt_tte_mean:.3f}")
    print(f"{'estimator':<12} {'mean':>8} {'bias':>8} {'rmse':>8} {'excluded':>9}")
    for name, s in report.summaries.items():
        print(f"{name:<12} {s.mean_estimate:>8.3f} {s.bias:>8.3f} {s.rmse:>8.3f} {s.n_excluded:>9}")


def trend(config) -> None:
    table = failure_sweep(config, "trend", TREND_GRID)
    print("trend sweep (weak treatment signal):")
    print(f"{'trend':>6} {'estimator':<12} {'bias':>9} {'rmse':>9}")
    for value, report in zip(table.values, table.reports):
        for name, s in report.summaries.items():
            print(f"{value:>6.2f} {name:<12} {s.bias:>9.4f} {s.rmse:>9.4f}")


def threshold(config) -> None:
    print("threshold interference, doubling the population:")
    for n in (config.n_units, 2 * config.n_units):
        sized = dataclasses.replace(config, n_units=n, design=dataclasses.replace(config.design, n_units=n))
        s = replicate(sized).summaries["ese_basic"]
        print(f"  N={n:>6}: bias {s.bias:>8.4f} rmse {s.rmse:>8.4f}")


RUNS = (("spillover.cfg", spillover), ("trend_weak_signal.cfg", trend), ("threshold.cfg", threshold))


def main() -> None:
    pin_malloc_thresholds()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=Path, default=Path(__file__).resolve().parents[1] / "configs",
                        help="directory holding the three configs (default: the repo's configs/)")
    args = parser.parse_args()
    for i, (name, run) in enumerate(RUNS):
        if i:
            print()
        run(parse_config((args.configs / name).read_text()))


if __name__ == "__main__":
    main()
