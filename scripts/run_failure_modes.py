#!/usr/bin/env python3
"""Probe the two documented failure modes of evolution-based estimation.

(a) Strong time trends with a weak treatment signal: the fit cannot separate
    the secular drift from assignment-driven variation, so bias grows with the
    trend slope.
(b) Threshold-activated interference: peer influence switches on only past a
    critical treated fraction never reached in the observed ramp, so the bias
    persists no matter how large the population grows.
"""

import argparse
import dataclasses
from pathlib import Path

from spillsim.design import DesignSpec
from spillsim.dynamics import DynamicsSpec, LinearPeer, LinearUnit, MeanFieldThreshold, WeightedSumExposure
from spillsim.harness import ScenarioConfig, WeightConfig, failure_sweep, replicate


def trend_config(n_units: int, reps: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_units=n_units,
        n_rounds=4,
        weights=WeightConfig(kind="dense_gaussian", mu=1.0, sigma2=1.0),
        dynamics=DynamicsSpec(
            unit=LinearUnit(w_coef=0.05, y_coef=0.5, trend=0.0),
            peer=LinearPeer(w_coef=0.05, y_coef=0.2),
            exposure=WeightedSumExposure(),
            noise_sd=0.1,
        ),
        design=DesignSpec(kind="bernoulli", n_units=n_units, n_rounds=4, probs=(0.0, 0.2, 0.4, 0.8)),
        estimators=("dm", "ese_basic"),
        base_seed=seed,
        n_reps=reps,
    )


def threshold_config(n_units: int, reps: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_units=n_units,
        n_rounds=4,
        weights=WeightConfig(kind="clustered", n_clusters=1, w_in=0.0, w_out=0.0),
        dynamics=DynamicsSpec(
            unit=LinearUnit(w_coef=0.2, y_coef=0.8),
            peer=LinearPeer(),
            exposure=MeanFieldThreshold(tau=0.9, strength=2.0),
            noise_sd=0.1,
        ),
        design=DesignSpec(kind="bernoulli", n_units=n_units, n_rounds=4, probs=(0.0, 0.2, 0.4, 0.8)),
        estimators=("ese_basic",),
        base_seed=seed,
        n_reps=reps,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-units", type=int, default=2000)
    parser.add_argument("--reps", type=int, default=25)
    parser.add_argument("--seed", type=int, default=3000)
    parser.add_argument("--trend-grid", default="0,0.5,1,2,3")
    parser.add_argument("--out", type=Path, default=Path("results/failure_modes"))
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    grid = [float(v) for v in args.trend_grid.split(",")]
    table = failure_sweep(trend_config(args.n_units, args.reps, args.seed), "trend", grid)
    table.write_csv(args.out / "trend_sweep.csv")
    print("trend sweep (weak treatment signal):")
    print(f"{'trend':>6} {'estimator':<12} {'bias':>9} {'rmse':>9}")
    for value, report in zip(table.values, table.reports):
        for name, summary in report.summaries.items():
            print(f"{value:>6.2f} {name:<12} {summary.bias:>9.4f} {summary.rmse:>9.4f}")

    print("\nthreshold interference, doubling the population:")
    for n in (args.n_units, 2 * args.n_units):
        cfg = dataclasses.replace(threshold_config(n, args.reps, args.seed + 1))
        summary = replicate(cfg).summaries["ese_basic"]
        print(f"  N={n:>6}: bias {summary.bias:>8.4f} rmse {summary.rmse:>8.4f}")
    print(f"\nwrote {args.out}/trend_sweep.csv")


if __name__ == "__main__":
    main()
