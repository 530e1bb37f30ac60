"""The four benchmark workloads.

Each workload turns the benchmark's seed into a sequence of calls: a call is
one or more ``spillsim.cli.main`` argument lists, run back to back in one
process, and call ``i`` always gets the same arguments for the same seed.
After every call the workload checks the call's output files; a failed check
raises ``CheckFailed``. Statistical checks that need many replications run
once over the whole run in ``check_run``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and np.isfinite(value)


def scaled_config(text: str, n_units: int) -> str:
    """A shipped config with its population size replaced."""
    out, count = re.subn(r"(?m)^n_units\s*=.*$", f"n_units = {n_units}", text)
    if count != 1:
        raise ValueError("config has no single n_units line to scale")
    return out


class Workload:
    name = ""
    why = ""
    unit = "replication"  # what one op is
    ops_per_call = 1
    kernel = "array"  # gauge.KERNELS entry that does the same kind of work
    # Spans that must fire in every traced call.
    expected_spans = ("cli", "config.parse", "weights.build", "design.assign", "dynamics.evolve", "estimators.fit",
                      "estimators.propagate")

    def __init__(self, root: Path, work: Path, base_seed: int):
        self.root = root
        self.work = work
        self.base_seed = base_seed
        self.out = work / "out"

    def setup(self) -> None:
        """Write generated inputs under ``work``; runs outside any timed call."""

    def argvs(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def check_call(self, i: int) -> None:
        raise NotImplementedError

    def check_run(self) -> None:
        """Checks over every call checked so far."""

    def missing(self) -> int:
        """Estimates the last call reported as missing."""
        raise NotImplementedError


class _BenchmarkWorkload(Workload):
    """``spillsim benchmark`` on a batch of ``reps`` consecutive seeds."""

    reps = 1
    estimators: tuple[str, ...] = ()

    def __init__(self, root, work, base_seed):
        super().__init__(root, work, base_seed)
        self.ops_per_call = self.reps
        self.errors: dict[str, list[float]] = {e: [] for e in self.estimators}

    def config_path(self) -> Path:
        raise NotImplementedError

    def first_seed(self, i: int) -> int:
        return self.base_seed + i * self.reps

    def argvs(self, i):
        return [["benchmark", "--config", str(self.config_path()), "--out", str(self.out),
                 "--seed", str(self.first_seed(i)), "--reps", str(self.reps)]]

    def _report(self) -> dict:
        return json.loads((self.out / "report.json").read_text())

    def check_call(self, i):
        report = self._report()
        seeds = [r["seed"] for r in report["records"]]
        first = self.first_seed(i)
        _require(seeds == list(range(first, first + self.reps)), f"report seeds {seeds} are not {first}..")
        _require(sorted(report["estimators"]) == sorted(self.estimators), "report lists the wrong estimators")
        for rec in report["records"]:
            gt = rec["gt_tte"]
            _require(_finite(gt), f"seed {rec['seed']}: truth {gt} is not finite")
            for name in self.estimators:
                est = rec["estimates"][name]
                _require(_finite(est), f"seed {rec['seed']}: {name} estimate {est} is not finite")
                self.errors[name].append(est - gt)

    def missing(self):
        return sum(s["n_excluded"] for s in self._report()["estimators"].values())


class DenseMC(_BenchmarkWorkload):
    name = "dense_mc"
    why = ("dense Gaussian N=2000 as shipped; the N x N weight draw and matvec dominate, "
           "so a lazy Gaussian shows here and nowhere else")
    reps = 3
    estimators = ("dm", "ht", "ese_basic")
    expected_spans = Workload.expected_spans + ("weights.apply", "estimators.classical", "harness.run_once",
                                                "harness.aggregate")

    def config_path(self):
        return self.root / "configs" / "spillover.cfg"

    def check_run(self):
        ese = np.abs(self.errors["ese_basic"])
        dm = np.abs(self.errors["dm"])
        _require(len(ese) > 0, "no replications were checked")
        wins = float(np.mean(ese < dm))
        _require(wins >= 0.8, f"ese_basic beats dm in {wins:.0%} of replications, need 80%")
        _require(ese.mean() <= 0.5 * dm.mean(),
                 f"mean |err| of ese_basic {ese.mean():.4g} exceeds half that of dm {dm.mean():.4g}")


class StructuredMC(_BenchmarkWorkload):
    name = "structured_mc"
    why = ("two-cluster N=100000; large-array evolution and the pooled lstsq fit dominate, "
           "weight construction is negligible")
    n_units = 100_000
    reps = 1
    estimators = ("dm", "ht", "ese_basic", "ese_cluster")
    expected_spans = DenseMC.expected_spans

    def config_path(self):
        return self.work / "clustered_100k.cfg"

    def setup(self):
        text = (self.root / "configs" / "clustered.cfg").read_text()
        self.config_path().write_text(scaled_config(text, self.n_units))

    def check_run(self):
        dm_bias = abs(float(np.mean(self.errors["dm"])))
        for name in ("ese_basic", "ese_cluster"):
            bias = abs(float(np.mean(self.errors[name])))
            _require(bias <= 0.1 * dm_bias, f"|bias| of {name} {bias:.4g} is not far below that of dm {dm_bias:.4g}")


class ThresholdSweep(Workload):
    name = "threshold_sweep"
    why = ("many small N=2000 replications along a threshold-strength grid; per-replication "
           "overhead, evolution and the fit dominate and WeightSet.apply is bypassed")
    grid = (0, 1, 2, 3, 4)
    reps = 20  # run.reps of configs/threshold.cfg
    ops_per_call = len(grid) * reps
    kernel = "interp"
    expected_spans = Workload.expected_spans + ("harness.run_once", "harness.aggregate")

    def argvs(self, i):
        return [["sweep", "--config", str(self.root / "configs" / "threshold.cfg"), "--out", str(self.out),
                 "--seed", str(self.base_seed + i * self.reps), "--reps", str(self.reps),
                 "--param", "threshold_strength", "--grid", ",".join(map(str, self.grid))]]

    def _rows(self) -> list[dict]:
        with open(self.out / "sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def check_call(self, i):
        rows = [r for r in self._rows() if r["estimator"] == "ese_basic"]
        _require([float(r["value"]) for r in rows] == [float(v) for v in self.grid], "sweep rows miss grid values")
        bias = [abs(float(r["bias"])) for r in rows]
        _require(all(np.isfinite(bias)), "sweep bias is not finite")
        # The documented failure mode: the observed ramp never crosses tau,
        # so ESE misses a jump that grows with the strength.
        _require(all(a < b for a, b in zip(bias, bias[1:])), f"|bias| of ese_basic {bias} does not grow with strength")

    def missing(self):
        return sum(int(r["n_excluded"]) for r in self._rows())


class PanelIO(Workload):
    name = "panel_io"
    why = ("simulate then estimate on two-cluster N=10000; writing and reading the panel CSVs "
           "dominates, so panel I/O shows here alone")
    unit = "simulate+estimate cycle"
    kernel = "interp"
    n_units = 10_000
    expected_spans = Workload.expected_spans + ("weights.apply", "estimators.classical", "panel.write",
                                                "panel.read")

    def config_path(self) -> Path:
        return self.work / "clustered_10k.cfg"

    def setup(self):
        text = (self.root / "configs" / "clustered.cfg").read_text()
        self.config_path().write_text(scaled_config(text, self.n_units))

    def argvs(self, i):
        seed = str(self.base_seed + i)
        sim, est = self.out / "sim", self.out / "est"
        cfg = str(self.config_path())
        return [
            ["simulate", "--config", cfg, "--out", str(sim), "--seed", seed],
            ["estimate", "--config", cfg, "--out", str(est), "--seed", seed,
             "--outcomes", str(sim / "outcomes.csv"), "--treatments", str(sim / "treatments.csv")],
        ]

    def _in_memory(self, seed: int):
        """The observed experiment as ``spillsim simulate`` builds it."""
        from spillsim import design
        from spillsim.config import parse_config
        from spillsim.dynamics import simulate_panel
        from spillsim.panel import round_index_covariates
        from spillsim.rng import substream

        config = dataclasses.replace(parse_config(self.config_path().read_text()), base_seed=seed)
        n, t = config.n_units, config.n_rounds
        weights = config.weights.build(n, t, seed)
        w = design.assign(config.design, seed)
        y0 = config.baseline_mean + config.baseline_sd * substream(seed, "baseline").standard_normal(n)
        y, exposure = simulate_panel(config.dynamics, weights, w, round_index_covariates(n, t), y0, seed)
        return config, weights, y, w, exposure

    @staticmethod
    def _read_back(path: Path, expected: np.ndarray, first_round: int) -> None:
        """Compare a panel CSV with an in-memory matrix bit for bit, using a
        reader independent of spillsim's."""
        with open(path) as fh:
            _require(fh.readline().strip() == "unit,round,value", f"{path.name}: wrong header")
        cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n, cols = expected.shape
        _require(cells.shape == (n * cols, 3), f"{path.name}: {cells.shape[0]} rows, expected {n * cols}")
        _require(np.array_equal(cells[:, 0], np.repeat(np.arange(n), cols)), f"{path.name}: unit ids out of order")
        _require(np.array_equal(cells[:, 1], np.tile(np.arange(first_round, first_round + cols), n)),
                 f"{path.name}: rounds out of order")
        got = np.ascontiguousarray(cells[:, 2]).view(np.uint64)
        want = np.ascontiguousarray(expected, dtype=np.float64).reshape(-1).view(np.uint64)
        bad = np.flatnonzero(got != want)
        _require(bad.size == 0, f"{path.name}: {bad.size} cells differ from the in-memory simulation"
                 + (f", first at unit {bad[0] // cols}" if bad.size else ""))

    def check_call(self, i):
        from spillsim.estimators import fit_ese
        from spillsim.harness import structure_of

        config, weights, y, w, exposure = self._in_memory(self.base_seed + i)
        sim, est = self.out / "sim", self.out / "est"
        self._read_back(sim / "outcomes.csv", y.values, 0)
        self._read_back(sim / "treatments.csv", w.values, 1)
        self._read_back(sim / "exposure.csv", exposure.values, 1)
        structure = structure_of(weights)
        want = {name: fit_ese(y, w, config.feature_spec(name, structure), structure).to_dict()
                for name in config.estimators if name.startswith("ese_")}
        got = json.loads((est / "coefficients.json").read_text())
        _require(got == json.loads(json.dumps(want)), "coefficients differ from a fit on the in-memory panels")
        rows = self._estimate_rows()
        _require(len(rows) == len(config.estimators) * config.n_rounds, f"estimates.csv has {len(rows)} rows")
        for r in rows:
            if r["estimator"].startswith("ese_"):
                _require(r["estimate"] != "" and np.isfinite(float(r["estimate"])), f"missing estimate {r}")

    def _estimate_rows(self) -> list[dict]:
        with open(self.out / "est" / "estimates.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def missing(self):
        return sum(r["estimate"] == "" for r in self._estimate_rows())


WORKLOADS = {w.name: w for w in (DenseMC, StructuredMC, ThresholdSweep, PanelIO)}
