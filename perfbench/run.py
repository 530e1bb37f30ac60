"""spillsim benchmark: one workload per run, measured through ``spillsim.cli.main``.

Usage, from the root of a spillsim checkout:

    python3 perfbench/run.py --workload dense_mc --seed 1 --seconds 15 --trace 0

Load model: closed loop, one caller, one process. A *call* is one timed
``cli.main`` invocation; on ``panel_io`` it is the ``simulate`` plus
``estimate`` pair, timed together, so the call-time median is not taken over a
two-humped mix. Call ``i`` gets seeds derived from ``--seed`` alone.

``--trace 0`` prints the end-to-end metrics. Times are wall times scaled to
a reference machine speed by ``gauge.SpeedGauge``, because the speed of a
shared host drifts by up to 2x within minutes; the unscaled values are
printed beside them.

* ``ops_per_s``: replications (panel_io: cycles) per second over the timed calls;
* ``call_s_p50``: median call time;
* ``call_s_tail``: the highest call percentile with at least 10 calls beyond
  it; the percentile and the call count are printed beside it;
* ``setup_s``: median over fresh processes of the time from process start to
  the first timed call (interpreter start, importing spillsim, writing the
  generated configs and one warm-up call with its output check);
* ``peak_rss_mb``: median ``ru_maxrss`` of those fresh processes, each of
  which runs only this workload;
* ``success_rate``: 1 - error_rate, where error_rate is failed calls over
  attempted calls. A call fails if it raises, returns nonzero or fails an
  output check. A failed check over the whole run (``check_run``, or the
  byte-for-byte re-run of the first call) fails every call. The rate is
  reported as its complement so that the metric is never 0.

``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics of ``spans.METRICS``, each the median over traced calls of its
per-call value, in unscaled seconds; ``trace.overhead_pct`` compares the two
kinds of call.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the metrics with their
units and whether each is measured or computed, and the run environment.
The exit code is 2 when the directory is not a spillsim checkout and 3 when
a traced layer is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 11  # call_s_tail needs ten calls beyond it
SETUP_PROBES = 3
PROBE_CALLS = 1  # calls a probe makes after set-up, before reading its peak RSS
PROBE_TIMEOUT_S = 120
NPROC = len(os.sched_getaffinity(0))

END_TO_END = {
    "ops_per_s": ("1/s", "measured, scaled"),
    "call_s_p50": ("s", "measured, scaled"),
    "call_s_tail": ("s", "measured, scaled"),
    "setup_s": ("s", "measured, scaled"),
    "peak_rss_mb": ("MB", "measured"),
    "success_rate": ("ratio", "measured"),
}


def _limit_blas_threads() -> None:
    """BLAS threads are at most the CPUs this process may run on. Must run
    before numpy is imported; set-up probes inherit the setting."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = min(int(current), NPROC) if current.isdigit() and int(current) > 0 else NPROC
        os.environ[var] = str(threads)


def main() -> int:
    args = _parse_args()
    _limit_blas_threads()
    if not (ROOT / "src" / "spillsim" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"{ROOT} is not a spillsim checkout: src/spillsim and configs/ are missing\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spillsim.cli
    from gauge import SpeedGauge
    from spans import SpanError, Tracer, traced
    from workloads import WORKLOADS

    if not Path(spillsim.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"imported spillsim from {spillsim.cli.__file__}, not from this checkout\n")
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](ROOT, work, base_seed=args.seed * 1_000_000)
        workload.setup()
        runner = Runner(spillsim.cli.main, workload, args.seed, SpeedGauge(workload.kernel))
        if args.probe:
            return runner.probe()
        if args.trace:
            try:
                result = runner.traced_run(args.seconds, Tracer(), traced)
            except SpanError as exc:
                sys.stderr.write(f"trace coverage: {exc}\n")
                return 3
        else:
            result = runner.timed_run(args.seconds)
        _report(args, workload, runner, result)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def _parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("dense_mc", "structured_mc", "threshold_sweep", "panel_io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


class Runner:
    """Runs a workload's calls and keeps their times and failures."""

    def __init__(self, cli_main, workload, seed: int, gauge):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}
        self.gauge = gauge

    def call(self, i: int, tracer=None) -> tuple[float, str | None]:
        """Run call ``i``; return its wall time and the reason it failed, if any."""
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for argv in self.workload.argvs(i):
                    if tracer is None:
                        rc = self.cli_main(argv)
                    else:
                        with tracer.span("cli"):
                            rc = self.cli_main(argv)
                    if rc != 0:
                        problem = f"{argv[0]} returned {rc}: {err.getvalue().strip()}"
                        break
        except Exception:
            problem = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        return wall, problem

    def checked_call(self, i: int, tracer=None, wrappers=None) -> float:
        """Run call ``i`` inside ``wrappers``, then check its outputs outside them."""
        with wrappers or contextlib.nullcontext():
            wall, problem = self.call(i, tracer)
        if problem is None:
            problem = self._check(self.workload.check_call, i)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"call {i}: {problem}")
        return wall

    def _check(self, fn, *args) -> str | None:
        from workloads import CheckFailed

        try:
            fn(*args)
        except CheckFailed as exc:
            return str(exc)
        except Exception:
            return traceback.format_exc(limit=2)
        return None

    def warm_up(self) -> None:
        """Call 0: fills caches and is the call re-run for the byte check."""
        _, problem = self.call(0)
        problem = problem or self._check(self.workload.check_call, 0)
        if problem is not None:
            self.problems.append(f"warm-up: {problem}")
        self.snapshot = _read_tree(self.workload.out)

    def finish(self) -> None:
        """Run-level checks; any failure fails every call of the run."""
        problem = self._check(self.workload.check_run)
        shutil.rmtree(self.workload.out, ignore_errors=True)
        _, rerun = self.call(0)
        if rerun is None and _read_tree(self.workload.out) != self.snapshot:
            rerun = "re-running call 0 did not reproduce its output bytes"
        for p in (problem, rerun):
            if p is not None:
                self.problems.append(p)
                self.failed = len(self.times)

    def timed_run(self, seconds: float) -> dict:
        probes = [self._spawn_probe() for _ in range(SETUP_PROBES)]
        self.warm_up()
        scaled = []
        kernel_s = self.gauge.sample()
        start = time.perf_counter()
        i = 1
        while time.perf_counter() - start < seconds or len(self.times) < MIN_CALLS:
            wall = self.checked_call(i)
            kernel_after_s = self.gauge.sample()
            self.times.append(wall)
            scaled.append(self.gauge.scale(wall, kernel_s, kernel_after_s))
            kernel_s = kernel_after_s
            i += 1
        self.finish()
        n = len(self.times)
        unscaled = {**_call_metrics(self.times, self.workload.ops_per_call),
                    "setup_s": statistics.median(p["wall_s"] for p in probes)}
        self.notes = {k: f"unscaled {v:.6g}" for k, v in unscaled.items()}
        self.notes["call_s_p50"] += f", {n} calls"
        self.notes["call_s_tail"] += f", p{100 * (n - 10) / n:.1f} of {n} calls"
        return {
            **_call_metrics(scaled, self.workload.ops_per_call),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in probes) / 1024,
            "success_rate": 1 - self.failed / n,
        }

    def traced_run(self, seconds: float, tracer, traced) -> dict:
        from spans import METRICS

        self.warm_up()
        plain, per_call = [], []
        start = time.perf_counter()
        i = 1
        while time.perf_counter() - start < seconds or len(per_call) < MIN_CALLS:
            plain.append(self.checked_call(i))
            tracer.reset()
            failed = self.failed
            wall = self.checked_call(i + 1, tracer, traced(tracer))
            if self.failed == failed:
                tracer.check_fired(self.workload.expected_spans)
            metrics = tracer.call_metrics(wall)
            metrics["estimators.missing"] = self._missing()
            per_call.append(metrics)
            i += 2
        self.times = plain + [m["trace.call_s"] for m in per_call]
        self.finish()
        out = {name: statistics.median(m[name] for m in per_call) for name in METRICS}
        out["trace.overhead_pct"] = 100 * (out["trace.call_s"] / statistics.median(plain) - 1)
        self.notes["trace.call_s"] = f"median of {len(per_call)} traced calls"
        return out

    def _missing(self) -> int:
        try:
            return self.workload.missing()
        except (OSError, KeyError, ValueError):
            return -1

    def _spawn_probe(self) -> dict:
        """Set up in a fresh process and read its set-up time and peak RSS."""
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload.name,
                "--seed", str(self.seed), "--seconds", "1", "--probe"]
        kernel_s = self.gauge.sample()
        spawned = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}: {stderr.strip()}")
        report = json.loads(stdout.strip().splitlines()[-1])
        self.problems += [f"set-up probe: {p}" for p in report["problems"]]
        wall = report["ready"] - spawned
        return {"wall_s": wall, "setup_s": self.gauge.scale(wall, kernel_s, report["kernel_s"]),
                "maxrss_kb": report["maxrss_kb"]}

    def probe(self) -> int:
        """Body of a set-up probe process."""
        self.warm_up()
        ready = time.perf_counter()
        for i in range(1, PROBE_CALLS + 1):
            self.checked_call(i)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kernel_s = self.gauge.sample()  # after the peak is read: the gauge allocates
        print(json.dumps({"ready": ready, "kernel_s": kernel_s, "maxrss_kb": maxrss_kb, "problems": self.problems}))
        return 0


def _call_metrics(times: list[float], ops_per_call: int) -> dict:
    n = len(times)
    return {
        "ops_per_s": n * ops_per_call / sum(times),
        "call_s_p50": statistics.median(times),
        "call_s_tail": sorted(times)[n - 11],
    }


def _read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def environment(args, calls: int) -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": calls,
    }


def _report(args, workload, runner, metrics: dict) -> None:
    from spans import METRICS

    for problem in runner.problems:
        print(f"FAILED {problem}")
    units = {**END_TO_END, **METRICS}
    for name, value in metrics.items():
        unit, how = units[name]
        note = runner.notes.get(name, "")
        print(f"{workload.name} {name} = {value:.6g} {unit} [{how}] {note}".rstrip())
    if args.trace:
        print(f"{workload.name} dominant layer: {_dominant(metrics)}")
    print(f"{workload.name} op = one {workload.unit}, {workload.ops_per_call} per call; "
          f"error_rate = {runner.failed}/{len(runner.times)}")
    print("env " + json.dumps(environment(args, len(runner.times)), sort_keys=True))
    result = {
        "correct": not runner.problems,
        "attempted": len(runner.times),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def _dominant(metrics: dict) -> str:
    from spans import SELF_TIME

    by_layer: dict[str, float] = {}
    for metric in SELF_TIME.values():
        layer = metric.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + metrics[metric]
    total = sum(by_layer.values()) or 1.0
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {100 * s / total:.0f}%" for layer, s in ranked[:4])


if __name__ == "__main__":
    sys.exit(main())
