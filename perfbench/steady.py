"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --workloads dense_mc,panel_io --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --trace-seed 1 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json. ``--trace-seed`` adds one traced run per workload, and
``--out`` writes every result with its run environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "elapsed_s": elapsed, "env": env, "notes": lines[:-2], **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    results: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in _seeds(args.seeds)]
        entry = {"runs": runs, "summary": {}}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"calls {[r['attempted'] for r in runs]}, longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            entry["summary"][name] = {"median": median, "q1": q1, "q3": q3, "spread": rel, "bound": metric["bound"]}
            steady = rel < metric["bound"] / 3
            ok &= rel <= metric["bound"] or name == "setup_s"
            print(f"  {name:14s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:7.2%} bound {metric['bound']:.0%}{'' if steady else '  <- above a third of the bound'}")
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, args.seconds, 1)
        results[workload] = entry
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds, "workloads": results},
                                       indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
