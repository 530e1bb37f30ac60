#!/usr/bin/env python3
"""Print the sha256 of every file the CLI writes for the shipped configs.

For each config in ``configs/`` this runs ``simulate``, ``estimate`` on the
panels just simulated, and ``benchmark``; ``threshold.cfg`` and
``trend_weak_signal.cfg`` also get the sweep of their failure mode; ``demo``
runs once. Everything is written under a temporary directory that is also the
working directory, and ``estimate`` gets relative input paths, so the input
paths recorded in its ``manifest.json`` are the same in every checkout. One
line ``<sha256>  <config>/<command>/<file>`` is printed per output file.

Two checkouts write byte-identical output when their digests match:

    python scripts/output_digests.py > change.txt
    python scripts/output_digests.py --repo path/to/other/checkout > parent.txt
    diff parent.txt change.txt

``manifest.json`` records the package version, so a version bump changes those
lines only.

``--record`` prints first the environment the last bits may depend on, one
``# field: value`` line each (numpy's version, its BLAS and the CPU features
numpy dispatches on). ``tests/data/digests-<version>.txt`` is this output for
the package version, and a tier-1 test compares every run with it:

    python scripts/output_digests.py --record > tests/data/digests-0.10.0.txt

``--keep DIR`` writes the output tree to DIR (which must not exist yet)
instead of a temporary directory. ``--diff A B`` runs nothing; it compares two
kept trees. For every file whose bytes differ it compares the numbers of the
JSON or CSV files field by field and prints the largest absolute and relative
difference, and it flags any difference that is not numeric (a string, a key,
a row count). This audits numeric drift when a change is meant to move
numbers in their last bits only:

    python scripts/output_digests.py --keep change_tree
    python scripts/output_digests.py --repo path/to/other/checkout --keep parent_tree
    python scripts/output_digests.py --diff parent_tree change_tree
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

SWEEPS = {
    "threshold": ("threshold_strength", "0,1,2,3,4"),
    "trend_weak_signal": ("trend", "0,0.5,1,2,3"),
}


def _runs(configs: Path):
    """(output directory, CLI arguments) of every run, in order."""
    for cfg in sorted(configs.glob("*.cfg")):
        name = cfg.stem
        yield f"{name}/simulate", ["simulate", "--config", str(cfg)]
        yield f"{name}/estimate", [
            "estimate", "--config", str(cfg),
            "--outcomes", f"{name}/simulate/outcomes.csv", "--treatments", f"{name}/simulate/treatments.csv",
        ]
        yield f"{name}/benchmark", ["benchmark", "--config", str(cfg)]
        if name in SWEEPS:
            param, grid = SWEEPS[name]
            yield f"{name}/sweep", ["sweep", "--config", str(cfg), "--param", param, "--grid", grid]
    yield "demo", ["demo"]


class _Drift:
    """Largest numeric difference and first non-numeric difference of a file."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.max_rel_at = ""
        self.other: str | None = None

    def number(self, where: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        rel = diff / max(abs(a), abs(b)) if math.isfinite(diff) else math.inf
        self.max_abs = max(self.max_abs, diff)
        if rel > self.max_rel:
            self.max_rel, self.max_rel_at = rel, f"{where} ({a!r} -> {b!r})"

    def text(self, where: str, a, b) -> None:
        if a != b and self.other is None:
            self.other = f"{where}: {a!r} -> {b!r}"

    def json(self, where: str, a, b) -> None:
        if _is_number(a) and _is_number(b):
            self.number(where, float(a), float(b))
        elif isinstance(a, dict) and isinstance(b, dict):
            self.text(f"{where} keys", sorted(a), sorted(b))
            for key in sorted(a.keys() & b.keys()):
                self.json(f"{where}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            self.text(f"{where} length", len(a), len(b))
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(f"{where}[{i}]", x, y)
        else:
            self.text(where, a, b)

    def csv(self, a: list[list[str]], b: list[list[str]]) -> None:
        self.text("rows", len(a), len(b))
        header = a[0] if a else []
        for i, (row_a, row_b) in enumerate(zip(a, b), start=1):
            self.text(f"line {i} fields", len(row_a), len(row_b))
            for j, (x, y) in enumerate(zip(row_a, row_b)):
                fx, fy = _float(x), _float(y)
                if fx is None or fy is None:
                    self.text(f"line {i} field {j}", x, y)
                else:
                    column = header[j] if j < len(header) else str(j)
                    self.number(f"line {i} {column}", fx, fy)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _diff(a: Path, b: Path) -> int:
    """Print one line per file that is missing from a tree or differs."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    same = 0
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            print(f"{name}: only in {a if name in files_a else b}")
            continue
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if bytes_a == bytes_b:
            same += 1
            continue
        drift = _Drift()
        if name.endswith(".json"):
            drift.json("", json.loads(bytes_a), json.loads(bytes_b))
        elif name.endswith(".csv"):
            drift.csv(*(list(csv.reader(io.StringIO(x.decode()))) for x in (bytes_a, bytes_b)))
        else:
            drift.other = "bytes differ"
        line = f"{name}:"
        if drift.max_abs or drift.max_rel:
            line += f" max_abs={drift.max_abs:.3g} max_rel={drift.max_rel:.3g} at {drift.max_rel_at}"
        print(line + (f" NON-NUMERIC {drift.other}" if drift.other else ""))
    print(f"{same} of {len(files_a | files_b)} files byte-identical")
    return 0


def environment() -> dict[str, str]:
    """What output bits may depend on besides the code: numpy's version, the
    BLAS it calls, and the CPU features it dispatches on (baseline and found)."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config only
        return {"numpy": np.__version__, "blas": "unknown", "cpu": "unknown"}
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu": " ".join(simd["baseline"] + simd["found"]),
    }


def _write_tree(repo: Path, cli_main) -> int:
    """Run every CLI command into the working directory, then print digests."""
    for out, argv in _runs(repo / "configs"):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main([*argv, "--out", out])
        if status != 0:
            sys.stderr.write(f"spillsim {' '.join(argv)} exited {status}\n")
            return status
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ are run (default: this one)")
    parser.add_argument("--keep", type=Path, metavar="DIR", help="write the output tree to DIR (must not exist)")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two kept output trees instead of running anything")
    parser.add_argument("--record", action="store_true",
                        help="print the environment record (# field: value lines) before the digests")
    args = parser.parse_args()
    if args.diff:
        return _diff(*args.diff)
    if args.record:
        for field, value in environment().items():
            print(f"# {field}: {value}")
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    from spillsim.cli import main as cli_main

    if args.keep:
        args.keep.mkdir(parents=True)
        os.chdir(args.keep)
        return _write_tree(repo, cli_main)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        status = _write_tree(repo, cli_main)
        os.chdir(repo)
    return status


if __name__ == "__main__":
    sys.exit(main())
