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
"""

import argparse
import contextlib
import hashlib
import io
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ are run (default: this one)")
    args = parser.parse_args()
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    from spillsim.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for out, argv in _runs(repo / "configs"):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main([*argv, "--out", out])
            if status != 0:
                sys.stderr.write(f"spillsim {' '.join(argv)} exited {status}\n")
                return status
        for path in sorted(Path(".").rglob("*")):
            if path.is_file():
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
        os.chdir(repo)
    return 0


if __name__ == "__main__":
    sys.exit(main())
