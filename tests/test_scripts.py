import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_concentration.py", ["--sizes", "50,100", "--reps", "3"]),
        ("run_failure_modes.py", ["--n-units", "60", "--reps", "2", "--out", "out"]),
        ("run_spillover_benchmark.py", ["--n-units", "60", "--reps", "2", "--out", "out"]),
    ],
)
def test_script_runs_at_tiny_size(tmp_path, script, args):
    # Only the exit status is checked: the scripts are thin drivers of the
    # package, and this catches a caller left behind by an API change.
    done = _run(script, args, tmp_path)
    assert done.returncode == 0, done.stderr


def test_output_digests_lists_every_output_file_and_compares_trees(tmp_path):
    # Byte-identity between two checkouts is judged by this script's lines.
    done = _run("output_digests.py", ["--keep", "tree"], tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 57
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    done = _run("output_digests.py", ["--diff", "tree", "tree"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["57 of 57 files byte-identical"]
