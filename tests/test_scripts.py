import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
