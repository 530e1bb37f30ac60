import ast
import importlib.util
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import spillsim
from spillsim.dynamics import DynamicsSpec

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    # One run of paper.py from shrunken copies of the shipped configs: the
    # threshold lines show the copies' N and 2N, so every size comes from the
    # configs.
    configs = tmp_path_factory.mktemp("configs")
    for name in ("spillover", "trend_weak_signal", "threshold"):
        text = (ROOT / "configs" / f"{name}.cfg").read_text()
        text = re.sub(r"(?m)^n_units\s*=.*$", "n_units = 60", text)
        text = re.sub(r"(?m)^reps\s*=.*$", "reps = 2", text)
        (configs / f"{name}.cfg").write_text(text)
    done = _run("paper.py", ["--configs", str(configs)], configs)
    return done, sorted(p.name for p in configs.iterdir())


def test_paper_prints_the_spillover_table_from_its_config(paper_run):
    done, files = paper_run
    assert done.returncode == 0, done.stderr
    assert "true effect (mean over 2 replications):" in done.stdout
    assert files == ["spillover.cfg", "threshold.cfg", "trend_weak_signal.cfg"]


def test_paper_prints_the_failure_modes_from_their_configs(paper_run):
    done, _ = paper_run
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "trend sweep (weak treatment signal):" in lines
    assert "threshold interference, doubling the population:" in lines
    assert [line.split(":")[0] for line in lines if line.startswith("  N=")] == ["  N=    60", "  N=   120"]


# A scenario is described by a config file; a script that built one in Python
# would drift from the shipped configs unseen.
_HINTS = typing.get_type_hints(DynamicsSpec)
SCENARIO_CLASSES = {"ScenarioConfig", "WeightConfig", "DynamicsSpec", "DesignSpec"} | {
    cls.__name__ for part in ("unit", "peer", "exposure") for cls in typing.get_args(_HINTS[part]) or [_HINTS[part]]
}


def scenario_calls(path: Path) -> list[str]:
    """``file:line name`` of every call in ``path`` to a scenario class."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SCENARIO_CLASSES:
                calls.append(f"{path.name}:{node.lineno} {name}")
    return calls


def test_no_script_builds_a_scenario():
    assert "LinearUnit" in SCENARIO_CLASSES and "MeanFieldThreshold" in SCENARIO_CLASSES
    assert [call for path in sorted((ROOT / "scripts").glob("*.py")) for call in scenario_calls(path)] == []


@pytest.fixture(scope="module")
def digests_run(tmp_path_factory):
    # One run of output_digests.py, kept in ``tree``, which every digest test
    # reads.
    cwd = tmp_path_factory.mktemp("digests")
    return _run("output_digests.py", ["--keep", "tree"], cwd), cwd


def test_output_digests_lists_every_output_file_and_compares_trees(digests_run):
    # Byte-identity between two checkouts is judged by this script's lines.
    done, cwd = digests_run
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 57
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    done = _run("output_digests.py", ["--diff", "tree", "tree"], cwd)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["57 of 57 files byte-identical"]


def test_output_digests_match_the_committed_digests_of_this_version(digests_run):
    # Output that moves by one bit needs a version bump and a new digest file
    # (``output_digests.py --record``). The digests are recorded on one
    # environment; on another the last bits of BLAS and SIMD arithmetic may
    # differ, so there the test skips, naming what differs.
    done, _ = digests_run
    assert done.returncode == 0, done.stderr
    path = ROOT / "tests" / "data" / f"digests-{spillsim.__version__}.txt"
    recorded = path.read_text().splitlines()
    record = dict(line[2:].split(": ", 1) for line in recorded if line.startswith("# "))
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    here = script.environment()
    differ = [f"{key} (recorded {record.get(key)!r}, here {here.get(key)!r})"
              for key in sorted(record.keys() | here.keys()) if record.get(key) != here.get(key)]
    if differ:
        pytest.skip(f"{path.name} was recorded on another environment: {'; '.join(differ)}")
    assert done.stdout.splitlines() == [line for line in recorded if not line.startswith("# ")]
