"""The benchmark's tracer contract, checked from the test suite.

``perfbench/spans.py`` wraps named public functions where ``cli`` and
``harness`` look them up, and each workload in ``perfbench/workloads.py``
lists the spans that must fire in every traced call. A refactor that routes
work around a wrapped name (say, a sweep that evolves scenarios without
calling ``harness.run_once``) breaks the traced benchmark; this test makes
that a test failure. Both files are loaded by path and are not modified.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from spillsim import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ``argv`` holds the argument lists of one traced op, as the workload makes
# them, on small inputs. PanelIO's estimate reads what its simulate wrote.
@pytest.mark.parametrize(
    "workload, argv",
    [
        ("ThresholdSweep", [["sweep", "--config", "threshold.cfg", "--reps", "2", "--param", "threshold_strength",
                             "--grid", "0,2"]]),
        ("DenseMC", [["benchmark", "--config", "spillover.cfg", "--reps", "3"]]),
        ("StructuredMC", [["benchmark", "--config", "clustered.cfg", "--reps", "1"]]),
        ("PanelIO", [["simulate", "--config", "clustered.cfg", "--out", "{tmp}/sim"],
                     ["estimate", "--config", "clustered.cfg", "--out", "{tmp}/est",
                      "--outcomes", "{tmp}/sim/outcomes.csv", "--treatments", "{tmp}/sim/treatments.csv"]]),
    ],
)
def test_traced_call_fires_every_expected_span(tmp_path, workload, argv):
    spans, workloads = _load("spans"), _load("workloads")
    calls = [[str(ROOT / "configs" / a) if a.endswith(".cfg") else a.format(tmp=tmp_path) for a in call]
             for call in argv]
    tracer = spans.Tracer()
    start = time.perf_counter()
    with spans.traced(tracer):
        for call in calls:
            with tracer.span("cli"):  # one span per CLI call, as the runner opens them
                assert cli.main(call if "--out" in call else call + ["--out", str(tmp_path)]) == 0
    wall = time.perf_counter() - start
    tracer.check_fired(getattr(workloads, workload).expected_spans)
    metrics = tracer.call_metrics(wall)  # self times must add up to the wall time
    assert metrics["harness.replications"] >= 1 or workload == "PanelIO"  # simulate evolves without run_once
