import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from spillsim.cli import main
from spillsim.estimators import FeatureSpec, fit_ese
from spillsim.panel import read_outcome_csv, read_treatment_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

LINEAR_CONFIG = """
[population]
n_units = 120
n_rounds = 4
baseline_mean = 0.0
baseline_sd = 1.0

[weights]
kind = clustered
n_clusters = 1
w_in = 1.0
w_out = 0.0

[dynamics]
unit = linear
w_coef = 1.0
y_coef = 0.8
intercept = 0.2
peer = linear
peer_w = 0.6
peer_y = 0.3
exposure = weighted_sum
noise_sd = 0.0

[design]
kind = bernoulli
probs = 0.0, 0.2, 0.4, 0.8

[estimators]
use = dm, ht, ese_basic

[run]
seed = 5
reps = 2
"""

NULL_CONFIG = """
[population]
n_units = 40
n_rounds = 4

[dynamics]
unit = linear
w_coef = 0.0
y_coef = 0.5
peer = zero
noise_sd = 0.0

[design]
kind = bernoulli
probs = 0.0, 0.2, 0.4, 0.8

[run]
seed = 2
reps = 2
"""


def _write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_simulate_emits_panels_and_manifest(tmp_path):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    y = read_outcome_csv(out / "outcomes.csv")
    w = read_treatment_csv(out / "treatments.csv")
    assert y.n_units == 120 and y.n_rounds == 4
    assert w.n_units == 120 and w.n_rounds == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert "config_hash" in manifest and "dynamics_hash" in manifest
    assert (out / "exposure.csv").exists()


def test_estimate_matches_direct_fit(tmp_path):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    sim_dir = tmp_path / "sim"
    main(["simulate", "--config", str(cfg), "--out", str(sim_dir)])
    est_dir = tmp_path / "est"
    code = main(
        [
            "estimate",
            "--config",
            str(cfg),
            "--out",
            str(est_dir),
            "--outcomes",
            str(sim_dir / "outcomes.csv"),
            "--treatments",
            str(sim_dir / "treatments.csv"),
        ]
    )
    assert code == 0
    payload = json.loads((est_dir / "coefficients.json").read_text())
    y = read_outcome_csv(sim_dir / "outcomes.csv")
    w = read_treatment_csv(sim_dir / "treatments.csv")
    spec = FeatureSpec.parse(["intercept", "own_treatment", "lagged_outcome", "treated_fraction", "lagged_mean"])
    direct = fit_ese(y, w, spec)
    for name, value in direct.by_name().items():
        assert payload["ese_basic"]["coefficients"][name] == pytest.approx(value, abs=1e-12)
    lines = (est_dir / "estimates.csv").read_text().strip().splitlines()
    assert lines[0] == "estimator,round,estimate"
    assert len(lines) == 1 + 3 * 4  # three estimators, four rounds


def test_estimate_rejects_mismatched_panel(tmp_path):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    sim_dir = tmp_path / "sim"
    main(["simulate", "--config", str(cfg), "--out", str(sim_dir)])
    other = _write_config(tmp_path, NULL_CONFIG, name="other.cfg")
    code = main(
        [
            "estimate",
            "--config",
            str(other),
            "--out",
            str(tmp_path / "bad"),
            "--outcomes",
            str(sim_dir / "outcomes.csv"),
            "--treatments",
            str(sim_dir / "treatments.csv"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "units,rounds,shape",
    [(slice(None), slice(0, 3), "120 units x 3 rounds"), (slice(0, 100), slice(None), "100 units x 4 rounds")],
    ids=["one_round_fewer", "fewer_units"],
)
def test_estimate_rejects_truncated_treatment_panel(tmp_path, capsys, units, rounds, shape):
    from spillsim.panel import TreatmentPanel, write_treatment_csv

    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 0
    treatments = sim_dir / "treatments.csv"
    full = read_treatment_csv(treatments)
    write_treatment_csv(treatments, TreatmentPanel(full.values[units, rounds]))
    capsys.readouterr()
    code = main(
        [
            "estimate", "--config", str(cfg), "--out", str(tmp_path / "est"),
            "--outcomes", str(sim_dir / "outcomes.csv"), "--treatments", str(treatments),
        ]
    )
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith("ConfigError: ")
    assert str(treatments) in error and shape in error and "config says 120 x 4" in error
    assert not (tmp_path / "est" / "coefficients.json").exists()


def test_benchmark_null_scenario_reports_zero_gt(tmp_path):
    cfg = _write_config(tmp_path, NULL_CONFIG)
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gt_tte_mean"] == 0.0
    assert report["n_reps"] == 2
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "scenario,estimator,rep,estimate,gt,bias"


def test_benchmark_outputs_reproducible(tmp_path):
    cfg = _write_config(tmp_path, NULL_CONFIG)
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    main(["benchmark", "--config", str(cfg), "--out", str(out1)])
    main(["benchmark", "--config", str(cfg), "--out", str(out2)])
    for name in ("report.json", "report.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_benchmark_seed_and_reps_overrides(tmp_path):
    cfg = _write_config(tmp_path, NULL_CONFIG)
    out = tmp_path / "bench2"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out), "--seed", "9", "--reps", "1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_reps"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


def test_sweep_writes_rows(tmp_path):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--param", "trend", "--grid", "0,0.5"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "parameter,value,estimator,bias,rmse,n_excluded"
    # two grid points, three estimators
    assert len(lines) == 1 + 2 * 3


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0,abc", "ConfigError: --grid entry 2 'abc' is not a number"),
        ("0, nan", "ConfigError: --grid entry 2 'nan' is not finite"),
        ("0,1e308", "FloatingPointError: trend=1e+308: non-finite outcome for unit 0 at round 2 in scenario observed"),
    ],
    ids=["bad_entry", "non_finite_entry", "overflow"],
)
def test_sweep_errors_name_the_grid_entry(tmp_path, capsys, grid, message):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--param", "trend", "--grid", grid]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == message


def test_demo_outputs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "demo1", tmp_path / "demo2"
    assert main(["demo", "--out", str(out1), "--seed", "11"]) == 0
    assert main(["demo", "--out", str(out2), "--seed", "11"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert names  # non-empty
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_demo_runs_each_seed_once(tmp_path, monkeypatch):
    from spillsim import cli, harness

    seeds = []
    run_once = harness.run_once

    def counted(config, seed):
        seeds.append(seed)
        return run_once(config, seed)

    monkeypatch.setattr(harness, "run_once", counted)
    monkeypatch.setattr(cli, "run_once", counted, raising=False)  # in case cli calls it directly
    assert main(["demo", "--out", str(tmp_path), "--seed", "11", "--reps", "2"]) == 0
    assert seeds == [11, 12]


def test_demo_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["demo", "--out", str(out1), "--seed", "1"])
    main(["demo", "--out", str(out2), "--seed", "2"])
    assert (out1 / "trajectories.csv").read_bytes() != (out2 / "trajectories.csv").read_bytes()


def test_cli_error_is_single_json_line(tmp_path, capsys):
    bad = _write_config(tmp_path, "[population]\nn_units = 0\n")
    code = main(["benchmark", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert "population.n_units" in payload["error"]


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]


def test_cli_reports_a_dense_matrix_too_large_for_memory(tmp_path, capsys):
    # fixed_network needs the materialized N x N matrix: 8e14 bytes at N = 10^7.
    text = NULL_CONFIG.replace("n_units = 40", "n_units = 10000000") + "fixed_network = true\n"
    cfg = _write_config(tmp_path, text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"].startswith("MemoryError:") and "N=10000000" in err["error"]


def test_sweep_overflow_in_the_fit_is_one_named_error(tmp_path, capsys):
    # At trend=1e300 every outcome stays finite, but the fit's residual sum
    # of squares does not.
    text = re.sub(r"(?m)^n_units\s*=.*$", "n_units = 120", (CONFIGS / "threshold.cfg").read_text())
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--param", "trend", "--grid", "0,1e300", "--reps", "20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == (
        "EstimatorOverflow: ese_basic at trend=1e+300, seed 4000: overflow encountered in matmul"
    )
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("name", ["clustered", "influencer", "threshold"])
def test_simulate_writes_the_observed_panel_of_run_once(tmp_path, monkeypatch, name):
    # One seed, one set of bits: simulate evolves the observed scenario
    # alone, run_once beside its two counterfactuals.
    from spillsim import harness
    from spillsim.config import parse_config

    observed, suite = [], harness.counterfactual_suite

    def captured(*args):
        out = suite(*args)
        observed.append(out[0].values)
        return out

    monkeypatch.setattr(harness, "counterfactual_suite", captured)
    cfg = CONFIGS / f"{name}.cfg"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    config = parse_config(cfg.read_text())
    harness.run_once(config, config.base_seed)
    simulated = read_outcome_csv(tmp_path / "outcomes.csv").values
    assert np.array_equal(simulated.view(np.uint64), observed[0].view(np.uint64))


EXPLICIT_CONFIG = """
[population]
n_units = 3
n_rounds = 4

[weights]
kind = explicit
matrix_path = {path}

[dynamics]
unit = linear
w_coef = 1.0
y_coef = 0.5
peer = linear
peer_w = 1.0

[design]
kind = bernoulli
"""


def test_manifests_record_the_sha256_of_every_input(tmp_path):
    import hashlib

    from spillsim.panel import write_cells
    from spillsim.weights import EXPLICIT_HEADER

    matrix = tmp_path / "w.csv"
    write_cells(matrix, np.full((3, 3), 0.25), header=EXPLICIT_HEADER)
    cfg = _write_config(tmp_path, EXPLICIT_CONFIG.format(path=matrix))

    def simulate_manifest(out):
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "manifest.json").read_text()

    before = simulate_manifest("a")
    manifest = json.loads(before)
    assert manifest["input_sha256"] == {str(matrix): hashlib.sha256(matrix.read_bytes()).hexdigest()}
    assert manifest["weights"] == {"kind": "explicit", "n_units": 3}  # the matrix itself is not embedded
    assert simulate_manifest("b") == before
    # One byte of the matrix CSV: same config text, different manifest.
    matrix.write_bytes(matrix.read_bytes().replace(b"0.25\r\n", b"0.35\r\n", 1))
    assert simulate_manifest("c") != before

    sim = tmp_path / "a"
    args = ["--outcomes", str(sim / "outcomes.csv"), "--treatments", str(sim / "treatments.csv")]
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "est"), *args]) == 0
    recorded = json.loads((tmp_path / "est" / "manifest.json").read_text())["input_sha256"]
    assert recorded == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (sim / "outcomes.csv", sim / "treatments.csv", matrix)
    }


def test_two_calls_in_one_process_write_what_fresh_processes_write(tmp_path):
    # The parser is built once per process: no flag of the first call may
    # reach the second.
    import os
    import subprocess
    import sys

    cfg = _write_config(tmp_path, LINEAR_CONFIG)

    def argvs(root):
        return [
            ["sweep", "--config", str(cfg), "--out", str(root / "sweep"), "--seed", "3", "--reps", "1",
             "--param", "trend", "--grid", "0,1"],
            ["benchmark", "--config", str(cfg), "--out", str(root / "benchmark")],
        ]

    for argv in argvs(tmp_path / "one"):
        assert main(argv) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in argvs(tmp_path / "fresh"):
        subprocess.run([sys.executable, "-m", "spillsim.cli", *argv], env=env, check=True, capture_output=True)

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    one = tree(tmp_path / "one")
    assert sorted(one) == ["benchmark/manifest.json", "benchmark/report.csv", "benchmark/report.json",
                           "sweep/manifest.json", "sweep/sweep.csv"]
    assert one == tree(tmp_path / "fresh")
