import json
import os
import re
import subprocess
import sys
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


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports spillsim from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, errors="surrogateescape")
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


def test_package_version_matches_pyproject():
    # Manifests record spillsim.__version__; a bump must reach both places.
    # A regex, not tomllib, which Python 3.10 lacks.
    import spillsim

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert spillsim.__version__ == re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)


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
    assert lines[0] == "estimator,rep,estimate,gt,bias"


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


def test_benchmark_overflow_names_the_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path, LINEAR_CONFIG.replace("y_coef = 0.8", "y_coef = 1e200"))
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == (
        "FloatingPointError: seed 7: non-finite outcome for unit 0 at round 2 in scenario observed"
    )


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
        ("0,1e308", "FloatingPointError: trend=1e+308, seed 5: non-finite outcome for unit 0 at round 2 "
                    "in scenario observed"),
        (",", "ConfigError: --grid ',' lists no value"),
        ("", "ConfigError: --grid '' lists no value"),
    ],
    ids=["bad_entry", "non_finite_entry", "overflow", "only_commas", "empty"],
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


_DYNAMICS_KINDS = "unit = linear, peer = linear, exposure = weighted_sum"
# The weights section of LINEAR_CONFIG, and an influencer one up to its ids.
_CLUSTERED_WEIGHTS = "kind = clustered\nn_clusters = 1\nw_in = 1.0\nw_out = 0.0"
_INFLUENCER_WEIGHTS = "kind = influencer\nw_inf = 1.0\nw_base = 0.2\ninfluencers = "


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("peer_w = 0.6", "peer_w = 0.6\npeer_w = 0.6", "duplicate key dynamics.peer_w (first set on line {first})"),
        ("peer_w = 0.6", "peer_w = 0.6\ncolour = red", f"dynamics.colour is not read with {_DYNAMICS_KINDS}"),
        ("noise_sd = 0.0", "noise_sd = 0.0\ntau = 0.3", f"dynamics.tau is not read with {_DYNAMICS_KINDS}"),
        # Named before n_units is checked, not through the default it leaves.
        ("n_units = 120", "n_unit = 120", "population.n_unit is not read"),
        ("peer_w = 0.6", "peer_w = abc", "dynamics.peer_w must be a finite number, got 'abc'"),
        ("noise_sd = 0.0", "noise_sd = -1", "dynamics.noise_sd: noise_sd must be non-negative"),
        # Checked by ScenarioConfig and WeightConfig.check, which pass the key back.
        ("reps = 2", "reps = 0", "run.reps: replication count must be at least 1, got 0"),
        ("use = dm, ht, ese_basic", "use = dm, bogus", "estimators.use: unknown estimator 'bogus'"),
        ("use = dm, ht, ese_basic", "use = dm, ht, dm", "estimators.use: lists dm twice"),
        ("n_clusters = 1", "n_clusters = 0", "weights.n_clusters: need at least one cluster"),
        # Checked against the population, and still named by the line that set them.
        ("n_clusters = 1", "n_clusters = 200", "weights.n_clusters: cannot split 120 units into 200 clusters"),
        ("use = dm, ht, ese_basic", "use = dm, ese_influencer",
         "estimators.use: ese_influencer requires influencer weights"),
        (_CLUSTERED_WEIGHTS, _INFLUENCER_WEIGHTS + "0, 120",
         "weights.influencers: influencer ids must lie in 0..119"),
        (_CLUSTERED_WEIGHTS, _INFLUENCER_WEIGHTS + ", ".join(map(str, range(120))),
         "weights.influencers: influencers must be a strict subset of the population"),
        ("baseline_sd = 1.0", "baseline_sd = -1", "population.baseline_sd: must be finite and non-negative, got -1.0"),
        ("n_rounds = 4", "n_rounds = 0", "population.n_rounds must be a positive integer, got 0"),
        ("seed = 5", "seed = -1", "run.seed must be non-negative"),
        ("unit = linear", "unit = cubic", "dynamics.unit must be linear, got 'cubic'"),
        # Options the config format does not have, each refused by key and line.
        ("unit = linear", "unit = saturating", "dynamics.unit must be linear, got 'saturating'"),
        ("unit = linear", "unit = linear\nscale = 2.0", f"dynamics.scale is not read with {_DYNAMICS_KINDS}"),
        (_CLUSTERED_WEIGHTS, "kind = explicit",
         "weights.kind must be one of dense_gaussian, clustered, influencer; got 'explicit'"),
        (_CLUSTERED_WEIGHTS, _CLUSTERED_WEIGHTS + "\nmatrix_path = w.csv",
         "weights.matrix_path is not read with kind = clustered"),
        ("use = dm, ht, ese_basic", "use = dm, ht, ese_basic\nfeatures_ese_basic = own_times_lag",
         "estimators.features_ese_basic is not read"),
        # `trend` is the one spelling of a term in the round index t.
        ("intercept = 0.2", "intercept = 0.2\nx_coef = 1.0",
         f"dynamics.x_coef is not read with {_DYNAMICS_KINDS}"),
        ("peer = linear", "peer = quadratic", "dynamics.peer must be linear or zero, got 'quadratic'"),
        ("exposure = weighted_sum", "exposure = contagion",
         "dynamics.exposure must be weighted_sum or threshold, got 'contagion'"),
        ("kind = bernoulli", "kind = cluster", "design.kind must be bernoulli, got 'cluster'"),
        ("kind = bernoulli", "kind = constant", "design.kind must be bernoulli, got 'constant'"),
        ("probs = 0.0, 0.2, 0.4, 0.8", "probs = 0.0, 0.2, 0.4, 0.8\nvalue = 1",
         "design.value is not read with kind = bernoulli"),
        ("probs = 0.0, 0.2, 0.4, 0.8", "probs = 0.0, 0.2, high, 0.8",
         "design.probs must list finite numbers, got [0.0, 0.2, 'high', 0.8]"),
        # The byte 0xff, written through surrogateescape.
        ("seed = 5", "seed = 5\udcff", "byte 0xff at column 9 is not valid utf-8"),
    ],
    ids=[
        "duplicate", "unknown", "not_read_by_kind", "unknown_in_unkinded_section", "wrong_type", "keyed",
        "scenario_check", "estimator_check", "repeated_estimator", "weight_check", "cluster_count",
        "estimator_weight_kind", "influencer_range", "influencer_subset", "baseline_check", "no_rounds",
        "negative_seed", "unit_kind", "saturating_unit", "saturating_scale", "explicit_kind", "explicit_matrix_path",
        "own_times_lag", "x_coef", "peer_kind", "exposure_kind", "design_kind", "constant_design", "design_value",
        "word_in_numbers", "undecodable_byte",
    ],
)
def test_config_errors_name_the_file_and_the_line(tmp_path, capsys, old, new, message):
    # ``new`` replaces the lines ``old``; the error names the last line of ``new``.
    first = LINEAR_CONFIG.splitlines().index(old.split("\n")[0]) + 1
    cfg = _write_config(tmp_path, LINEAR_CONFIG.replace(f"{old}\n", f"{new}\n", 1))
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error == f"ConfigError: {cfg}: line {first + new.count(chr(10))}: " + message.format(first=first)


@pytest.mark.parametrize(
    "flag, value, message",
    [("--seed", "-1", "--seed must be non-negative"), ("--reps", "0", "--reps must be at least 1")],
)
def test_seed_and_reps_flags_are_checked(tmp_path, capsys, flag, value, message):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "x"), flag, value]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == f"ConfigError: {message}"


def test_estimate_names_a_panel_file_with_the_wrong_header(tmp_path, capsys):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    outcomes = tmp_path / "sim" / "outcomes.csv"
    outcomes.write_text(outcomes.read_text().replace("unit,round,value", "id,t,y", 1))
    argv = ["estimate", "--config", str(cfg), "--out", str(tmp_path / "est"), "--outcomes", str(outcomes),
            "--treatments", str(tmp_path / "sim" / "treatments.csv")]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error == f"ValueError: {outcomes}: expected header unit,round,value"


def test_a_fit_that_cannot_run_names_the_estimator_and_where(tmp_path, capsys):
    # ese_basic's three scenario-level features need three rounds.
    text = LINEAR_CONFIG.replace("n_rounds = 4", "n_rounds = 2").replace("0.0, 0.2, 0.4, 0.8", "0.2, 0.4")
    cfg = _write_config(tmp_path, text)
    reason = "3 scenario-level features need at least that many rounds, panel has 2"
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "bench")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == f"ValueError: ese_basic at seed 5: {reason}"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    outcomes = tmp_path / "sim" / "outcomes.csv"
    argv = ["estimate", "--config", str(cfg), "--out", str(tmp_path / "est"), "--outcomes", str(outcomes),
            "--treatments", str(tmp_path / "sim" / "treatments.csv")]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == f"ValueError: ese_basic at {outcomes}: {reason}"


def test_demo_takes_no_config(tmp_path, capsys):
    # The demo runs its built-in scenario, so a --config would go unread.
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--config", str(tmp_path / "x.cfg"), "--out", str(tmp_path / "d")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]


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

    def captured(*args, **kwargs):
        out = suite(*args, **kwargs)
        observed.append(out[0].values)
        return out

    monkeypatch.setattr(harness, "counterfactual_suite", captured)
    cfg = CONFIGS / f"{name}.cfg"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    config = parse_config(cfg.read_text())
    harness.run_once(config, config.base_seed)
    simulated = read_outcome_csv(tmp_path / "outcomes.csv").values
    assert np.array_equal(simulated.view(np.uint64), observed[0].view(np.uint64))


DENSE_CONFIG = """
[population]
n_units = 20
n_rounds = 4

[weights]
kind = dense_gaussian
mu = 1.0
sigma2 = 1.0

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

    cfg = _write_config(tmp_path, DENSE_CONFIG)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    # simulate reads no file but its config, whose hash the manifest has.
    assert "input_sha256" not in json.loads((sim / "manifest.json").read_text())
    inputs = (sim / "outcomes.csv", sim / "treatments.csv")

    def estimate_manifest(out):
        args = ["--outcomes", str(inputs[0]), "--treatments", str(inputs[1])]
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / out), *args]) == 0
        return (tmp_path / out / "manifest.json").read_text()

    before = estimate_manifest("a")
    recorded = json.loads(before)["input_sha256"]
    assert recorded == {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs}
    assert estimate_manifest("b") == before
    # One byte of the outcome CSV (a line end the reader accepts either
    # way): same config text and panels, different manifest.
    inputs[0].write_bytes(inputs[0].read_bytes().replace(b"\r\n", b"\n", 1))
    assert estimate_manifest("c") != before


def test_estimate_does_not_build_weights_that_expose_no_structure(tmp_path, monkeypatch):
    # Dense Gaussian weights expose no structure metadata, so estimate has no
    # use for a weight set and never builds one.
    from spillsim.weights import WeightConfig

    cfg = _write_config(tmp_path, DENSE_CONFIG)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0

    def estimate(out):
        args = ["--outcomes", str(sim / "outcomes.csv"), "--treatments", str(sim / "treatments.csv")]
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / out), *args]) == 0
        names = ("coefficients.json", "estimates.csv", "manifest.json")
        return {name: (tmp_path / out / name).read_bytes() for name in names}

    free = estimate("free")

    def refuse(self, *args):
        raise AssertionError(f"estimate built {self.kind} weights")

    monkeypatch.setattr(WeightConfig, "build", refuse)
    assert estimate("refused") == free


def test_two_calls_in_one_process_write_what_fresh_processes_write(tmp_path):
    # The parser is built once per process: no flag of the first call may
    # reach the second.
    cfg = _write_config(tmp_path, LINEAR_CONFIG)

    def argvs(root):
        return [
            ["sweep", "--config", str(cfg), "--out", str(root / "sweep"), "--seed", "3", "--reps", "1",
             "--param", "trend", "--grid", "0,1"],
            ["benchmark", "--config", str(cfg), "--out", str(root / "benchmark")],
        ]

    for argv in argvs(tmp_path / "one"):
        assert main(argv) == 0
    for argv in argvs(tmp_path / "fresh"):
        subprocess.run([sys.executable, "-m", "spillsim.cli", *argv], env=_child_env(), check=True, capture_output=True)

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    one = tree(tmp_path / "one")
    assert sorted(one) == ["benchmark/manifest.json", "benchmark/report.csv", "benchmark/report.json",
                           "sweep/manifest.json", "sweep/sweep.csv"]
    assert one == tree(tmp_path / "fresh")


def test_dense_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # The lazy Gaussian engine projects with BLAS matrix-vector products, so
    # their bits set the output; a split of the work across threads must not
    # change them. One fresh process per thread count, as perfbench sets it.
    cfg = Path(__file__).resolve().parents[1] / "configs" / "spillover.cfg"
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**_child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        argv = ["benchmark", "--config", str(cfg), "--reps", "2", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "spillsim.cli", *argv], env=env, check=True, capture_output=True)
        written.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
    assert written[0] == written[1]


def _glibc() -> bool:
    # Checked apart from the helper, so a helper that misreads the C library
    # fails the fault test instead of skipping it.
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _clustered_at_1e5(tmp_path) -> Path:
    text = (CONFIGS / "clustered.cfg").read_text()
    return _write_config(tmp_path, re.sub(r"(?m)^n_units\s*=.*$", "n_units = 100000", text))


FAULTS_OF_THE_THIRD_CALL = """
import resource, sys
from spillsim.cli import main, pin_malloc_thresholds

config, out = sys.argv[1:]
argv = ["benchmark", "--config", config, "--out", out, "--reps", "1"]
for _ in range(2):
    assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
assert pin_malloc_thresholds()  # main's cached result: both thresholds were set
"""


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are pinned only where the C library is glibc")
def test_a_warm_benchmark_call_faults_no_pages_back_in(tmp_path):
    # With glibc's default dynamic thresholds each call hands its panel-sized
    # blocks back to the kernel and faults them in again (about 4250 minor
    # faults per call at this size); pinned, a warm call reuses the heap. A
    # fresh process, as the pin is once per process.
    cfg = _clustered_at_1e5(tmp_path)
    run = subprocess.run([sys.executable, "-c", FAULTS_OF_THE_THIRD_CALL, str(cfg), str(tmp_path / "out")],
                         env=_child_env(), check=True, capture_output=True, text=True)
    assert int(run.stdout.splitlines()[-1]) < 200


FAULTS_OF_ONE_CALL = """
import resource, sys
from spillsim.cli import main

assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are pinned only where the C library is glibc")
def test_the_replications_of_one_cli_call_fault_no_pages_back_in(tmp_path):
    # A shell `spillsim benchmark` runs main once per process, so the pin must
    # pay off between the replications of one call, not only between calls.
    # Unpinned, each replication past the first faults about 4500 pages back
    # in at this size; four more replications then cost about 18000 faults.
    cfg = _clustered_at_1e5(tmp_path)

    def faults(reps: int) -> int:
        argv = ["benchmark", "--config", str(cfg), "--out", str(tmp_path / f"out{reps}"), "--reps", str(reps)]
        run = subprocess.run([sys.executable, "-c", FAULTS_OF_ONE_CALL, *argv],
                             env=_child_env(), check=True, capture_output=True, text=True)
        return int(run.stdout.splitlines()[-1])

    assert faults(6) - faults(2) < 4 * 200
