import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from halftest import cli
from halftest.cli import main
from halftest.distributions import NoiseModel, load_dataset
from halftest.learner import LearnerConfig
from halftest.testers import TesterConfig


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def gauss_csv(tmp_path):
    cfg = write_config(tmp_path, "sample.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 3},
        "noise": {"kind": "clean", "target": "e1"},
        "n": 3000, "seed": 5})
    out = str(tmp_path / "data.csv")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    return out


def test_sample_csv_format_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 2},
        "noise": {"kind": "clean", "target": "e1"},
        "n": 100, "seed": 7})
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sample", "--config", cfg, "--out", out1]) == 0
    assert main(["sample", "--config", cfg, "--out", out2]) == 0
    raw1 = open(out1, "rb").read()
    assert raw1 == open(out2, "rb").read()
    lines = raw1.decode().splitlines()
    assert lines[0] == "x1,x2,y"
    assert len(lines) == 101
    ds = load_dataset(out1)
    assert ds.n == 100 and ds.dim == 2


def test_sample_binary_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "uniform_cube", "dim": 2},
        "noise": {"kind": "clean", "target": "e1"},
        "n": 50, "seed": 9})
    out = str(tmp_path / "data.htds")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    assert open(out, "rb").read()[:4] == b"HTDS"
    assert load_dataset(out).n == 50


def test_sample_rejects_bad_n(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 2},
        "n": 0, "seed": 1})
    code = main(["sample", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n" in capsys.readouterr().err


def test_hypercontractivity_accepts_zeros(tmp_path):
    # all-zero dataset: SDP value 0, accept for any gamma
    zeros = str(tmp_path / "zeros.csv")
    rows = ["x1,x2,y"] + ["0.0,0.0,1"] * 20
    (tmp_path / "zeros.csv").write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, "t.json", {
        "tester": "hypercontractivity",
        "tester_config": {"gamma": 1.0, "c_hyper": 10.0}})
    assert main(["test", zeros, "--config", cfg]) == 0


def test_stationary_empty_strip_rejects(tmp_path):
    rows = ["x1,x2,y"] + [f"{v},0.5,1" for v in [2.0, -3.0, 4.0, -2.5] * 10]
    path = tmp_path / "far.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, "t.json", {
        "tester": "stationary", "w": [1.0, 0.0], "sigma": 0.1, "eta": 0.1,
        "tester_config": {"lambda": 3.0, "c1": 4.0}})
    assert main(["test", str(path), "--config", cfg]) == 1


def test_disagreement_precondition_exit_code(tmp_path, gauss_csv):
    cfg = write_config(tmp_path, "t.json", {
        "tester": "disagreement", "w": [1.0, 0.0, 0.0], "theta": 0.9})
    assert main(["test", gauss_csv, "--config", cfg]) == 2


@pytest.mark.parametrize("name, value", [
    ("gamma", 1e80), ("gamma", 1e-100), ("c1", 1000.0)])
def test_tester_constant_that_overflows_is_a_config_error(
        tmp_path, gauss_csv, capsys, name, value):
    cfg = write_config(tmp_path, "t.json", {
        "tester": "stationary", "w": [1.0, 0.0, 0.0], "sigma": 0.1,
        "tester_config": {"lambda": 3.0, name: value}})
    assert main(["test", gauss_csv, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_readme_calibration_example(tmp_path, capsys):
    # README "Calibration": the example's configs and the numbers it quotes,
    # at their printed precision
    sample = write_config(tmp_path, "sample.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 5},
        "n": 100000, "seed": 7})
    tester = write_config(tmp_path, "tester.json", {
        "tester": "stationary", "w": [1, 0, 0, 0, 0], "sigma": 0.0022,
        "eta": None, "tester_config": {"lambda": 3.0, "c1": 3.0}})
    data = str(tmp_path / "data.csv")
    assert main(["sample", "--config", sample, "--out", data]) == 0
    assert main(["test", data, "--config", tester]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is True
    diag = payload["diagnostics"]
    assert f"{diag['strip_lower_threshold']:.1e}" == "2.7e-05"
    assert f"{diag['strip_probability_sixth']:.1e}" == "1.8e-04"
    assert f"{diag['spectral_upper_threshold']:.3f}" == "0.178"
    assert f"{diag['half_strip_operator_norm']:.1e}" == "9.2e-04"
    assert diag["hyper_threshold"] == 9
    assert f"{diag['hyper_sdp_value']:.2f}" == "4.80"


def test_unknown_tester_exit_code(tmp_path, gauss_csv):
    cfg = write_config(tmp_path, "t.json", {"tester": "telepathy"})
    assert main(["test", gauss_csv, "--config", cfg]) == 2


def test_missing_dataset_io_error(tmp_path):
    cfg = write_config(tmp_path, "t.json", {
        "tester": "hypercontractivity", "tester_config": {}})
    assert main(["test", str(tmp_path / "nope.csv"), "--config", cfg]) == 3


def test_spectral_verdict_json(tmp_path, gauss_csv, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "tester": "spectral", "theta": 1.0, "mode": "min", "w": [1, 0, 0],
        "tester_config": {"lambda": 3.0}})
    code = main(["test", gauss_csv, "--config", cfg])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["accepted"] is True
    assert "min_eigenvalue" in payload["diagnostics"]
    assert payload["constants"]["strip_constant"] == 4.0 * 3.0**4
    assert "config_hash" in payload and "library_version" in payload


LEARN_CFG = {
    "marginal": {"kind": "two_point_mass", "dim": 5, "spread": 10.0},
    "noise": {"kind": "massart", "eta": 0.1, "target": "e1"},
    "learner": {
        "lambda": 1.0, "gamma": 1.0, "eps": 0.1, "noise": "massart",
        "eta": 0.1, "n1": 20000, "n2": 20000,
        "psgd": {"iterations": 50, "batch_size": None},
        "tester": {"lambda": 3.0, "c1": 3.0, "c_hyper": 10.0}},
    "trials": 1, "seed": 3}


def test_learn_reject_exit_and_outputs(tmp_path):
    cfg = write_config(tmp_path, "l.json", LEARN_CFG)
    out = str(tmp_path / "run")
    code = main(["learn", "--config", cfg, "--out", out])
    assert code == 1  # two-point marginal is rejected
    agg = open(os.path.join(out, "aggregate.csv")).read().splitlines()
    assert agg[0] == "trial,accepted,error,sigma,wall_time"
    assert agg[1].startswith("0,0,")
    payload = json.loads(open(os.path.join(out, "trial_000.json")).read())
    assert payload["outcome"]["status"] == "rejected"


def test_learn_json_deterministic(tmp_path):
    cfg = write_config(tmp_path, "l.json", LEARN_CFG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    main(["learn", "--config", cfg, "--out", out1])
    main(["learn", "--config", cfg, "--out", out2])
    a = open(os.path.join(out1, "trial_000.json"), "rb").read()
    b = open(os.path.join(out2, "trial_000.json"), "rb").read()
    assert a == b


# README's soundness config: criterion 13's two-point mass, agnostic flips
SOUNDNESS_CFG = {
    "marginal": {"kind": "two_point_mass", "dim": 5, "spread": 10.0},
    "noise": {"kind": "agnostic", "rule": "boundary_flip",
              "width": 0.06270677794321385, "target": "e1"},
    "learner": {"lambda": 1.0, "gamma": 1.0, "eps": 0.1, "noise": "agnostic",
                "psgd": {"iterations": 150, "batch_size": None},
                "tester": {"lambda": 3.0, "c1": 3.0, "c_hyper": 10.0}},
    "trials": 2, "seed": 1300}


def test_learn_soundness_reports_stop_at_the_rejecting_sigma(tmp_path):
    cfg = write_config(tmp_path, "l.json", SOUNDNESS_CFG)
    runs = []
    for out in (str(tmp_path / "r1"), str(tmp_path / "r2")):
        assert main(["learn", "--config", cfg, "--out", out]) == 0
        runs.append([open(os.path.join(out, f"trial_{i:03d}.json"), "rb").read()
                     for i in range(2)])
    assert runs[0] == runs[1]
    for raw in runs[0]:
        outcome = json.loads(raw)["outcome"]
        assert outcome["status"] == "rejected"
        per_sigma = outcome["trace"]["per_sigma"]
        assert len(per_sigma) == 1
        (info,) = per_sigma.values()
        assert info["stationary_accepted"] is False


def test_learn_seeds_validation(tmp_path):
    bad = dict(LEARN_CFG, trials=2, seeds=[1])
    cfg = write_config(tmp_path, "l.json", bad)
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_learn_zero_batch_size_is_a_config_error(tmp_path, capsys):
    learner = dict(LEARN_CFG["learner"], psgd={"iterations": 50, "batch_size": 0})
    cfg = write_config(tmp_path, "l.json", dict(LEARN_CFG, learner=learner))
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "batch_size" in err


@pytest.mark.parametrize("name, value", [
    ("gamma", 0), ("eps", math.inf), ("lambda", math.nan), ("gamma", 1e80),
    ("gamma", 1e-100), ("tester", {"lambda": 3.0, "c1": 1000.0})])
def test_learn_bad_config_number_is_a_config_error(tmp_path, capsys, name,
                                                   value):
    learner = dict(LEARN_CFG["learner"], **{name: value})
    cfg = write_config(tmp_path, "l.json", dict(LEARN_CFG, learner=learner))
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("name", ["n1", "n2", "repetitions", "iterations"])
def test_learn_count_that_is_not_an_integer_is_a_config_error(tmp_path, capsys,
                                                             name, value):
    # a count reaches the dataclass as written, never truncated by int()
    learner = dict(LEARN_CFG["learner"])
    if name == "iterations":
        learner["psgd"] = dict(learner["psgd"], iterations=value)
    else:
        learner[name] = value
    cfg = write_config(tmp_path, "l.json", dict(LEARN_CFG, learner=learner))
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_learn_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, "l.json", LEARN_CFG)
    argv = ["learn", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs]
    assert main(argv) == 2
    assert "--jobs" in capsys.readouterr().err


def test_learn_pool_is_no_larger_than_the_trial_count(tmp_path, monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    cfg = write_config(tmp_path, "l.json", dict(LEARN_CFG, trials=2))
    out = str(tmp_path / "o")
    assert main(["learn", "--config", cfg, "--out", out, "--jobs", "64"]) == 0
    assert sizes == [2]
    assert len(open(os.path.join(out, "aggregate.csv")).read().splitlines()) == 3


def test_learn_from_dataset_file(tmp_path):
    scfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "two_point_mass", "dim": 5, "spread": 10.0},
        "noise": {"kind": "massart", "eta": 0.1, "target": "e1"},
        "n": 45000, "seed": 4})
    data = str(tmp_path / "d.csv")
    assert main(["sample", "--config", scfg, "--out", data]) == 0
    lcfg = dict(LEARN_CFG)
    lcfg.pop("marginal")
    lcfg.pop("noise")
    lcfg["dataset"] = data
    cfg = write_config(tmp_path, "l.json", lcfg)
    out = str(tmp_path / "run")
    assert main(["learn", "--config", cfg, "--out", out]) == 1  # rejected
    payload = json.loads(open(os.path.join(out, "trial_000.json")).read())
    assert payload["outcome"]["status"] == "rejected"


def test_learn_insufficient_dataset(tmp_path):
    scfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 5},
        "noise": {"kind": "clean", "target": "e1"},
        "n": 100, "seed": 4})
    data = str(tmp_path / "d.csv")
    assert main(["sample", "--config", scfg, "--out", data]) == 0
    lcfg = dict(LEARN_CFG)
    lcfg.pop("marginal")
    lcfg.pop("noise")
    lcfg["dataset"] = data
    cfg = write_config(tmp_path, "l.json", lcfg)
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_learn_refuses_a_dataset_for_several_trials(tmp_path, capsys):
    # every trial would read the same first rows of the file
    scfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 5},
        "noise": {"kind": "clean", "target": "e1"},
        "n": 100, "seed": 4})
    data = str(tmp_path / "d.csv")
    assert main(["sample", "--config", scfg, "--out", data]) == 0
    lcfg = dict(LEARN_CFG, trials=2, dataset=data)
    lcfg.pop("marginal")
    lcfg.pop("noise")
    cfg = write_config(tmp_path, "l.json", lcfg)
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
    assert "one trial" in capsys.readouterr().err
    assert not out.exists()


SRC = Path(__file__).resolve().parent.parent / "src"
TINY_CSV = "x1,x2,y\n0.5,1.0,1\n-0.2,0.3,-1\n"
STRIP_CFG = {"tester": "strip", "w": [1.0, 0.0], "sigma": 0.1}


def _malformed(tmp_path, case):
    """argv for one malformed input: a null number or an empty/short file."""
    data = tmp_path / "d.csv"
    data.write_text(TINY_CSV)
    if case == "sample_n_null":
        cfg = write_config(tmp_path, "c.json", {
            "marginal": {"kind": "standard_gaussian", "dim": 2}, "n": None})
        return ["sample", "--config", cfg, "--out", str(tmp_path / "o.csv")]
    if case == "learn_trials_null":
        cfg = write_config(tmp_path, "c.json", dict(LEARN_CFG, trials=None))
        return ["learn", "--config", cfg, "--out", str(tmp_path / "o")]
    if case == "test_sigma_null":
        cfg = write_config(tmp_path, "c.json", dict(STRIP_CFG, sigma=None))
        return ["test", str(data), "--config", cfg]
    if case == "empty_csv":
        data.write_text("")
    else:  # short_htds: the magic and nothing else
        data = tmp_path / "d.htds"
        data.write_bytes(b"HTDS")
    return ["test", str(data), "--config",
            write_config(tmp_path, "c.json", STRIP_CFG)]


@pytest.mark.parametrize("case", ["sample_n_null", "learn_trials_null",
                                  "test_sigma_null", "empty_csv", "short_htds"])
def test_malformed_input_is_a_config_error(tmp_path, case):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "halftest.cli",
                           *_malformed(tmp_path, case)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:")


@pytest.mark.parametrize("sigma", [-0.1, math.nan])
def test_strip_bad_sigma_is_a_config_error(tmp_path, capsys, sigma):
    data = tmp_path / "d.csv"
    data.write_text(TINY_CSV)
    cfg = write_config(tmp_path, "c.json", dict(STRIP_CFG, sigma=sigma))
    assert main(["test", str(data), "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_output_path_checked_before_work(tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "universal_tester_learner", must_not_run)
    monkeypatch.setattr(cli, "sample_marginal", must_not_run)
    cfg = write_config(tmp_path, "l.json", LEARN_CFG)
    assert main(["learn", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 2}, "n": 10})
    assert main(["sample", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["sample", "test", "learn"])
def test_output_below_a_regular_file_is_an_io_error(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out")
    if command == "sample":
        cfg = write_config(tmp_path, "c.json", {
            "marginal": {"kind": "standard_gaussian", "dim": 2}, "n": 10})
        argv = ["sample", "--config", cfg, "--out", out + ".csv"]
    elif command == "test":
        data = tmp_path / "d.csv"
        data.write_text(TINY_CSV)
        argv = ["test", str(data), "--config",
                write_config(tmp_path, "c.json", STRIP_CFG), "--out", out]
    else:
        argv = ["learn", "--config", write_config(tmp_path, "c.json", LEARN_CFG),
                "--out", out]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error:")
    assert "Traceback" not in err


def test_oracle_fourth_moment(tmp_path):
    rows = ["x1,x2,y", "1.0,0.0,1", "1.0,0.0,1", "0.0,1.0,1"]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, "o.json", {"check": "fourth-moment"})
    out = str(tmp_path / "report.json")
    assert main(["oracle", str(path), "--config", cfg, "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert abs(payload["oracle_value"] - 2.0 / 3.0) < 1e-6
    assert payload["sos_value"] >= payload["oracle_value"] - 1e-5
    assert payload["pass"] is True


def test_oracle_gradient_and_erm(tmp_path, gauss_csv):
    cfg = write_config(tmp_path, "o.json", {"check": "gradient", "sigma": 0.3,
                                            "directions": 3, "seed": 1})
    assert main(["oracle", gauss_csv, "--config", cfg]) == 0
    cfg = write_config(tmp_path, "o2.json", {"check": "erm"})
    assert main(["oracle", gauss_csv, "--config", cfg]) == 0


def test_oracle_unknown_check(tmp_path, gauss_csv):
    cfg = write_config(tmp_path, "o.json", {"check": "clairvoyance"})
    assert main(["oracle", gauss_csv, "--config", cfg]) == 2


def test_oracle_strip_stats_gaussian(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 4},
        "noise": {"kind": "clean", "target": "e1"},
        "n": 100000, "seed": 12})
    data = str(tmp_path / "g.csv")
    assert main(["sample", "--config", cfg, "--out", data]) == 0
    ocfg = write_config(tmp_path, "o.json", {
        "check": "strip-stats", "sigma": 0.1, "offset": 0.3, "seed": 2})
    assert main(["oracle", data, "--config", ocfg]) == 0


def _gaussian_sample(tmp_path, n, seed, dim=3):
    cfg = write_config(tmp_path, "g.json", {
        "marginal": {"kind": "standard_gaussian", "dim": dim},
        "noise": {"kind": "clean", "target": "e1"}, "n": n, "seed": seed})
    data = str(tmp_path / "g.csv")
    assert main(["sample", "--config", cfg, "--out", data]) == 0
    return data


# one small config per command; each case below adds a key to one section
KEY_CHECK_CFGS = {
    "sample": {"marginal": {"kind": "standard_gaussian", "dim": 2},
               "noise": {"kind": "clean", "target": "e1"}, "n": 10, "seed": 1},
    "test": {"tester": "hypercontractivity", "tester_config": {"gamma": 1.0}},
    "learn": LEARN_CFG,
    "oracle": {"check": "fourth-moment"},
}


@pytest.mark.parametrize("command, section", [
    ("sample", ()), ("sample", ("marginal",)), ("sample", ("noise",)),
    ("test", ()), ("test", ("tester_config",)),
    ("learn", ()), ("learn", ("learner",)), ("learn", ("learner", "tester")),
    ("learn", ("learner", "psgd")), ("oracle", ()),
], ids=["sample", "marginal", "noise", "test", "tester_config", "learn",
        "learner", "learner.tester", "psgd", "oracle"])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, command,
                                              section):
    cfg = json.loads(json.dumps(KEY_CHECK_CFGS[command]))
    part = cfg
    for key in section:
        part = part[key]
    part["colour"] = "blue"
    path = write_config(tmp_path, "c.json", cfg)
    data = tmp_path / "d.csv"
    data.write_text(TINY_CSV)
    argv = {"sample": ["sample", "--config", path, "--out", str(tmp_path / "o.csv")],
            "test": ["test", str(data), "--config", path],
            "learn": ["learn", "--config", path, "--out", str(tmp_path / "o")],
            "oracle": ["oracle", str(data), "--config", path]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'colour'" in err
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "o").exists()


SPECTRAL_CFG = {"tester": "spectral", "w": [1.0, 0.0], "theta": 0.5}
STATIONARY_CFG = {"tester": "stationary", "w": [1.0, 0.0], "sigma": 0.1,
                  "eta": 0.1}
STUDENT_T_CFG = {"marginal": {"kind": "student_t", "dim": 2, "nu": 3},
                 "n": 10, "seed": 1}
STRUCTURAL_CFG = {"check": "structural", "target": [0, 1], "instances": 2}
LINE_MASS_CFG = {"marginal": {"kind": "line_mass", "dim": 2, "direction": [1, 1]},
                 "n": 10, "seed": 1}
MASSART_CFG = dict(KEY_CHECK_CFGS["sample"],
                   noise={"kind": "massart", "eta": 0.1, "target": "e1"})
# (command, config, section path, key, value): one key family per group
WRONG_NUMBERS = [
    ("test", KEY_CHECK_CFGS["test"], ("tester_config",), "lambda", True),
    ("test", KEY_CHECK_CFGS["test"], ("tester_config",), "c_hyper", "10"),
    ("sample", KEY_CHECK_CFGS["sample"], ("marginal",), "dim", 2.5),
    ("sample", KEY_CHECK_CFGS["sample"], ("marginal",), "dim", True),
    ("sample", STUDENT_T_CFG, ("marginal",), "nu", 2.5),
    ("sample", MASSART_CFG, ("noise",), "eta", True),
    ("sample", KEY_CHECK_CFGS["sample"], ("noise",), "width", True),
    ("learn", LEARN_CFG, ("learner",), "eps", True),
    ("learn", LEARN_CFG, ("learner",), "lambda", True),
    ("learn", LEARN_CFG, ("learner", "psgd"), "step_size", True),
    ("sample", KEY_CHECK_CFGS["sample"], (), "n", 2.5),
    ("sample", KEY_CHECK_CFGS["sample"], (), "n", True),
    ("sample", KEY_CHECK_CFGS["sample"], (), "seed", 1.5),
    ("learn", LEARN_CFG, (), "trials", 2.9),
    ("learn", LEARN_CFG, (), "trials", True),
    ("learn", dict(LEARN_CFG, trials=2), (), "seeds", [1.5, True]),
    ("learn", LEARN_CFG, (), "seeds", [True]),
    ("learn", LEARN_CFG, (), "seed", True),
    ("test", SPECTRAL_CFG, (), "theta", True),
    ("test", STATIONARY_CFG, (), "sigma", "0.1"),
    ("test", STATIONARY_CFG, (), "eta", True),
    ("oracle", KEY_CHECK_CFGS["oracle"], (), "seed", True),
    ("oracle", {"check": "gradient"}, (), "sigma", True),
    ("oracle", {"check": "gradient"}, (), "directions", 2.5),
    ("oracle", {"check": "structural"}, (), "instances", True),
    ("oracle", {"check": "strip-stats"}, (), "offset", True),
    # vectors: every entry must be a number
    ("sample", KEY_CHECK_CFGS["sample"], ("noise",), "target", [True, 0]),
    ("oracle", STRUCTURAL_CFG, (), "target", [1, "0"]),
    ("test", STRIP_CFG, (), "w", [True, 0]),
    ("sample", LINE_MASS_CFG, ("marginal",), "direction", [True, False]),
]


@pytest.mark.parametrize("command, base, section, key, value", WRONG_NUMBERS,
                         ids=[f"{command}.{'.'.join(path + (key,))}={value!r}"
                              for command, _, path, key, value in WRONG_NUMBERS])
def test_config_number_of_the_wrong_type_is_a_config_error(
        tmp_path, capsys, command, base, section, key, value):
    # a bool, a string or a fractional count is refused, never coerced
    cfg = json.loads(json.dumps(base))
    part = cfg
    for name in section:
        part = part[name]
    part[key] = value
    path = write_config(tmp_path, "c.json", cfg)
    data = tmp_path / "d.csv"
    data.write_text(TINY_CSV)
    argv = {"sample": ["sample", "--config", path, "--out", str(tmp_path / "o.csv")],
            "test": ["test", str(data), "--config", path],
            "learn": ["learn", "--config", path, "--out", str(tmp_path / "o")],
            "oracle": ["oracle", str(data), "--config", path]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "o").exists()


def test_misspelt_tester_key_cannot_flip_a_verdict(tmp_path, capsys):
    # the misspelt key used to leave c_hyper at its default and accept
    data = _gaussian_sample(tmp_path, 2000, seed=1)
    good = write_config(tmp_path, "t.json", {
        "tester": "hypercontractivity",
        "tester_config": {"gamma": 1.0, "c_hyper": 1.5}})
    assert main(["test", data, "--config", good]) == 1
    bad = write_config(tmp_path, "t2.json", {
        "tester": "hypercontractivity",
        "tester_config": {"gamma": 1.0, "c_hyperr": 1.5}})
    capsys.readouterr()
    assert main(["test", data, "--config", bad]) == 2
    assert "'c_hyperr'" in capsys.readouterr().err


def test_learn_psgd_seed_is_not_a_key(tmp_path, capsys):
    # the learner seeds each sigma's PSGD run itself, so a seed here is unread
    learner = dict(LEARN_CFG["learner"],
                   psgd={"iterations": 50, "batch_size": 64, "seed": 12345})
    cfg = write_config(tmp_path, "l.json", dict(LEARN_CFG, learner=learner))
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("noise", [
    {"kind": "agnostic", "rule": "random_flip", "flip_prob": 2.0},
    {"kind": "agnostic", "rule": "random_flip", "flip_prob": math.nan},
    {"kind": "agnostic", "rule": "boundary_flip", "width": -1.0},
], ids=["flip_prob_2", "flip_prob_nan", "width_negative"])
def test_sample_impossible_noise_is_a_config_error(tmp_path, capsys, noise):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 2},
        "noise": dict(noise, target="e1"), "n": 5, "seed": 1})
    out = tmp_path / "o.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_oracle_structural_check(tmp_path, gauss_csv, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "check": "structural", "sigma": 0.1, "instances": 3,
        "target": [1, 0, 0], "seed": 2})
    assert main(["oracle", gauss_csv, "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["check"] == "structural" and report["pass"] is True
    assert 1 <= report["instances"] <= 3 and report["violations"] == 0


def test_oracle_w_star_is_an_unknown_key(tmp_path, gauss_csv, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "check": "structural", "w_star": [0, 1, 0]})
    assert main(["oracle", gauss_csv, "--config", cfg]) == 2
    assert "'w_star'" in capsys.readouterr().err


def test_oracle_structural_check_reads_its_target(tmp_path, gauss_csv, capsys):
    # the report that "w_star": [0, 1, 0] gave before "target" became the
    # only key for it; the default e1 gives 11 instances here
    cfg = write_config(tmp_path, "o.json", {
        "check": "structural", "sigma": 0.1, "instances": 20,
        "target": [0, 1, 0], "seed": 0})
    assert main(["oracle", gauss_csv, "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["instances"], report["violations"], report["pass"]) == \
        (6, 0, True)


def test_anticoncentration_tester(tmp_path, gauss_csv, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "tester": "anticoncentration", "w": [1, 0, 0], "sigma": 0.1})
    assert main(["test", gauss_csv, "--config", cfg]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag["hyper_stop_reason"] == "certified"
    assert diag["hyper_slack"] >= 0
    assert "conditional_probability_bound" in diag


def _trial_seeds_of(out, trials):
    return [json.loads(open(os.path.join(out, f"trial_{i:03d}.json")).read())
            ["outcome"]["seed"] for i in range(trials)]


def test_learn_with_a_seeds_list(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json",
                       dict(LEARN_CFG, trials=2, seeds=[11, 4]))
    out = str(tmp_path / "o")
    assert main(["learn", "--config", cfg, "--out", out]) == 0
    assert json.loads(capsys.readouterr().out) == {"trials": 2,
                                                   "accept_rate": 0.0}
    assert _trial_seeds_of(out, 2) == [11, 4]


def test_learn_seed_option_overrides_the_config(tmp_path):
    cfg = write_config(tmp_path, "l.json", dict(LEARN_CFG, trials=2))
    out = str(tmp_path / "o")
    assert main(["learn", "--config", cfg, "--out", out, "--seed", "20"]) == 0
    assert _trial_seeds_of(out, 2) == [20, 21]


def test_learn_seed_option_next_to_a_seeds_list_is_a_config_error(tmp_path,
                                                                   capsys):
    # the seeds list would silently win over the option
    cfg = write_config(tmp_path, "l.json",
                       dict(LEARN_CFG, trials=2, seeds=[11, 4]))
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out), "--seed", "20"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_config_sections_default_to_the_dataclasses():
    assert cli.tester_from_config({}) == TesterConfig()
    assert cli.noise_from_config({"kind": "clean"}, 3) == \
        NoiseModel("clean", (1.0, 0.0, 0.0))
    assert cli.learner_from_config({"eps": 0.1, "eta": 0.1}) == \
        LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, eta=0.1)


def test_sample_with_an_explicit_target(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 2},
        "noise": {"kind": "clean", "target": [0.0, -2.0]}, "n": 50, "seed": 3})
    out = str(tmp_path / "o.csv")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    ds = load_dataset(out)
    assert list(ds.labels) == [1 if -x2 >= 0 else -1 for x2 in ds.points[:, 1]]


def test_sample_massart_near_boundary(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "marginal": {"kind": "standard_gaussian", "dim": 2},
        "noise": {"kind": "massart", "eta": 0.4, "profile": "near_boundary",
                  "width": 0.5, "target": "e1"}, "n": 400, "seed": 3})
    out = str(tmp_path / "o.csv")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    ds = load_dataset(out)
    clean = [1 if x1 >= 0 else -1 for x1 in ds.points[:, 0]]
    flipped = ds.labels != clean
    near = abs(ds.points[:, 0]) <= 0.5
    assert flipped.any() and not flipped[~near].any()


def test_readme_configs_pass_the_config_readers():
    # every JSON example in README is read as its command would read it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```json\n(.*?)```", readme, re.S):
        cfg = json.loads(block)
        command = next(c for c, key in (("test", "tester"), ("learn", "learner"),
                                        ("oracle", "check"), ("sample", "marginal"))
                       if key in cfg)
        cli.read_config(command, cfg)
        commands.append(command)
    assert sorted(set(commands)) == ["learn", "oracle", "sample", "test"]
