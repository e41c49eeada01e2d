"""Command line behavior: grammar, exit codes, run artifacts, replay."""

import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import oplab
from oplab import calibrate_c
from oplab.cli import (_COMMANDS, _build_parser, _domain, _merge_negative_payloads, _parse_grid,
                       _UsageError, main)

from _datasets import overflowing_data


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# payload parsing

def test_parse_grid_inclusive_endpoint():
    assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_grid("-8:8:4") == [-8.0, -4.0, 0.0, 4.0, 8.0]
    assert _parse_grid("0:1:0.1")[-1] == 1.0
    g = _parse_grid("0:100:5")
    assert len(g) == 21 and g[-1] == 100.0
    assert _parse_grid("2:2:1") == [2.0]


def test_parse_grid_rejects_malformed_input():
    for bad in ("0:1", "a:b:c", "0:1:0", "0:1:-1", "3:1:1", "1:2:3:4"):
        with pytest.raises(_UsageError):
            _parse_grid(bad)


def test_merge_negative_payloads():
    assert _merge_negative_payloads(["--grid", "-8:8:0.5"]) == ["--grid=-8:8:0.5"]
    assert _merge_negative_payloads(["--shift", "-3"]) == ["--shift=-3"]
    assert _merge_negative_payloads(["--point", "-.5,2"]) == ["--point=-.5,2"]
    # plain option-like tokens are left alone
    assert _merge_negative_payloads(["--out", "-x"]) == ["--out", "-x"]
    assert _merge_negative_payloads(["--seed", "7"]) == ["--seed", "7"]


# ---------------------------------------------------------------------------
# exit codes

def _write_table(path, rows):
    path.write_text("x1,x2,x3\n" + "".join(",".join(r) + "\n" for r in rows))
    return str(path)


def test_exit_codes(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["simulate"]) == 1  # --out is required
    assert main(["simulate", "--model", "gaussian", "--out",
                 str(tmp_path / "x.csv")]) == 1
    assert main(["fig2", "--threads", "0", "--out", str(tmp_path)]) == 1
    assert main(["influence", "--c", "-1", "--out", str(tmp_path)]) == 1
    assert main(["estimate", "--estimator", "mean",
                 "--in", str(tmp_path / "missing.csv")]) == 1
    # a contamination spec the flags cannot build is bad input: nothing is
    # written, not even the sidecar config
    assert main(["simulate", "--model", "pcicm-i", "--eps", "0.2",
                 "--out", str(tmp_path / "y.csv")]) == 1
    assert not (tmp_path / "y.csv").exists()
    assert not (tmp_path / "y.config.json").exists()
    capsys.readouterr()

    # bad input is rejected at the boundary, whichever estimator reads it
    rows = [[repr(v) for v in row] for row in np.random.default_rng(0).normal(size=(40, 3))]
    nan_rows = [list(r) for r in rows]
    nan_rows[5][1] = "nan"
    inf_rows = [list(r) for r in rows]
    inf_rows[9][2] = "inf"
    text_rows = [list(r) for r in rows]
    text_rows[3][0] = "n/a"
    bad = {"nan": _write_table(tmp_path / "nan.csv", nan_rows),
           "inf": _write_table(tmp_path / "inf.csv", inf_rows),
           "text": _write_table(tmp_path / "text.csv", text_rows),
           "ragged": _write_table(tmp_path / "ragged.csv", rows[:5] + [rows[5][:2]]),
           "header": _write_table(tmp_path / "header.csv", [])}
    for name, path in bad.items():
        for est in ("mean", "mcd", "coord_s"):
            assert main(["estimate", "--estimator", est, "--in", path]) == 1, (name, est)
            captured = capsys.readouterr()
            assert captured.out == "" and "oplab: error:" in captured.err, (name, est)


def test_numeric_failure_is_exit_2(tmp_path, capsys):
    out = tmp_path / "tiny.csv"
    assert main(["simulate", "--d", "2", "--n", "2", "--eps", "0.0",
                 "--out", str(out)]) == 0
    # two rows cannot support a multivariate S fit
    assert main(["estimate", "--estimator", "s", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# simulate

def test_simulate_dataset_shape(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["simulate", "--model", "ficm", "--eps", "0.05", "--d", "15",
                 "--n", "100", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == [f"x{j}" for j in range(1, 16)] + [f"b{j}" for j in range(1, 16)]
    assert len(rows) == 100
    b = np.array([[int(v) for v in r[15:]] for r in rows])
    assert set(np.unique(b)) <= {0, 1}
    assert 0.0 < b.mean() < 0.15
    cfg = json.loads((tmp_path / "data.config.json").read_text())
    assert cfg["command"] == "simulate"
    assert cfg["seed"] == 7  # the simulate default
    assert "wrote 100 rows" in capsys.readouterr().out


def test_simulate_point_mass_needs_matching_length(tmp_path):
    assert main(["simulate", "--d", "3", "--point", "1,2", "--out",
                 str(tmp_path / "x.csv")]) == 1
    assert main(["simulate", "--d", "2", "--point", "9,9", "--eps", "0.3",
                 "--out", str(tmp_path / "y.csv")]) == 0
    _, rows = _read_csv(tmp_path / "y.csv")
    flagged = [float(r[0]) for r in rows if r[2] == "1"]
    assert flagged and all(v == 9.0 for v in flagged)


# ---------------------------------------------------------------------------
# seeds

def test_seed_resolution(tmp_path, monkeypatch):
    def run(name, **env):
        for k, v in env.items():
            monkeypatch.setenv(k, v)
        out = tmp_path / f"{name}.csv"
        args = ["simulate", "--n", "5", "--out", str(out)]
        if name == "explicit":
            args += ["--seed", "5"]
        assert main(args) == 0
        return json.loads((tmp_path / f"{name}.config.json").read_text())["seed"]

    monkeypatch.delenv("OPL_SEED", raising=False)
    assert run("default") == 7
    assert run("env", OPL_SEED="42") == 42
    assert run("explicit", OPL_SEED="42") == 5


def test_table1_takes_no_seed(tmp_path, monkeypatch, capsys):
    # table1 draws nothing: a seed flag is rejected, and OPL_SEED is not read
    assert main(["table1", "--seed", "5", "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.startswith("oplab: error:")
    assert not (tmp_path / "a").exists()
    monkeypatch.setenv("OPL_SEED", "lots")
    assert main(["table1", "--out", str(tmp_path / "b")]) == 0
    assert "seed" not in json.loads((tmp_path / "b" / "table1" / "config.json").read_text())
    capsys.readouterr()


def test_bad_env_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    assert main(["simulate", "--n", "5", "--seed", "3", "--out", str(tmp_path / "x.csv")]) == 0
    monkeypatch.setenv("OPL_SEED", "lots")
    assert main(["simulate", "--n", "5", "--out", str(tmp_path / "y.csv")]) == 1
    assert "OPL_SEED" in capsys.readouterr().err
    # a replay takes its seed from the config and never reads OPL_SEED
    assert main(["simulate", "--config", str(tmp_path / "x.config.json"),
                 "--out", str(tmp_path / "z.csv")]) == 0
    assert (tmp_path / "z.csv").read_bytes() == (tmp_path / "x.csv").read_bytes()


# ---------------------------------------------------------------------------
# estimate

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    assert main(["simulate", "--model", "ficm", "--eps", "0.1", "--d", "2",
                 "--n", "60", "--shift", "8", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("name,extra", [
    ("mean", []),
    ("coord_median", []),
    ("coord_s", []),
    ("m", []),
    ("s", ["--starts", "10"]),
    ("mcd", ["--starts", "100"]),
    ("mve", ["--starts", "100"]),
])
def test_estimate_runs_every_estimator(dataset, name, extra, capsys):
    assert main(["estimate", "--estimator", name, "--in", str(dataset)] + extra) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["estimator"] == name
    assert len(result["mu"]) == 2
    # +8 cell shifts at eps=0.1 can drag the mean, never the robust fits
    bound = 3.0 if name == "mean" else 1.0
    assert all(abs(v) < bound for v in result["mu"])


def test_estimate_writes_result_and_config(dataset, tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["estimate", "--estimator", "mcd", "--in", str(dataset),
                 "--out", str(out)]) == 0
    stdout_result = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == stdout_result
    cfg = json.loads((tmp_path / "fit.config.json").read_text())
    assert cfg["command"] == "estimate"
    assert cfg["estimator"] == "mcd"
    assert cfg["starts"] == 500  # default resolved into the config


def test_estimate_replay_needs_no_estimator(dataset, tmp_path, capsys):
    fit = tmp_path / "fit.json"
    assert main(["estimate", "--estimator", "mcd", "--starts", "50", "--in", str(dataset),
                 "--out", str(fit)]) == 0
    again = tmp_path / "again.json"
    assert main(["estimate", "--config", str(tmp_path / "fit.config.json"),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == fit.read_bytes()
    capsys.readouterr()
    # without a config the estimator is still required
    assert main(["estimate", "--in", str(dataset)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("oplab: error:") and "--estimator" in err


def test_estimate_m_calibrates_its_default_loss_at_the_data_dimension(tmp_path, capsys):
    # a fixed sqrt(6) on squared distances put every point of a 100 x 15 sample
    # beyond the truncation, and the command exited 2
    data = tmp_path / "psicm.csv"
    assert main(["simulate", "--model", "psicm", "--eps", "0.1", "--d", "15",
                 "--n", "100", "--seed", "3", "--out", str(data)]) == 0
    out = tmp_path / "m.json"
    assert main(["estimate", "--estimator", "m", "--in", str(data), "--out", str(out)]) == 0
    cfg = json.loads((tmp_path / "m.config.json").read_text())
    assert cfg["c"] == calibrate_c(15, 0.5, convention="squared-distance")
    assert json.loads(out.read_text())["converged"]
    capsys.readouterr()


def test_estimate_mcd_on_d_plus_one_rows_reports_the_log_det(tmp_path, capsys):
    # there h = n, and the fit reported the sample covariance's det instead
    path = tmp_path / "three.csv"
    path.write_text("x1,x2\n0,0\n1,0.3\n0.2,2\n")
    assert main(["estimate", "--estimator", "mcd", "--in", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    x = np.array([[0.0, 0.0], [1.0, 0.3], [0.2, 2.0]])
    assert result["objective"] == pytest.approx(np.linalg.slogdet(np.cov(x.T))[1], rel=1e-12)


@pytest.mark.parametrize("name", ["mcd", "m", "s"])
def test_estimate_on_overflowing_distances_is_a_numerical_failure(tmp_path, capsys, name):
    # cells of normals times 10^U(-300, 300) overflow the squared distances;
    # the fit used to exit 2 with numpy's reshape or root-finder message
    path = tmp_path / "huge.csv"
    np.savetxt(path, overflowing_data(), delimiter=",", header="x1,x2,x3,x4", comments="", fmt="%.17g")
    with np.errstate(all="ignore"):
        assert main(["estimate", "--estimator", name, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oplab: numerical failure:") and "non-finite squared distances" in err


def test_estimate_mve_on_overflowing_data_names_the_overflow(tmp_path, capsys):
    # the fit used to exit 2 with "math range error" from the volume
    path = tmp_path / "huge.csv"
    np.savetxt(path, overflowing_data(), delimiter=",", header="x1,x2,x3,x4", comments="", fmt="%.17g")
    with np.errstate(all="ignore"):
        assert main(["estimate", "--estimator", "mve", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oplab: numerical failure:") and "MVE volume overflows" in err


@pytest.mark.parametrize("data", ["overflowing_data", "ci_huge"])
@pytest.mark.parametrize("name", ["mcd", "mve", "s", "m", "mean"])
def test_estimate_on_overflowing_distances_fails_in_one_line(tmp_path, name, data):
    # numpy's "overflow encountered in matmul" from the squared distances
    # (and in multiply from mve's scatter) came before the message, although
    # the fits handle what overflows; ci_huge is the CI workflow's huge.csv
    if data == "ci_huge":
        g = np.random.default_rng(6610)
        x = g.normal(size=(300, 4)) * 10.0 ** g.uniform(-300, 300, size=(300, 4))
    else:
        x = overflowing_data()
    path = tmp_path / "huge.csv"
    np.savetxt(path, x, delimiter=",", header="x1,x2,x3,x4", comments="", fmt="%.17g")
    done = subprocess.run([sys.executable, "-m", "oplab", "estimate", "--estimator", name,
                           "--in", str(path)], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 2
    assert done.stderr.startswith("oplab: numerical failure:"), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


def _one_overflowing_cell(path):
    """200 normal rows of 3 columns with one 1e200 cell, as a CSV at path."""
    x = np.random.default_rng(5).normal(size=(200, 3))
    x[7, 1] = 1e200
    np.savetxt(path, x, delimiter=",", header="x1,x2,x3", comments="", fmt="%.17g")
    return path


@pytest.mark.parametrize("name", ["mcd", "m", "s"])
def test_estimate_outvotes_one_overflowing_cell(tmp_path, capsys, name):
    # one 1e200 cell in 200 normal rows; m used to exit 2, every point
    # rejected, because that row's psi was NaN
    path = _one_overflowing_cell(tmp_path / "cell.csv")
    with np.errstate(all="ignore"):
        assert main(["estimate", "--estimator", name, "--in", str(path)]) == 0
    assert np.abs(json.loads(capsys.readouterr().out)["mu"]).max() < 1.0


def test_estimate_m_outvotes_one_overflowing_cell_in_silence(tmp_path):
    # the fit zeroes what overflows; it used to print four numpy
    # RuntimeWarnings on the way, which read like a failure
    path = _one_overflowing_cell(tmp_path / "cell.csv")
    done = subprocess.run([sys.executable, "-m", "oplab", "estimate", "--estimator", "m",
                           "--in", str(path)], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    assert np.abs(json.loads(done.stdout)["mu"]).max() < 1.0


def test_estimate_mean_names_an_overflowing_covariance(tmp_path):
    # one 1e200 cell overflows the sample covariance; the fit used to print
    # numpy's "overflow encountered in dot" and report an infinite scatter
    path = _one_overflowing_cell(tmp_path / "cell.csv")
    done = subprocess.run([sys.executable, "-m", "oplab", "estimate", "--estimator", "mean",
                           "--in", str(path)], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("oplab: numerical failure: non-finite sample covariance: "
                           "the data overflow it\n")


@pytest.mark.parametrize("name", ["mcd", "s", "coord_s", "mve"])
def test_estimate_outvotes_one_overflowing_cell_in_silence(tmp_path, name):
    # s, coord_s and mve printed numpy overflow warnings on the way (from the
    # squared distances, the MAD start's std, the elemental starts' moments
    # and the M-scale loss), which the fits handle as they handle an infinite
    # distance: an mve candidate whose covariance overflows has a NaN log det
    # and coverage radius, and never wins
    path = _one_overflowing_cell(tmp_path / "cell.csv")
    done = subprocess.run([sys.executable, "-m", "oplab", "estimate", "--estimator", name,
                           "--in", str(path)], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    assert np.abs(json.loads(done.stdout)["mu"]).max() < 1.0


# ---------------------------------------------------------------------------
# run directories and replay

# micro runs of every run-directory command: argv and the run directory name
_RUNS = {
    "influence": (["influence", "--kind", "ficm", "--d", "2", "--grid", "-2:2:1",
                   "--draws", "4000"], "influence"),
    "ges": (["ges", "--kind", "fdcm", "--d", "2"], "ges"),
    "table1": (["table1"], "table1"),
    "fig2": (["fig2", "--d-grid", "1,2", "--draws", "2000", "--svg"], "ges_vs_dim"),
    "fig3": (["fig3", "--n", "2000", "--svg"], "propagation"),
    "fig4": (["fig4", "--d", "2", "--n", "30", "--t-grid", "0:10:10",
              "--estimators", "mean,coord_median", "--reps", "2", "--svg"], "bias_sweep"),
    "breakdown": (["breakdown", "--estimator", "coord_median", "--d", "2",
                   "--eps-grid", "0.1:0.2:0.1", "--reps", "2", "--n", "40"], "breakdown"),
}


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_run_and_replay_are_byte_identical(tmp_path, capsys, command):
    argv, name = _RUNS[command]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out1)]) == 0
    printed = capsys.readouterr().out
    run = out1 / name
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["command"] == command and cfg["out"] == str(out1)

    assert main([command, "--config", str(run / "config.json"), "--out", str(out2)]) == 0
    assert capsys.readouterr().out == printed.replace(str(out1), str(out2))
    files = sorted(p.name for p in run.iterdir())
    assert {"config.json", "results.csv", "summary.json"} <= set(files)
    assert ("figure.svg" in files) == ("--svg" in argv)
    assert sorted(p.name for p in (out2 / name).iterdir()) == files
    for fname in files:
        if fname != "config.json":
            assert (run / fname).read_bytes() == (out2 / name / fname).read_bytes(), fname
    cfg2 = json.loads((out2 / name / "config.json").read_text())
    assert {**cfg2, "out": None} == {**cfg, "out": None}


def test_influence_config_resolves_grid_and_constant(tmp_path):
    argv, _ = _RUNS["influence"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "influence" / "config.json").read_text())
    assert cfg["grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert cfg["c"] == pytest.approx(6.0 ** 0.5)


def test_influence_and_ges_take_no_gamma(tmp_path, capsys):
    # pcicm-i's influence is the ficm one, so gamma could not change a result
    for command in ("influence", "ges"):
        argv, _ = _RUNS[command]
        assert main(argv + ["--gamma", "0.5", "--out", str(tmp_path / "a")]) == 1
        assert "--gamma" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    # a config with a gamma key is refused as having an unknown key
    argv, _ = _RUNS["influence"]
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    path = tmp_path / "b" / "influence" / "config.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), gamma=None)))
    capsys.readouterr()
    assert main(["influence", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """One config file per subcommand, with the flags a replay of it needs."""
    root = tmp_path_factory.mktemp("configs")
    data = root / "data.csv"
    assert main(["simulate", "--d", "2", "--n", "30", "--out", str(data)]) == 0
    assert main(["estimate", "--estimator", "mean", "--in", str(data),
                 "--out", str(root / "fit.json")]) == 0
    found = {"simulate": (root / "data.config.json", []),
             "estimate": (root / "fit.config.json", [])}
    for command, (argv, name) in _RUNS.items():
        assert main(argv + ["--out", str(root)]) == 0
        found[command] = (root / name / "config.json", [])
    return found


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_replay_rejects_missing_and_unknown_keys(configs, tmp_path, capsys, command):
    path, extra = configs[command]
    cfg = json.loads(path.read_text())
    capsys.readouterr()
    cases = [(key, {k: v for k, v in cfg.items() if k != key})
             for key in cfg if key != "command"]
    cases.append(("surplus", {**cfg, "surplus": 1}))
    fresh = tmp_path / "fresh"
    for key, bad in cases:
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert main([command, "--config", str(bad_path), "--out", str(fresh / "x.csv")]
                    + extra) == 1, key
        captured = capsys.readouterr()
        assert captured.out == "", key
        assert captured.err.startswith("oplab: error:") and repr(key) in captured.err, key
        assert not fresh.exists(), key


# the settings that only tests set, now constants: the GES searches of fig2 and
# ges, m's plug-in scatter, and fig3's mixing weights and figure sample; and
# ges's draws and seed, since its GES is exact for every kind
_REMOVED = [("fig2", "rays", "first"), ("fig2", "n_random", 2), ("fig2", "n_radial", 20),
            ("fig2", "refine", 32), ("ges", "rays", "all"), ("ges", "n_random", 4),
            ("ges", "n_radial", 24), ("ges", "refine", 48), ("estimate", "scatter", "mcd"),
            ("fig3", "transform", [[0.64, 0.77], [0.78, 0.62]]), ("fig3", "figure_n", 20),
            ("ges", "draws", 100000), ("ges", "seed", 31)]


@pytest.mark.parametrize("command,key,value", _REMOVED)
def test_removed_settings_are_refused(configs, tmp_path, capsys, command, key, value):
    flag = "--" + key.replace("_", "-")
    fresh = tmp_path / "fresh"
    assert main([command, flag, json.dumps(value), "--out", str(fresh / "x.json")]) == 1
    assert flag in capsys.readouterr().err
    # a config that holds the key is refused as having an unknown key
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**json.loads(configs[command][0].read_text()), key: value}))
    assert main([command, "--config", str(path), "--out", str(fresh / "x.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and repr(key) in captured.err
    assert not fresh.exists()


@pytest.mark.parametrize("command,flags", [("estimate", ["--estimator", "mean"]),
                                           ("fig2", ["--draws", "10"])])
def test_replay_rejects_flags_that_would_change_the_run(configs, tmp_path, capsys,
                                                          command, flags):
    # a replay used to run the config's estimator or draws and drop these
    path, _ = configs[command]
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    assert main([command, "--config", str(path), "--out", str(fresh / "x.json")] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oplab: error:") and flags[0] in captured.err
    assert not fresh.exists()


def test_replay_with_explicit_out_runs_writes_under_the_working_directory(
        tmp_path, monkeypatch, capsys):
    first = tmp_path / "first"
    assert main(["table1", "--out", str(first)]) == 0
    original = (first / "table1" / "config.json").read_bytes()
    other = tmp_path / "other"
    other.mkdir()
    monkeypatch.chdir(other)
    assert main(["table1", "--config", str(first / "table1" / "config.json"),
                 "--out", "runs"]) == 0
    assert json.loads((other / "runs" / "table1" / "config.json").read_text())["out"] == "runs"
    assert (other / "runs" / "table1" / "results.csv").read_bytes() == \
        (first / "table1" / "results.csv").read_bytes()
    assert (first / "table1" / "config.json").read_bytes() == original
    capsys.readouterr()


# flag values outside their domain, each refused at the boundary with the
# flag named: the --bp and --c cases, --draws 0 and --reps 0 used to exit 2 or
# 1 through a traceback; --draws 1 wrote NaN stderrs or failed a check, and
# fig4 --reps 0 exited 0 with failed checks.  From --d-grid 0 on: the ones
# that exited 2 with an internal message, or 0 (--eps 1.5, --mcd-starts 0,
# fig3 --n 1, --threshold nan, a point at inf), and the non-finite payloads,
# a grid whose point count overflows among them
_OUT_OF_DOMAIN = [
    (["ges", "--bp", "0"], "--bp"), (["ges", "--bp", "0.7"], "--bp"),
    (["ges", "--bp", "nan"], "--bp"), (["influence", "--bp", "-0.1"], "--bp"),
    (["ges", "--c", "inf"], "--c"), (["influence", "--c", "inf"], "--c"),
    (["influence", "--draws", "0"], "--draws"),
    (["influence", "--r", "0.5", "--draws", "1"], "--draws"),
    (["fig2", "--draws", "0"], "--draws"), (["fig2", "--draws", "1"], "--draws"),
    (["breakdown", "--reps", "0"], "--reps"), (["fig4", "--reps", "0"], "--reps"),
    (["fig4", "--reps", "-1"], "--reps"),
    (["fig2", "--d-grid", "0"], "--d-grid"), (["table1", "--d-grid", "0"], "--d-grid"),
    (["fig4", "--d", "0"], "--d"), (["breakdown", "--d", "0"], "--d"),
    (["table1", "--delta", "0.7"], "--delta"), (["fig3", "--shift-var", "0"], "--shift-var"),
    (["breakdown", "--eps-grid", "0:0.4:0.2"], "--eps-grid"), (["fig4", "--eps", "1.5"], "--eps"),
    (["fig4", "--mcd-starts", "0"], "--mcd-starts"), (["fig3", "--n", "1"], "--n"),
    (["breakdown", "--threshold", "nan"], "--threshold"),
    (["influence", "--grid", "0:inf:1"], "--grid"), (["influence", "--grid", "0:1:inf"], "--grid"),
    (["influence", "--grid", "0:1e300:1e-300"], "--grid"),
    (["table1", "--d-grid", "1e400"], "--d-grid"), (["simulate", "--point", "1,inf"], "--point"),
]


@pytest.mark.parametrize("argv,flag", _OUT_OF_DOMAIN,
                         ids=[" ".join(argv) for argv, _ in _OUT_OF_DOMAIN])
def test_flags_outside_their_domain_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("oplab: error: " + flag) and captured.err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # no run directory, no dataset, no sidecar


def _typed_flags():
    """(command, flag, action) for every flag of every command that takes a
    payload, --config and simulate's outlier flags aside."""
    for command, sp in _build_parser().commands.items():
        for action in sp._actions:
            if action.option_strings and action.type is not None \
                    and action.dest not in ("shift", "point", "gauss"):
                yield command, action.option_strings[0], action


def test_every_typed_flag_has_a_domain():
    missing = [(command, flag) for command, flag, action in _typed_flags()
               if _domain(command, action.dest) is None]
    assert missing == []


def _refused_by_its_domain(command, action, text):
    """Whether the payload text of action fails its parser or its domain."""
    try:
        value = action.type(text)
    except (ValueError, _UsageError):
        return True
    _, test, _ = _domain(command, action.dest)
    values = value if isinstance(value, list) else [value]
    return not values or not all(test(v) for v in values)


_EDGES = ["0", "-1", "nan", "inf", "1e9"]


@pytest.mark.parametrize("command,flag,action", list(_typed_flags()),
                         ids=[f"{c} {f}" for c, f, _ in _typed_flags()])
def test_zero_negative_and_non_finite_payloads_are_refused_by_their_domain(
        tmp_path, capsys, command, flag, action):
    # every edge value that the flag's domain refuses exits 1 with one line
    # naming the flag, before anything is written; the ones it admits are
    # valid input and are not run here
    for text in _EDGES:
        if not _refused_by_its_domain(command, action, text):
            continue
        out = tmp_path / "out"
        assert main([command, f"{flag}={text}", "--out", str(out)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err, text
        assert flag in captured.err and captured.err.count("\n") == 1, text
        assert not any(tmp_path.iterdir()), text


# the same domains, written into a config and replayed: a replay used to
# check only the config's keys, so these ran, failed deep inside (exit 2 or a
# traceback) or exited 0, most after creating the run directory
_BAD_CONFIGS = [
    ("influence", "draws", 1, "--draws"), ("influence", "bp", 0.9, "--bp"),
    ("influence", "d", "2", "--d"), ("influence", "draws", 100.5, "--draws"),
    ("influence", "d", True, "--d"), ("influence", "grid", [0.0, math.inf], "--grid"),
    ("fig4", "threads", 0, "--threads"), ("fig4", "replications", 0, "--reps"),
    ("simulate", "outlier", {"kind": "point-mass", "z": [1.0, 2.0, 3.0]}, "--point"),
    ("simulate", "outlier", {"kind": "point-mass", "z": [1.0, math.inf]}, "--point"),
    ("simulate", "outlier", {"kind": "gaussian-shift", "mean": 1.0, "var": -1.0}, "--gauss"),
    ("fig2", "d_grid", [0], "--d-grid"), ("table1", "d_grid", [0], "--d-grid"),
    ("table1", "d_grid", [math.inf], "--d-grid"), ("fig4", "d", 0, "--d"),
    ("breakdown", "d", 0, "--d"), ("table1", "delta", 0.7, "--delta"),
    ("fig3", "shift_var", 0.0, "--shift-var"),
    ("breakdown", "eps_grid", [0.0, 0.2, 0.4], "--eps-grid"), ("fig4", "eps", 1.5, "--eps"),
    ("fig4", "mcd_starts", 0, "--mcd-starts"), ("fig3", "n", 1, "--n"),
    ("breakdown", "threshold", math.nan, "--threshold"), ("estimate", "starts", 0, "--starts"),
    ("estimate", "estimator", "median", "--estimator"),
    ("fig4", "estimators", "mean", "--estimators"),
    ("breakdown", "eps_grid", [0.3, 0.1], "--eps-grid"),
    ("breakdown", "eps_grid", [0.1, 0.1, 0.2], "--eps-grid"),
    ("fig4", "t_grid", [100.0, 50.0, 0.0], "--t-grid"),
    ("fig4", "t_grid", [0.0, 50.0, 50.0], "--t-grid"),
]


@pytest.mark.parametrize("command,key,value,flag", _BAD_CONFIGS,
                         ids=[f"{c} {k}={v!r}" for c, k, v, _ in _BAD_CONFIGS])
def test_replayed_values_outside_their_domain_are_usage_errors(configs, tmp_path, capsys,
                                                                 command, key, value, flag):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**json.loads(configs[command][0].read_text()), key: value}))
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    assert main([command, "--config", str(path), "--out", str(fresh / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("oplab: error: " + flag) and captured.err.count("\n") == 1
    assert not fresh.exists()


def test_replay_rejects_mismatched_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["table1", "--out", str(out)]) == 0
    assert main(["fig3", "--config", str(out / "table1" / "config.json"),
                 "--out", str(out)]) == 1
    assert "does not describe" in capsys.readouterr().err


def test_ges_run_writes_rays(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["ges", "--kind", "fdcm", "--d", "2", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "ges" / "results.csv")
    assert header == ["d", "kind", "ges"]
    assert rows[0][1] == "fdcm"
    value = float(rows[0][2])
    assert value == pytest.approx(2.3906723751055754, rel=1e-7)
    rheader, rrows = _read_csv(out / "ges" / "rays.csv")
    assert rheader == ["ray", "best_t", "best_norm"]
    # row replacement reduces to a single radial profile
    assert [r[0] for r in rrows] == ["radial"]
    assert "ges[fdcm, d=2]" in capsys.readouterr().out


def test_ges_psicm_writes_one_ray_per_k(tmp_path, capsys):
    # the k = 4 diagonal of d = 5 beats the full diagonal's 3.457874; the
    # defaults give 2.378801
    out = tmp_path / "g"
    assert main(["ges", "--kind", "psicm", "--d", "5", "--convention", "squared-distance",
                 "--c", "10.087454037228385", "--out", str(out)]) == 0
    summary = json.loads((out / "ges" / "summary.json").read_text())
    assert summary["ges"] >= 3.458623
    assert summary["argmax_z"][:4] == [summary["argmax_z"][0]] * 4 and summary["argmax_z"][4] == 0
    _, rrows = _read_csv(out / "ges" / "rays.csv")
    assert [r[0] for r in rrows] == ["k1", "k2", "k3", "k4", "k5"]
    assert max(float(r[2]) for r in rrows) == summary["ges"] == float(rrows[3][2])
    assert main(["ges", "--kind", "psicm", "--out", str(tmp_path / "h")]) == 0
    assert "ges[psicm, d=2] = 2.378801" in capsys.readouterr().out
    assert "seed" not in json.loads((tmp_path / "h" / "ges" / "config.json").read_text())


def test_table1_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["table1"]) == 0
    out = tmp_path / "runs"
    assert json.loads((out / "table1" / "config.json").read_text()) == \
        {"command": "table1", "d_grid": [1, 2, 3, 4, 5, 10, 15, 20, 100],
         "delta": 0.0, "out": "runs"}
    header, rows = _read_csv(out / "table1" / "results.csv")
    assert header == ["d", "eps0", "eps0_2dp"]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "10", "15", "20", "100"]
    assert float(rows[1][2]) == 0.29
    assert "table1: 9/9 checks passed" in capsys.readouterr().out


def test_fig2_threads_do_not_change_the_bytes(tmp_path):
    outs = []
    for threads, sub in (("1", "t1"), ("4", "t4")):
        out = tmp_path / sub
        assert main(["fig2", "--d-grid", "1,2", "--draws", "4000",
                     "--threads", threads, "--out", str(out)]) == 0
        outs.append((out / "ges_vs_dim" / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_fig3_svg_output(tmp_path, capsys):
    out = tmp_path / "f3"
    assert main(["fig3", "--n", "2000", "--svg", "--out", str(out)]) == 0
    svg = out / "propagation" / "figure.svg"
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    assert (out / "propagation" / "histogram.csv").exists()
    assert (out / "propagation" / "sample.csv").exists()
    capsys.readouterr()


def test_fig4_micro_run(tmp_path, capsys):
    out = tmp_path / "f4"
    assert main(["fig4", "--d", "2", "--n", "30", "--t-grid", "0:10:10",
                 "--estimators", "mean,coord_median", "--reps", "2",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "bias_sweep" / "results.csv")
    assert header == ["t", "estimator", "replication", "max_abs_bias"]
    assert len(rows) == 2 * 2 * 2
    assert main(["fig4", "--estimators", "mean,huber", "--out", str(out)]) == 1
    capsys.readouterr()


def test_sweeps_accept_every_registered_estimator(tmp_path, capsys):
    out = tmp_path / "all"
    assert main(["fig4", "--d", "2", "--n", "30", "--t-grid", "0:10:10",
                 "--estimators", "mean,coord_median,coord_s,m,s,mcd,mve",
                 "--reps", "1", "--mcd-starts", "10", "--mve-trials", "10",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "bias_sweep" / "results.csv")
    assert len(rows) == 2 * 7
    for est in ("m", "s"):
        assert main(["breakdown", "--estimator", est, "--d", "2",
                     "--eps-grid", "0.1:0.2:0.1", "--reps", "1", "--n", "40",
                     "--out", str(tmp_path / est)]) == 0
    capsys.readouterr()


def test_breakdown_run(tmp_path, capsys):
    out = tmp_path / "bd"
    assert main(["breakdown", "--estimator", "coord_median", "--d", "2",
                 "--eps-grid", "0.1:0.4:0.1", "--reps", "2", "--n", "120",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "eps_star_hat = None" in text
    summary = json.loads((out / "breakdown" / "summary.json").read_text())
    assert summary["eps_star_hat"] is None
    assert summary["bound"] == pytest.approx(1.0 - 0.5 ** 0.5)


# ---------------------------------------------------------------------------
# correlation plumbing: contaminating one cell moves the other coordinate
# exactly when the model is correlated

def _cross_coordinate_stats(tmp_path, r, sub):
    out = tmp_path / sub
    assert main(["influence", "--kind", "ficm", "--d", "2", "--r", str(r),
                 "--grid", "0:1:1", "--draws", "60000", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "influence" / "results.csv")
    assert header == ["z1", "z2", "if1", "if2", "se1", "se2"]
    row = next(q for q in rows if float(q[0]) == 1.0 and float(q[1]) == 0.0)
    return abs(float(row[3])), float(row[5])


def test_influence_sees_the_correlation(tmp_path):
    if2, se2 = _cross_coordinate_stats(tmp_path, 0.9, "corr")
    assert if2 > 3.0 * se2
    if2_flat, se2_flat = _cross_coordinate_stats(tmp_path, 0.0, "flat")
    assert if2_flat <= 3.0 * se2_flat


# ---------------------------------------------------------------------------
# the import graph: oplab's runtime is numpy alone, so every command runs in an
# interpreter that cannot import scipy

_NO_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
from oplab.cli import main

out = sys.argv[1]
data = out + "/data.csv"
subset = ["--mcd-starts", "20", "--mve-trials", "20"]
runs = [["simulate", "--model", "ficm", "--d", "3", "--n", "300", "--seed", "4", "--out", data]]
runs += [["estimate", "--estimator", e, "--in", data] for e in ("s", "coord_s", "mcd", "mve", "m")]
runs += [["fig4", "--d", "3", "--n", "30", "--t-grid", "0:10:10", "--reps", "2",
          "--estimators", "mcd,mve", "--out", out] + subset,
         ["fig2", "--d-grid", "1,2", "--draws", "2000", "--out", out],
         ["breakdown", "--estimator", "mcd", "--d", "2", "--eps-grid", "0.1:0.2:0.1",
          "--reps", "2", "--n", "40", "--out", out] + subset[:2],
         ["influence", "--d", "2", "--grid", "-2:2:2", "--draws", "2000", "--out", out],
         ["ges", "--d", "2", "--out", out],
         ["table1", "--out", out],
         ["fig3", "--n", "2000", "--out", out]]
for argv in runs:
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def _src_env() -> dict:
    """The environment with this oplab's source first on PYTHONPATH."""
    src = str(Path(oplab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_commands_run_without_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for run in ("bias_sweep", "ges_vs_dim", "breakdown", "influence", "ges", "table1",
                "propagation"):
        assert (tmp_path / run / "results.csv").is_file(), run
