"""Command line behavior: grammar, exit codes, run artifacts, replay."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oplab.cli import _merge_negative_payloads, _parse_grid, _UsageError, main


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


def test_bad_env_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPL_SEED", "lots")
    assert main(["simulate", "--n", "5", "--out", str(tmp_path / "x.csv")]) == 1
    assert "OPL_SEED" in capsys.readouterr().err


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
    ("m", ["--scatter", "identity"]),
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


# ---------------------------------------------------------------------------
# run directories and replay

def test_influence_run_and_replay_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["influence", "--kind", "ficm", "--d", "2", "--grid", "-2:2:1",
            "--draws", "4000", "--out", str(out1)]
    assert main(args) == 0
    run = out1 / "influence"
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["command"] == "influence"
    assert cfg["grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert cfg["c"] == pytest.approx(6.0 ** 0.5)

    assert main(["influence", "--config", str(run / "config.json"),
                 "--out", str(out2)]) == 0
    assert (run / "results.csv").read_bytes() == \
        (out2 / "influence" / "results.csv").read_bytes()
    cfg2 = json.loads((out2 / "influence" / "config.json").read_text())
    assert {**cfg2, "out": None} == {**cfg, "out": None}


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


def test_table1_run(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["table1", "--out", str(out)]) == 0
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
                     "--n-radial", "6", "--refine", "8", "--n-random", "1",
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
