"""Breakdown bounds, the canned studies, and report serialization."""

import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (ESTIMATORS, ExperimentReport, InfluenceContext, bias_sweep,
                   empirical_breakdown, epsilon0, ges, ges_vs_dim, propagation_demo,
                   standard_model, table1)
from oplab import estimators, experiments
from oplab.experiments import _parallel_map, write_csv, write_json


def _failed(rep):
    """The names of the report's assertions that failed."""
    return [a["name"] for a in rep.summary["assertions"] if not a["passed"]]


# ---------------------------------------------------------------------------
# the bound and the clean-majority arithmetic

def test_epsilon0_values():
    assert epsilon0(0.0, 1) == pytest.approx(0.5)
    assert epsilon0(0.0, 2) == pytest.approx(1.0 - math.sqrt(0.5))
    assert epsilon0(0.0, 15) == pytest.approx(1.0 - 0.5 ** (1 / 15))
    assert epsilon0(0.25, 1) == pytest.approx(0.75)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.49),
       st.integers(min_value=1, max_value=50))
def test_epsilon0_properties(delta, d):
    v = epsilon0(delta, d)
    assert 0.0 < v <= 1.0
    assert v == pytest.approx(1.0 - (0.5 - delta) ** (1.0 / d))
    # in one dimension the bound is just 1/2 + delta
    assert epsilon0(delta, 1) == pytest.approx(0.5 + delta)
    if d > 1:
        assert epsilon0(delta, d) < epsilon0(delta, d - 1)


def test_epsilon0_validation():
    with pytest.raises(ValueError):
        epsilon0(0.5, 2)
    with pytest.raises(ValueError):
        epsilon0(-0.1, 2)
    with pytest.raises(ValueError):
        epsilon0(0.0, 0)


def test_clean_majority_threshold():
    # the smallest d whose bound epsilon0(0, d) falls below eps is the
    # smallest d at which clean rows, a share (1 - eps)^d, are a minority
    for eps, expect in ((0.05, 14), (0.01, 69), (0.1, 7), (0.2, 4), (0.3, 2)):
        d = next(d for d in itertools.count(1) if epsilon0(0.0, d) < eps)
        assert d == expect
        assert (1.0 - eps) ** d < 0.5 <= (1.0 - eps) ** (d - 1)


def test_table1_matches_the_bound():
    rep = table1()
    assert not _failed(rep)
    header, rows = rep.tables["results"]
    assert header == ["d", "eps0", "eps0_2dp"]
    for d, v, r in rows:
        assert v == pytest.approx(epsilon0(0.0, d))
        assert r == round(v, 2)
    assert dict((d, r) for d, _, r in rows)[2] == 0.29


# ---------------------------------------------------------------------------
# propagation demonstration

def test_propagation_demo_fractions_and_medians():
    rep = propagation_demo()
    assert not _failed(rep)
    vals = dict(rep.tables["results"][1])
    assert abs(vals["frac_0_cells"] - 0.49) <= 0.01
    assert abs(vals["frac_1_cell"] - 0.42) <= 0.01
    assert abs(vals["frac_2_cells"] - 0.09) <= 0.01
    # raw medians stay near the clean center, the mixed ones do not
    assert vals["median_x1"] < 0.6
    assert vals["median_l1"] > 1.0
    header, hist = rep.tables["histogram"]
    assert header == ["bin_left", "bin_right", "count_x1", "count_l1"]
    assert sum(r[2] for r in hist) <= 20_000
    assert len(rep.tables["sample"][1]) == 20


@pytest.mark.parametrize("planted", [0.0, -0.06, 0.06])
def test_propagation_demo_fraction_band_follows_n(monkeypatch, planted):
    # at n = 2000 the band is 0.01 sqrt(10): the true law passes all five
    # checks, and a law planted 0.06 off in either direction fails the three
    # fraction checks
    law = experiments.cell_count_pmf
    monkeypatch.setattr(experiments, "cell_count_pmf",
                        lambda spec, d, k: law(spec, d, k) + planted)
    rep = propagation_demo(n=2000)
    assert len(rep.summary["assertions"]) == 5
    fractions = [f"frac{k} within 0.0316 of law" for k in (0, 1, 2)]
    assert _failed(rep) == ([] if planted == 0.0 else fractions)


def test_propagation_demo_clean_case_fails_the_mixing_check():
    rep = propagation_demo(n=2000, eps=0.0)
    vals = dict(rep.tables["results"][1])
    assert vals["frac_0_cells"] == 1.0
    assert abs(vals["median_l1"]) < 0.2
    assert _failed(rep) == ["median of mixed col 1 exceeds 1.0"]


# ---------------------------------------------------------------------------
# bias sweep

def _tiny_sweep(threads=1):
    return bias_sweep(d=3, n=40, eps=0.15, t_grid=(0.0, 10.0, 100.0),
                      replications=3, mcd_starts=30, mve_trials=50,
                      threads=threads)


def test_bias_sweep_tables():
    rep = _tiny_sweep()
    header, rows = rep.tables["results"]
    assert header == ["t", "estimator", "replication", "max_abs_bias"]
    assert len(rows) == 3 * 4 * 3
    assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    cheader, curves = rep.tables["curves"]
    assert cheader == ["t", "estimator", "mean_of_max", "max_of_mean"]
    assert len(curves) == 3 * 4
    by_key = {(t, e): (mm, xm) for t, e, mm, xm in curves}
    # the sample mean follows the contamination linearly, the medians do not
    assert by_key[(100.0, "mean")][1] == pytest.approx(15.0, rel=0.2)
    assert by_key[(100.0, "coord_median")][0] < 1.0


def test_bias_sweep_threads_do_not_change_results():
    a = _tiny_sweep(threads=1)
    b = _tiny_sweep(threads=4)
    assert a.tables["results"] == b.tables["results"]
    assert a.tables["curves"] == b.tables["curves"]


def test_bias_sweep_estimator_validation():
    with pytest.raises(ValueError):
        bias_sweep(d=2, n=20, estimators=("mean", "mode"), replications=1)


def test_bias_sweep_runs_every_registered_estimator():
    rep = bias_sweep(d=2, n=40, eps=0.1, t_grid=(0.0, 50.0), estimators=tuple(ESTIMATORS),
                     replications=2, mcd_starts=20, mve_trials=20)
    _, rows = rep.tables["results"]
    assert len(rows) == 2 * len(ESTIMATORS) * 2
    assert all(math.isfinite(r[3]) for r in rows)
    by_key = {(t, e): mm for t, e, mm, _ in rep.tables["curves"][1]}
    for est in ESTIMATORS:
        if est != "mean":
            assert by_key[(50.0, est)] < 2.0, est


def _break_mcd(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("mcd() got an unexpected keyword argument")
    monkeypatch.setattr(estimators, "mcd", broken)


def test_bias_sweep_propagates_programming_errors(monkeypatch):
    _break_mcd(monkeypatch)
    with pytest.raises(TypeError):
        bias_sweep(d=2, n=20, t_grid=(0.0, 10.0), estimators=("mcd",), replications=1)


def test_bias_sweep_reports_cells_where_every_fit_failed():
    # at n = d = 3 the contaminated MCD fit fails; the check stage names the
    # empty cell instead of dying on it
    rep = bias_sweep(d=3, n=3, t_grid=(0.0, 10.0), estimators=("mcd",), replications=1)
    _, rows = rep.tables["results"]
    assert math.isnan(next(r[3] for r in rows if r[0] == 10.0))
    (check,) = rep.summary["assertions"]
    assert not check["passed"]
    assert "(10.0, 'mcd')" in check["detail"]


# ---------------------------------------------------------------------------
# sensitivity against dimension

def test_ges_vs_dim_small_grid():
    rep = ges_vs_dim(d_grid=(1, 2), n_draws=20_000)
    assert not _failed(rep)
    header, rows = rep.tables["results"]
    assert header == ["d", "estimator", "model", "ges", "c"]
    assert len(rows) == 8
    assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    vals = {(d, e, k): g for d, e, k, g, _ in rows}
    # one dimension: cell and row contamination coincide, as do the two
    # functionals
    flat = vals[(1, "coordinatewise-s", "fdcm")]
    assert vals[(1, "multivariate-s", "fdcm")] == pytest.approx(flat, rel=1e-9)
    assert vals[(1, "multivariate-s", "ficm")] == pytest.approx(flat, rel=1e-3)
    # every coordinatewise row is, bit for bit, the univariate row-replacement GES
    rho1 = ESTIMATORS["coord_s"].rho(1, 0.5)
    coord = ges(InfluenceContext(standard_model(1), rho1, kind="fdcm")).value
    assert [g for _, e, _, g, _ in rows if e == "coordinatewise-s"] == [coord] * 4
    # tuning constants grow with dimension
    cs = {d: c for d, e, k, _, c in rows if e == "multivariate-s"}
    assert cs[2] > cs[1]


def test_ges_vs_dim_threads_do_not_change_results():
    kw = dict(d_grid=(1, 2), n_draws=10_000)
    assert ges_vs_dim(threads=1, **kw).tables == ges_vs_dim(threads=4, **kw).tables


# ---------------------------------------------------------------------------
# empirical breakdown

def test_breakdown_mcd_d15_matches_the_bound():
    grid = tuple(round(0.02 * k, 2) for k in range(1, 11))
    rep = empirical_breakdown(estimator="mcd", d=15, eps_grid=grid,
                              replications=3, n=200, mcd_starts=60)
    assert not _failed(rep)
    s = rep.summary
    assert s["bound"] == pytest.approx(epsilon0(0.0, 15))
    assert s["eps_star_hat"] is not None
    assert s["eps_star_hat"] <= 0.10
    assert s["eps_star_hat"] <= s["bound"] + 0.02 + 1e-12
    header, rows = rep.tables["results"]
    assert header == ["eps", "mean_max_bias", "rep1", "rep2", "rep3"]
    assert [r[0] for r in rows] == list(grid)
    # far side of the bound: bias has exploded
    assert rows[-1][1] > 100.0


def test_breakdown_coord_median_survives_dense_cells():
    grid = tuple(round(0.05 * k, 2) for k in range(1, 10))
    rep = empirical_breakdown(estimator="coord_median", d=2, eps_grid=grid,
                              replications=3, n=300)
    assert rep.summary["eps_star_hat"] is None
    assert not _failed(rep)


def test_breakdown_univariate_s_near_half():
    grid = (0.3, 0.4, 0.44, 0.48, 0.52, 0.56)
    rep = empirical_breakdown(estimator="coord_s", d=1, eps_grid=grid,
                              replications=3, n=400)
    got = rep.summary["eps_star_hat"]
    assert got is not None
    assert abs(got - 0.5) <= 0.04 + 1e-12


def test_breakdown_propagates_programming_errors(monkeypatch):
    _break_mcd(monkeypatch)
    with pytest.raises(TypeError):
        empirical_breakdown(estimator="mcd", d=2, eps_grid=(0.1, 0.2), replications=1, n=40)


def test_breakdown_validation():
    with pytest.raises(ValueError):
        empirical_breakdown(estimator="trimmed", d=2)
    with pytest.raises(ValueError):
        empirical_breakdown(eps_grid=(0.2, 0.1))
    with pytest.raises(ValueError):
        empirical_breakdown(eps_grid=(0.1, 0.1, 0.2))
    with pytest.raises(ValueError):
        empirical_breakdown(eps_grid=(0.0, 0.1))


# ---------------------------------------------------------------------------
# report files

def test_report_write_tables_and_summary(tmp_path):
    rep = ExperimentReport(
        tables={"results": (["a", "b"], [(1, 2.5), (3, float("nan"))]),
                "extra": (["x"], [(True,), (False,)])},
        summary={"assertions": [{"name": "ok", "passed": True, "detail": ""}]})
    run_dir = str(tmp_path / "demo")
    rep.write(run_dir)
    assert sorted(os.listdir(run_dir)) == ["extra.csv", "results.csv", "summary.json"]
    text = open(os.path.join(run_dir, "results.csv")).read()
    assert text == "a,b\n1,2.5\n3,nan\n"
    assert open(os.path.join(run_dir, "extra.csv")).read() == "x\ntrue\nfalse\n"
    assert json.load(open(os.path.join(run_dir, "summary.json"))) == rep.summary


def test_write_csv_is_byte_stable(tmp_path):
    rows = [(0.1, 1, True), (1 / 3, 2, False)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), ["f", "i", "b"], rows)
    write_csv(str(p2), ["f", "i", "b"], rows)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1 == b"f,i,b\n0.1,1,true\n0.3333333333333333,2,false\n"


def test_write_json_layout(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"b": np.float64(1.5), "a": np.int64(2),
                           "arr": np.arange(3)})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 2, "arr": [0, 1, 2], "b": 1.5}
    assert text.index('"a"') < text.index('"arr"') < text.index('"b"')
    with pytest.raises(TypeError):
        write_json(str(path), {"bad": object()})


def test_parallel_map_preserves_order():
    items = [7, 1, 5, 2, 0]
    assert _parallel_map(lambda v: v * v, items, threads=1) == [49, 1, 25, 4, 0]
    assert _parallel_map(lambda v: v * v, items, threads=4) == [49, 1, 25, 4, 0]
