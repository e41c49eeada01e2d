"""Indicator laws, replacement generators, dataset round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (MODELS, AdditiveShift, ContaminationError,
                   ContaminationSpec, GaussianShift, InvalidData, PointMass,
                   cell_count_pmf, clean_case_prob, contaminate,
                   outlier_from_dict, read_dataset, sample_contaminated,
                   sample_replacement, standard_model, write_dataset)
from oplab.rng import substream


def _spec(model, eps, **kw):
    if model == "pcicm-i":
        kw.setdefault("gamma", max(eps, 0.5))
    return ContaminationSpec(model=model, epsilon=eps, **kw)


# ---------------------------------------------------------------------------
# mixture representation

def test_mixture_parameters():
    assert _spec("fdcm", 0.3).mixture() == (0.3, "ones", 0.0)
    assert _spec("ficm", 0.3).mixture() == (0.0, "zeros", 0.3)
    p, kind, rate = _spec("psicm", 0.2).mixture()
    assert kind == "ones"
    assert p == pytest.approx(0.2 / 1.8)
    assert rate == pytest.approx(0.1)
    p, kind, rate = ContaminationSpec("pcicm-i", 0.2, gamma=0.5).mixture()
    assert (kind, p, rate) == ("zeros", pytest.approx(0.5), pytest.approx(0.4))
    p, kind, rate = _spec("pcicm-ii", 0.25).mixture()
    assert kind == "zeros"
    assert p == pytest.approx(0.5)
    assert rate == pytest.approx(0.5)


def test_spec_validation():
    with pytest.raises(ContaminationError):
        ContaminationSpec("independent", 0.1)
    with pytest.raises(ContaminationError):
        ContaminationSpec("ficm", 1.2)
    with pytest.raises(ContaminationError):
        ContaminationSpec("ficm", -0.1)
    with pytest.raises(ContaminationError):
        ContaminationSpec("pcicm-i", 0.2)  # gamma required
    with pytest.raises(ContaminationError):
        ContaminationSpec("pcicm-i", 0.4, gamma=0.3)  # epsilon > gamma
    with pytest.raises(ContaminationError):
        ContaminationSpec("ficm", 0.2, gamma=0.5)
    # model name is case-insensitive
    assert ContaminationSpec("FICM", 0.2).model == "ficm"


def test_spec_dict_roundtrip():
    spec = ContaminationSpec("pcicm-i", 0.2, gamma=0.6, outlier=PointMass((5.0, 5.0)))
    back = ContaminationSpec.from_dict(spec.to_dict())
    assert back == spec


# ---------------------------------------------------------------------------
# cell-count law

def test_cell_counts_ficm_example():
    spec = _spec("ficm", 0.3)
    assert cell_count_pmf(spec, 2, 1) == pytest.approx(0.42, abs=1e-12)
    assert cell_count_pmf(spec, 2, 0) == pytest.approx(0.49, abs=1e-12)
    assert cell_count_pmf(spec, 2, 2) == pytest.approx(0.09, abs=1e-12)


def test_cell_counts_fdcm_all_or_nothing():
    spec = _spec("fdcm", 0.3)
    assert cell_count_pmf(spec, 7, 3) == 0.0
    assert cell_count_pmf(spec, 7, 0) == pytest.approx(0.7)
    assert cell_count_pmf(spec, 7, 7) == pytest.approx(0.3)


def test_cell_count_k_range_checked():
    with pytest.raises(ContaminationError):
        cell_count_pmf(_spec("ficm", 0.1), 3, 4)
    with pytest.raises(ContaminationError):
        cell_count_pmf(_spec("ficm", 0.1), 3, -1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODELS), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.01, max_value=0.5))
def test_cell_count_pmf_normalizes_with_mean_d_eps(model, d, eps):
    spec = _spec(model, eps)
    pmf = np.array([cell_count_pmf(spec, d, k) for k in range(d + 1)])
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # every model shares the marginal cell rate
    assert float(np.arange(d + 1) @ pmf) == pytest.approx(d * eps, abs=1e-12)


def test_clean_case_probabilities():
    assert clean_case_prob(_spec("fdcm", 0.3), 9) == pytest.approx(0.7)
    p14 = clean_case_prob(_spec("ficm", 0.05), 14)
    assert p14 == pytest.approx(0.95**14, abs=1e-12)
    assert p14 < 0.5 < clean_case_prob(_spec("ficm", 0.05), 13)
    p69 = clean_case_prob(_spec("ficm", 0.01), 69)
    assert p69 == pytest.approx(0.99**69, abs=1e-12)
    assert p69 < 0.5 < clean_case_prob(_spec("ficm", 0.01), 68)


def test_indicator_frequencies_psicm():
    spec = _spec("psicm", 0.2, outlier=AdditiveShift(10.0))
    b = sample_contaminated(standard_model(3), spec, 100_000, seed=404).b
    counts = np.bincount(b.sum(axis=1), minlength=4) / b.shape[0]
    pmf = np.array([cell_count_pmf(spec, 3, k) for k in range(4)])
    assert np.max(np.abs(counts - pmf)) < 0.01


@pytest.mark.parametrize("model", MODELS)
def test_marginal_cell_rate(model):
    spec = _spec(model, 0.1, outlier=AdditiveShift(10.0))
    b = sample_contaminated(standard_model(5), spec, 20_000, seed=77).b
    assert abs(b.mean() - 0.1) < 0.01
    # per-coordinate rates match too; rows are exchangeable across coordinates
    assert np.max(np.abs(b.mean(axis=0) - 0.1)) < 0.02


# ---------------------------------------------------------------------------
# replacement generators

def test_point_mass_values():
    pm = PointMass((5.0, -1.0, 2.0))
    got = pm.values(np.zeros(2), np.array([2, 0]), substream(0, 0))
    assert np.array_equal(got, [2.0, 5.0])
    assert outlier_from_dict(pm.to_dict()) == pm


def test_gaussian_shift_moments_and_validation():
    gs = GaussianShift(mean=10.0, var=4.0)
    draws = gs.values(np.zeros(200_000), np.arange(200_000), substream(9, 9))
    assert draws.mean() == pytest.approx(10.0, abs=0.02)
    assert draws.var() == pytest.approx(4.0, rel=0.02)
    with pytest.raises(ContaminationError):
        GaussianShift(mean=0.0, var=0.0)
    assert outlier_from_dict(gs.to_dict()) == gs


def test_additive_shift_values():
    sh = AdditiveShift(t=7.0)
    y = np.array([1.0, -2.0])
    assert np.array_equal(sh.values(y, np.array([0, 1]), substream(0, 0)), y + 7.0)
    assert outlier_from_dict(sh.to_dict()) == sh
    with pytest.raises(ContaminationError):
        outlier_from_dict({"kind": "cauchy"})


# ---------------------------------------------------------------------------
# contaminating data

def test_epsilon_zero_is_identity():
    y = substream(1, 2).normal(size=(40, 3))
    data = contaminate(y, ContaminationSpec("ficm", 0.0), seed=5)
    assert np.array_equal(data.x, y)
    assert not data.b.any()


def test_positive_epsilon_requires_outlier():
    y = np.zeros((4, 2))
    with pytest.raises(ContaminationError):
        contaminate(y, ContaminationSpec("ficm", 0.2), seed=5)
    with pytest.raises(ContaminationError):
        sample_contaminated(standard_model(2), ContaminationSpec("fdcm", 0.2), 10, seed=5)


def test_fdcm_replaces_whole_rows():
    y = substream(2, 0).normal(size=(400, 3))
    spec = ContaminationSpec("fdcm", 0.25, outlier=PointMass((8.0, 8.0, 8.0)))
    data = contaminate(y, spec, seed=11)
    row_counts = data.b.sum(axis=1)
    assert set(row_counts.tolist()) <= {0, 3}
    hit = row_counts == 3
    assert 0.10 < hit.mean() < 0.40
    assert np.all(data.x[hit] == 8.0)
    assert np.array_equal(data.x[~hit], y[~hit])


def test_ficm_row_fractions():
    model = standard_model(2)
    spec = ContaminationSpec("ficm", 0.3, outlier=GaussianShift(mean=6.0))
    data = sample_contaminated(model, spec, 100_000, seed=2024)
    counts = np.bincount(data.b.sum(axis=1), minlength=3) / 100_000
    assert abs(counts[0] - 0.49) < 0.01
    assert abs(counts[1] - 0.42) < 0.01
    assert abs(counts[2] - 0.09) < 0.01
    # untouched cells keep the clean marginal, contaminated cells move
    clean_cells = data.x[data.b == 0]
    assert abs(clean_cells.mean()) < 0.02
    assert data.x[data.b == 1].mean() == pytest.approx(6.0, abs=0.05)


def test_contaminate_rows_use_independent_substreams():
    y = substream(3, 1).normal(size=(30, 2))
    spec = ContaminationSpec("psicm", 0.3, outlier=GaussianShift(mean=5.0))
    full = contaminate(y, spec, seed=21)
    head = contaminate(y[:12], spec, seed=21)
    assert np.array_equal(full.x[:12], head.x)
    assert np.array_equal(full.b[:12], head.b)
    again = contaminate(y, spec, seed=21)
    assert np.array_equal(full.x, again.x)


def test_sample_contaminated_deterministic():
    model = standard_model(3)
    spec = ContaminationSpec("pcicm-ii", 0.16, outlier=AdditiveShift(t=9.0))
    a = sample_contaminated(model, spec, 50, seed=8)
    b = sample_contaminated(model, spec, 50, seed=8)
    assert np.array_equal(a.x, b.x)
    c = sample_contaminated(model, spec, 50, seed=9)
    assert not np.array_equal(a.x, c.x)


def test_sample_replacement():
    model = standard_model(3)
    z = np.array([4.0, -2.0, 1.0])
    full = sample_replacement([0, 1, 2], z, model, substream(5, 5))
    assert np.array_equal(full, z)
    # an empty pattern reproduces the plain model draw
    y0 = model.sample(1, substream(5, 6))[0]
    assert np.array_equal(sample_replacement([], z, model, substream(5, 6)), y0)
    one = sample_replacement([1], z, model, substream(5, 7))
    assert one[1] == -2.0
    assert not np.array_equal(one[[0, 2]], z[[0, 2]])
    with pytest.raises(ContaminationError):
        sample_replacement([3], z, model, substream(5, 8))
    with pytest.raises(ContaminationError):
        sample_replacement([0], np.zeros(2), model, substream(5, 9))


# ---------------------------------------------------------------------------
# dataset files

def test_dataset_roundtrip(tmp_path):
    model = standard_model(2)
    spec = ContaminationSpec("ficm", 0.2, outlier=PointMass((7.0, 7.0)))
    data = sample_contaminated(model, spec, 25, seed=3)
    path = tmp_path / "sample.csv"
    write_dataset(path, data, spec=spec, seed=3)
    x, b, meta = read_dataset(path)
    assert np.allclose(x, data.x)
    assert np.array_equal(b, data.b)
    assert meta["spec"]["model"] == "ficm"
    assert meta["seed"] == 3
    assert ContaminationSpec.from_dict(meta["spec"]) == spec


def test_dataset_without_indicators(tmp_path):
    data = sample_contaminated(standard_model(2), ContaminationSpec("ficm", 0.0), 10, seed=1)
    path = tmp_path / "plain.csv"
    write_dataset(path, data, include_indicators=False)
    x, b, meta = read_dataset(path)
    assert x.shape == (10, 2)
    assert b is None
    assert meta == {"columns": ["x1", "x2"], "d": 2, "n": 10}


def test_read_dataset_skips_blank_lines_and_keeps_every_bit(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x1,b1\n\n0.1,1\n\n-2.5e-300,0\n")
    x, b, meta = read_dataset(path)
    assert np.array_equal(x, [[0.1], [-2.5e-300]])
    assert np.array_equal(b, [[1], [0]]) and b.dtype == np.int8
    assert x.flags.writeable and meta is None


@pytest.mark.parametrize("text", [
    "",                              # empty file
    "x1,x2\n",                       # header only
    "x1,x2\n1.0,2.0\n3.0\n",         # ragged row
    "x1,x2\n1.0,2.0\n3.0,abc\n",     # non-numeric cell
    "b1,b2\n0,1\n",                  # no x columns
])
def test_read_dataset_rejects_malformed_tables(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidData):
        read_dataset(path)
