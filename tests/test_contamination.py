"""Indicator laws, replacement generators, dataset round trips."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (MODELS, AdditiveShift, ContaminationError,
                   ContaminationSpec, EllipticalModel, GaussianShift, InvalidData,
                   PointMass, cell_count_pmf, equicorrelated_model, outlier_from_dict,
                   read_dataset, sample_contaminated, standard_model,
                   write_dataset)
from oplab.cli import main
from oplab.rng import row_stream, row_streams, substream

import _generation_reference as gen_ref
from _contaminate_reference import contaminate


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


# ---------------------------------------------------------------------------
# cell-count law

def test_cell_counts_ficm_example():
    spec = _spec("ficm", 0.3)
    assert cell_count_pmf(spec, 2, 1) == pytest.approx(0.42, abs=1e-12)
    assert cell_count_pmf(spec, 2, 0) == pytest.approx(0.49, abs=1e-12)
    assert cell_count_pmf(spec, 2, 2) == pytest.approx(0.09, abs=1e-12)


def test_cell_counts_fdcm_all_or_nothing():
    # exactly 1 - eps on no cell, eps on all d, 0.0 between; 1.0 at d = 0
    for eps in (0.0, 5e-324, 1e-300, 0.1, 0.3, 0.5, 0.7, 1.0):
        spec = _spec("fdcm", eps)
        assert cell_count_pmf(spec, 0, 0) == 1.0, eps
        for d in (1, 2, 7, 39):
            law = [cell_count_pmf(spec, d, k) for k in range(d + 1)]
            assert law == [1.0 - eps] + [0.0] * (d - 1) + [eps], (eps, d)


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
    assert cell_count_pmf(_spec("fdcm", 0.3), 9, 0) == pytest.approx(0.7)
    p14 = cell_count_pmf(_spec("ficm", 0.05), 14, 0)
    assert p14 == pytest.approx(0.95**14, abs=1e-12)
    assert p14 < 0.5 < cell_count_pmf(_spec("ficm", 0.05), 13, 0)
    p69 = cell_count_pmf(_spec("ficm", 0.01), 69, 0)
    assert p69 == pytest.approx(0.99**69, abs=1e-12)
    assert p69 < 0.5 < cell_count_pmf(_spec("ficm", 0.01), 68, 0)


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
    got = pm.values(np.zeros(2), np.array([2, 0]), None)
    assert np.array_equal(got, [2.0, 5.0])
    assert outlier_from_dict(pm.to_dict()) == pm


def test_gaussian_shift_moments_and_validation():
    gs = GaussianShift(mean=10.0, var=4.0)
    normals = substream(9, 9).standard_normal(200_000)
    draws = gs.values(np.zeros(200_000), np.arange(200_000), normals)
    assert draws.mean() == pytest.approx(10.0, abs=0.02)
    assert draws.var() == pytest.approx(4.0, rel=0.02)
    with pytest.raises(ContaminationError):
        GaussianShift(mean=0.0, var=0.0)
    assert outlier_from_dict(gs.to_dict()) == gs


def test_additive_shift_values():
    sh = AdditiveShift(t=7.0)
    y = np.array([1.0, -2.0])
    assert np.array_equal(sh.values(y, np.array([0, 1]), None), y + 7.0)
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


OUTLIERS = (AdditiveShift(t=10.0), PointMass((4.0, -3.0, 2.0)),
            GaussianShift(mean=5.0, var=2.0))
FAR_ROWS = (0, 5, 123456, 2**40, 2**63 + 7)


@pytest.mark.parametrize("model", MODELS)
def test_row_streams_reset_to_the_fresh_row_generators(model):
    # a reset Philox must equal a fresh one advanced to the row, at small and
    # huge row indices; this fails if numpy changes Philox's state layout
    normal = standard_model(3)
    for outlier in OUTLIERS:
        spec = _spec(model, 0.6, outlier=outlier)
        for seed in (0, 11, 2**64 + 5):
            got = [gen_ref.sample_row(normal, spec, rng)
                   for rng in row_streams(seed, FAR_ROWS)]
            for row, (x, b) in zip(FAR_ROWS, got):
                x_ref, b_ref = gen_ref.sample_row(normal, spec,
                                                  gen_ref.fresh_row_stream(seed, row))
                assert np.array_equal(x, x_ref), (outlier, seed, row)
                assert np.array_equal(b, b_ref), (outlier, seed, row)
    for row in FAR_ROWS:
        assert np.array_equal(row_stream(7, row).random(9),
                              gen_ref.fresh_row_stream(7, row).random(9))


def test_row_streams_clear_the_buffered_half_word():
    # a 32-bit draw leaves half a 64-bit word buffered; the next row must not see it
    rows = (3, 4, 2**40)
    for row, rng in zip(rows, row_streams(5, rows)):
        ref = gen_ref.fresh_row_stream(5, row)
        assert np.array_equal(rng.integers(0, 2**31, size=3, dtype=np.uint32),
                              ref.integers(0, 2**31, size=3, dtype=np.uint32))
        assert np.array_equal(rng.normal(size=4), ref.normal(size=4))


@pytest.mark.parametrize("model", MODELS)
def test_generation_matches_the_per_row_generators(model, tmp_path):
    normal = standard_model(3)
    y = substream(3, 2).normal(size=(200, 3))
    for k, outlier in enumerate(OUTLIERS):
        spec = _spec(model, 0.3, outlier=outlier)
        got, ref = sample_contaminated(normal, spec, 300, seed=k), \
            gen_ref.sample_contaminated(normal, spec, 300, seed=k)
        assert np.array_equal(got.x, ref.x) and np.array_equal(got.b, ref.b), outlier
        got, ref = contaminate(y, spec, seed=k), gen_ref.contaminate(y, spec, seed=k)
        assert np.array_equal(got.x, ref.x) and np.array_equal(got.b, ref.b), outlier
    # non-identity Cholesky factors, one, five and fifteen columns, for every
    # outlier kind: the clean rows are one stacked product of the normals,
    # which must be each row's own product
    def wide(d):
        return (AdditiveShift(t=10.0), PointMass(tuple(np.linspace(-7.0, 4.0, d))),
                GaussianShift(mean=5.0, var=2.0))

    def general(d):
        a = substream(4, d).normal(size=(d, d))
        return EllipticalModel(substream(5, d).normal(size=d), a @ a.T + 0.5 * np.eye(d))

    for clean, outliers in ((equicorrelated_model(3, 0.5), OUTLIERS), (standard_model(5), wide(5)),
                            (general(1), wide(1)), (general(15), wide(15))):
        for k, outlier in enumerate(outliers):
            spec = _spec(model, 0.3, outlier=outlier)
            got, ref = sample_contaminated(clean, spec, 300, seed=k), \
                gen_ref.sample_contaminated(clean, spec, 300, seed=k)
            assert np.array_equal(got.x, ref.x) and np.array_equal(got.b, ref.b), \
                (clean.dim, outlier)
    # the simulate CSV is the per-row generators' dataset, byte for byte
    argv = ["simulate", "--model", model, "--eps", "0.3", "--d", "3", "--n", "400",
            "--seed", "9", "--point", "4,-3,2", "--out", str(tmp_path / "sim.csv")]
    if model == "pcicm-i":
        argv += ["--gamma", "0.5"]
    assert main(argv) == 0
    spec = _spec(model, 0.3, outlier=PointMass((4.0, -3.0, 2.0)))
    write_dataset(tmp_path / "ref.csv", gen_ref.sample_contaminated(normal, spec, 400, seed=9))
    assert (tmp_path / "sim.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("model", MODELS)
def test_rows_do_not_depend_on_n(model):
    # rows 0..499 drawn at n = 500 are those rows drawn at n = 2,000, bit for bit
    clean = equicorrelated_model(5, 0.5)
    for outlier in (AdditiveShift(t=10.0), PointMass((4.0, -3.0, 2.0, 0.5, -7.0)),
                    GaussianShift(mean=5.0, var=2.0)):
        spec = _spec(model, 0.05, outlier=outlier)
        head = sample_contaminated(clean, spec, 500, seed=3)
        full = sample_contaminated(clean, spec, 2_000, seed=3)
        assert np.array_equal(head.x, full.x[:500]), outlier
        assert np.array_equal(head.b, full.b[:500]), outlier


# ---------------------------------------------------------------------------
# dataset files

def test_dataset_roundtrip(tmp_path):
    model = standard_model(2)
    spec = ContaminationSpec("ficm", 0.2, outlier=PointMass((7.0, 7.0)))
    data = sample_contaminated(model, spec, 25, seed=3)
    path = tmp_path / "sample.csv"
    write_dataset(path, data)
    x = read_dataset(path)
    assert np.array_equal(x, data.x) and x.flags.writeable


@pytest.mark.parametrize("n", [1, 500, 2000])
def test_write_dataset_matches_the_csv_writer_bytes(tmp_path, n):
    spec = ContaminationSpec("ficm", 0.2, outlier=AdditiveShift(t=10.0))
    data = sample_contaminated(standard_model(4), spec, n, seed=n)
    # float reprs of every shape: signed zero, subnormal, huge, integral, short
    special = [-0.0, 5e-324, -1.7976931348623157e308, 3.0, 0.1, 1e16, -2.5e-7, 123456.789]
    data.x.flat[:len(special)] = special[:data.x.size]
    path = tmp_path / "data.csv"
    write_dataset(path, data)
    assert path.read_bytes() == gen_ref.dataset_csv(data).encode()


def test_simulate_writes_the_csv_and_its_config_only(tmp_path):
    assert main(["simulate", "--n", "5", "--out", str(tmp_path / "data.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.config.json", "data.csv"]


def test_read_dataset_skips_blank_lines_and_keeps_every_bit(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x1,b1\n\n0.1,1\n\n-2.5e-300,0\n")
    x = read_dataset(path)
    assert np.array_equal(x, [[0.1], [-2.5e-300]]) and x.flags.writeable


@pytest.mark.parametrize("text,expected", [
    ('"x1","x2"\n"0.1","-2"\n3,"4e-320"\n', [[0.1, -2.0], [3.0, 4e-320]]),  # quoted cells
    ("x1,x2\r\n0.1,2\r\n3,4\r\n", [[0.1, 2.0], [3.0, 4.0]]),  # CRLF line ends
    ("x1,x2\n 0.1 , 2\n3 ,\t4 \n", [[0.1, 2.0], [3.0, 4.0]]),  # spaced numbers
    ("\ufeffx1,x2\n1,2\n", [[1.0, 2.0]]),  # a byte-order mark, as spreadsheets write
    ("x1, x2\n1,2\n", [[1.0, 2.0]]),  # spaced header names
])
def test_read_dataset_accepts_quotes_crlf_spaces_and_a_byte_order_mark(tmp_path, text, expected):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    assert read_dataset(path).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("text", [
    "",                              # empty file
    "x1,x2\n",                       # header only
    "x1,x2\n\n\n",                   # header and blank lines
    "x1,x2\n1.0,2.0\n3.0\n",         # ragged row
    "x1,x2\n1,2,3\n",                # a row wider than the header
    "x1,x2\n1.0,2.0\n3.0,abc\n",     # non-numeric cell
    "b1,b2\n0,1\n",                  # no x columns
])
def test_read_dataset_rejects_malformed_tables(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    # refused outright, without numpy's "input contained no data" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidData):
            read_dataset(path)
