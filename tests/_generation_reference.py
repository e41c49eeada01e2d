"""Data generation with one freshly built generator per row.

The package draws every row of a dataset from one Philox bit generator whose
counter it resets to the row's block (oplab.rng.row_streams).  This module
keeps the direct form: a new Philox(key=seed) advanced by row * 2^64 for each
row, so the two can be checked against each other bit for bit.  Each row
is contaminated as first written, indicators then replacement values one
row at a time, the values computed here from the outlier's parameters (a
GaussianShift row draws rng.normal), where the package draws in its row loop
and derives indicators and values from whole arrays.
It also keeps the dataset CSV writer as first written, cell by cell through
csv.writer, as the byte oracle for write_dataset.
"""

import csv
import io
import math

import numpy as np

from oplab.contamination import ContaminatedData, ContaminationSpec, GaussianShift, PointMass


def sample_indicators(spec: ContaminationSpec, d: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the 0/1 indicator vector for a row."""
    p_struct, struct_kind, cell_rate = spec.mixture()
    if rng.random() < p_struct:
        fill = 1 if struct_kind == "ones" else 0
        return np.full(d, fill, dtype=np.int8)
    return (rng.random(d) < cell_rate).astype(np.int8)


def _contaminate_row(y_row: np.ndarray, spec: ContaminationSpec,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    bi = sample_indicators(spec, y_row.size, rng)
    xi = y_row.copy()
    cols = np.flatnonzero(bi)
    if cols.size:
        xi[cols] = _replacement(spec.outlier, y_row[cols], cols, rng)
    return xi, bi


def _replacement(outlier, y_cells, cols, rng):
    if isinstance(outlier, GaussianShift):
        return rng.normal(outlier.mean, math.sqrt(outlier.var), cols.size)
    if isinstance(outlier, PointMass):
        return np.asarray(outlier.z)[cols]
    return y_cells + outlier.t


def fresh_row_stream(seed, row):
    bg = np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    bg.advance(int(row) << 64)
    return np.random.Generator(bg)


def sample_row(model, spec, rng):
    """One generated row in the package's draw order: clean row, indicators,
    replacement values."""
    return _contaminate_row(model.sample(1, rng)[0], spec, rng)


def sample_contaminated(model, spec, n, seed):
    x = np.empty((n, model.dim))
    b = np.zeros((n, model.dim), dtype=np.int8)
    for i in range(n):
        x[i], b[i] = sample_row(model, spec, fresh_row_stream(seed, i))
    return ContaminatedData(x=x, b=b)


def contaminate(y, spec, seed):
    x = np.empty_like(y)
    b = np.zeros(y.shape, dtype=np.int8)
    for i in range(y.shape[0]):
        x[i], b[i] = _contaminate_row(y[i], spec, fresh_row_stream(seed, i))
    return ContaminatedData(x=x, b=b)


def dataset_csv(data):
    """The dataset CSV text as first written: csv.writer, one row at a time,
    repr(float(v)) per data cell and str(int(v)) per indicator."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = data.x.shape[1]
    writer.writerow([f"x{j + 1}" for j in range(d)] + [f"b{j + 1}" for j in range(d)])
    for i in range(data.x.shape[0]):
        writer.writerow([repr(float(v)) for v in data.x[i]] + [str(int(v)) for v in data.b[i]])
    return buf.getvalue()
