"""Contamination models for multivariate data.

A clean row Y is turned into an observed row X = (I - B) Y + B Z, where
B = diag(B_1, ..., B_d) holds 0/1 cell indicators and Z supplies the
replacement values.  Every model keeps the same marginal cell contamination
rate P(B_i = 1) = eps and differs only in the joint law of the indicators:

* ``fdcm``     -- all indicators equal: whole rows are replaced (prob eps).
* ``ficm``     -- indicators i.i.d. Bernoulli(eps): cells are hit independently.
* ``psicm``    -- with prob eps/(2-eps) the whole row, else i.i.d. Bernoulli(eps/2).
* ``pcicm-i``  -- with prob 1-gamma no cell, else i.i.d. Bernoulli(eps/gamma);
                  requires eps <= gamma.
* ``pcicm-ii`` -- with prob 1-sqrt(eps) no cell, else i.i.d. Bernoulli(sqrt(eps)).

Row i of a dataset draws from its own counter-based substream of the master
seed (see :mod:`oplab.rng`), so any row subset reproduces bit for bit no
matter how generation is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import EllipticalModel, InvalidData
from .rng import row_streams

MODELS = ("fdcm", "ficm", "psicm", "pcicm-i", "pcicm-ii")


class ContaminationError(ValueError):
    """Invalid contamination setup (bad rate, model name, or payload)."""


# ---------------------------------------------------------------------------
# Replacement-value generators.  values(y_cells, cols, normals) gives the
# replacement of the clean cells y_cells in columns cols; normals holds one
# standard normal per cell, drawn by sample_contaminated, and only
# GaussianShift reads it.

@dataclass(frozen=True)
class PointMass:
    """Every contaminated cell of coordinate j is set to z[j]."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in np.atleast_1d(self.z)))

    def values(self, y_cells: np.ndarray, cols: np.ndarray,
               normals: np.ndarray | None) -> np.ndarray:
        return np.asarray(self.z, dtype=float)[cols]

    def to_dict(self) -> dict:
        return {"kind": "point-mass", "z": list(self.z)}


@dataclass(frozen=True)
class GaussianShift:
    """Contaminated cells draw independent N(mean, var) values."""

    mean: float
    var: float = 1.0

    def __post_init__(self):
        if not self.var > 0:
            raise ContaminationError("outlier variance must be positive")

    def values(self, y_cells: np.ndarray, cols: np.ndarray,
               normals: np.ndarray | None) -> np.ndarray:
        return self.mean + math.sqrt(self.var) * normals

    def to_dict(self) -> dict:
        return {"kind": "gaussian-shift", "mean": float(self.mean), "var": float(self.var)}


@dataclass(frozen=True)
class AdditiveShift:
    """Contaminated cells keep their clean value plus a constant t."""

    t: float

    def values(self, y_cells: np.ndarray, cols: np.ndarray,
               normals: np.ndarray | None) -> np.ndarray:
        return y_cells + float(self.t)

    def to_dict(self) -> dict:
        return {"kind": "additive-shift", "t": float(self.t)}


def outlier_from_dict(d: dict):
    kind = d["kind"]
    if kind == "point-mass":
        return PointMass(tuple(d["z"]))
    if kind == "gaussian-shift":
        return GaussianShift(mean=d["mean"], var=d.get("var", 1.0))
    if kind == "additive-shift":
        return AdditiveShift(t=d["t"])
    raise ContaminationError(f"unknown outlier kind {kind!r}")


# ---------------------------------------------------------------------------
# The indicator law.

@dataclass(frozen=True)
class ContaminationSpec:
    """Joint law of the cell indicators plus the replacement-value generator."""

    model: str
    epsilon: float
    gamma: float | None = None
    outlier: object | None = None

    def __post_init__(self):
        model = str(self.model).lower()
        object.__setattr__(self, "model", model)
        if model not in MODELS:
            raise ContaminationError(f"unknown contamination model {self.model!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ContaminationError("cell contamination rate epsilon must lie in [0, 1]")
        if model == "pcicm-i":
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ContaminationError("pcicm-i requires a row-activity rate gamma in (0, 1]")
            if self.epsilon > self.gamma + 1e-12:
                raise ContaminationError("pcicm-i requires epsilon <= gamma")
        elif self.gamma is not None:
            raise ContaminationError(f"gamma is only meaningful for pcicm-i, not {model!r}")

    def mixture(self) -> tuple[float, str, float]:
        """Return (p_struct, struct_kind, cell_rate): with probability p_struct the
        row takes the structured pattern (all ones or all zeros), otherwise its
        cells are i.i.d. Bernoulli(cell_rate)."""
        eps = self.epsilon
        if self.model == "fdcm":
            return eps, "ones", 0.0
        if self.model == "ficm":
            return 0.0, "zeros", eps
        if self.model == "psicm":
            return eps / (2.0 - eps), "ones", eps / 2.0
        if self.model == "pcicm-i":
            return 1.0 - self.gamma, "zeros", eps / self.gamma
        # pcicm-ii
        root = math.sqrt(eps)
        return 1.0 - root, "zeros", root


def cell_count_pmf(spec: ContaminationSpec, d: int, k: int) -> float:
    """P(exactly k of the d cells in a row are contaminated)."""
    if not 0 <= k <= d:
        raise ContaminationError("cell count k must lie in 0..d")
    p_struct, struct_kind, cell_rate = spec.mixture()
    base = math.comb(d, k) * cell_rate**k * (1.0 - cell_rate) ** (d - k)
    if struct_kind == "ones":
        return (1.0 - p_struct) * base + (p_struct if k == d else 0.0)
    return (1.0 - p_struct) * base + (p_struct if k == 0 else 0.0)


# ---------------------------------------------------------------------------
# Dataset generation.

@dataclass(frozen=True)
class ContaminatedData:
    x: np.ndarray
    b: np.ndarray


def sample_contaminated(model: EllipticalModel, spec: ContaminationSpec, n: int,
                        seed: int) -> ContaminatedData:
    """Draw clean rows from the elliptical model, then contaminate them.

    Row i consumes one substream in a fixed order: the clean draw, the
    structural uniform (with probability p_struct the row takes the
    structured pattern, see ContaminationSpec.mixture), the d cell uniforms
    unless the row took the pattern, then a GaussianShift's normals, one per
    contaminated cell.  That keeps the dataset schedule-independent: row i is
    the same at any n.  The loop over rows only draws, into preallocated
    rows; the clean rows from their normals (EllipticalModel.transform_rows),
    the indicators and one values call for every contaminated cell are whole
    array operations on the draws, with the values a per-row pass would give.
    """
    if spec.outlier is None and spec.epsilon > 0.0:
        raise ContaminationError("contamination with epsilon > 0 needs an outlier generator")
    d, n = model.dim, int(n)
    p_struct, struct_kind, cell_rate = spec.mixture()
    # a row that takes the pattern draws no cell uniforms: -inf (every cell
    # hit) or inf (none) stands in for them under the test u < cell_rate
    pattern = -math.inf if struct_kind == "ones" else math.inf
    # GaussianShift is the one generator that reads normals: a row takes one
    # per contaminated cell, so its cells are counted in the loop
    gaussian = isinstance(spec.outlier, GaussianShift)
    z, u_cells, drawn = np.empty((n, d)), np.empty((n, d)), []
    for i, rng in enumerate(row_streams(seed, range(n))):
        rng.standard_normal(out=z[i])
        if rng.random() < p_struct:
            u_cells[i] = pattern
        else:
            rng.random(out=u_cells[i])
        if gaussian:
            k = np.count_nonzero(u_cells[i] < cell_rate)
            if k:
                drawn.append(rng.standard_normal(k))
    x = model.transform_rows(z)
    b = (u_cells < cell_rate).astype(np.int8)
    rows, cols = np.nonzero(b)  # row by row, and by column within a row
    if rows.size:
        normals = np.concatenate(drawn) if gaussian else None
        x[rows, cols] = spec.outlier.values(x[rows, cols], cols, normals)
    return ContaminatedData(x=x, b=b)


# ---------------------------------------------------------------------------
# Serialization: one CSV with columns x1..xd then b1..bd.

def write_dataset(path, data: ContaminatedData) -> None:
    n, d = data.x.shape
    header = [f"x{j + 1}" for j in range(d)] + [f"b{j + 1}" for j in range(d)]
    # repr of a Python float is its shortest round-trip form, and no cell
    # holds a character that the csv module would quote.  Rows go to Python
    # lists 64 at a time: a list holds each cell as an object, and the whole
    # table as lists left the process about 1 MB larger for the rest of a run
    x = np.asarray(data.x, dtype=float)
    lines = [",".join(header)]
    for lo in range(0, n, 64):
        b = np.asarray(data.b[lo:lo + 64], dtype=np.int64).tolist()
        lines += [",".join(map(repr, r + c)) for r, c in zip(x[lo:lo + 64].tolist(), b)]
    lines.append("")
    Path(path).write_text("\n".join(lines))


def read_dataset(path) -> np.ndarray:
    """The x1..xd columns of a dataset CSV, as an (n, d) float array.

    The header names the columns; a byte-order mark and spaces around the
    names are dropped.  Cells may be quoted, lines may end in CRLF, and blank
    lines are skipped.  InvalidData when the file is not a numeric table with
    x columns and at least one row; OSError when it is unreadable.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig") as fh:
            lines = iter(fh.readline, "")
            header = next((line for line in lines if line.strip()), "")
            names = [name.strip().strip('"') for name in header.split(",")]
            x_cols = [j for j, name in enumerate(names) if name.startswith("x")]
            start = fh.tell()
            if not x_cols or not any(line.strip() for line in lines):
                raise ValueError("no x1..xd columns or no data rows")
            fh.seek(start)
            # read from the open file: a list of its lines would hold every
            # row as a str next to the parsed table
            arr = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None)
        if arr.shape[1] != len(names):
            raise ValueError("a row and the header differ in length")
    except ValueError as exc:
        raise InvalidData(f"{path}: {exc}") from None
    return arr[:, x_cols]
