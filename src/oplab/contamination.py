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

import array
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import EllipticalModel, InvalidData
from .rng import row_stream

MODELS = ("fdcm", "ficm", "psicm", "pcicm-i", "pcicm-ii")


class ContaminationError(ValueError):
    """Invalid contamination setup (bad rate, model name, or payload)."""


# ---------------------------------------------------------------------------
# Replacement-value generators.

@dataclass(frozen=True)
class PointMass:
    """Every contaminated cell of coordinate j is set to z[j]."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in np.atleast_1d(self.z)))

    def values(self, y_cells: np.ndarray, cols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
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

    def values(self, y_cells: np.ndarray, cols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, math.sqrt(self.var), size=cols.size)

    def to_dict(self) -> dict:
        return {"kind": "gaussian-shift", "mean": float(self.mean), "var": float(self.var)}


@dataclass(frozen=True)
class AdditiveShift:
    """Contaminated cells keep their clean value plus a constant t."""

    t: float

    def values(self, y_cells: np.ndarray, cols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
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

    def to_dict(self) -> dict:
        d = {"model": self.model, "epsilon": float(self.epsilon)}
        if self.gamma is not None:
            d["gamma"] = float(self.gamma)
        if self.outlier is not None:
            d["outlier"] = self.outlier.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ContaminationSpec":
        out = outlier_from_dict(d["outlier"]) if d.get("outlier") else None
        return cls(model=d["model"], epsilon=d["epsilon"], gamma=d.get("gamma"), outlier=out)


def sample_indicators(spec: ContaminationSpec, d: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the 0/1 indicator vector for a row."""
    p_struct, struct_kind, cell_rate = spec.mixture()
    if rng.random() < p_struct:
        fill = 1 if struct_kind == "ones" else 0
        return np.full(d, fill, dtype=np.int8)
    return (rng.random(d) < cell_rate).astype(np.int8)


def cell_count_pmf(spec: ContaminationSpec, d: int, k: int) -> float:
    """P(exactly k of the d cells in a row are contaminated)."""
    if not 0 <= k <= d:
        raise ContaminationError("cell count k must lie in 0..d")
    eps = spec.epsilon
    if spec.model == "fdcm":
        if k == 0:
            return 1.0 - eps if d > 0 else 1.0
        if k == d:
            # at d = 0 the two branches coincide; guarded above
            return eps if d > 0 else 1.0
        return 0.0
    p_struct, struct_kind, cell_rate = spec.mixture()
    base = math.comb(d, k) * cell_rate**k * (1.0 - cell_rate) ** (d - k)
    if struct_kind == "ones":
        return (1.0 - p_struct) * base + (p_struct if k == d else 0.0)
    return (1.0 - p_struct) * base + (p_struct if k == 0 else 0.0)


def clean_case_prob(spec: ContaminationSpec, d: int) -> float:
    """Probability that a row is entirely clean."""
    return cell_count_pmf(spec, d, 0)


# ---------------------------------------------------------------------------
# Dataset generation.

@dataclass(frozen=True)
class ContaminatedData:
    x: np.ndarray
    b: np.ndarray


def _contaminate_row(y_row: np.ndarray, spec: ContaminationSpec,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    bi = sample_indicators(spec, y_row.size, rng)
    xi = y_row.copy()
    cols = np.flatnonzero(bi)
    if cols.size:
        xi[cols] = spec.outlier.values(y_row[cols], cols, rng)
    return xi, bi


def contaminate(y: np.ndarray, spec: ContaminationSpec, seed: int) -> ContaminatedData:
    """Apply the contamination spec to clean rows y; X = (I - B) Y + B Z.

    Row i consumes only its own substream: first the indicator draw, then the
    replacement values for its contaminated cells.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ContaminationError("expected an (n, d) array of clean rows")
    if spec.outlier is None and spec.epsilon > 0.0:
        raise ContaminationError("contamination with epsilon > 0 needs an outlier generator")
    n, d = y.shape
    x = np.empty_like(y)
    b = np.zeros((n, d), dtype=np.int8)
    for i in range(n):
        x[i], b[i] = _contaminate_row(y[i], spec, row_stream(seed, i))
    return ContaminatedData(x=x, b=b)


def sample_contaminated(model: EllipticalModel, spec: ContaminationSpec, n: int,
                        seed: int) -> ContaminatedData:
    """Draw clean rows from the elliptical model, then contaminate them.

    Row i consumes one substream in a fixed order (clean draw, indicators,
    replacement values), keeping the dataset schedule-independent.
    """
    if spec.outlier is None and spec.epsilon > 0.0:
        raise ContaminationError("contamination with epsilon > 0 needs an outlier generator")
    d = model.dim
    x = np.empty((int(n), d))
    b = np.zeros((int(n), d), dtype=np.int8)
    for i in range(int(n)):
        rng = row_stream(seed, i)
        y_row = model.sample(1, rng)[0]
        x[i], b[i] = _contaminate_row(y_row, spec, rng)
    return ContaminatedData(x=x, b=b)


def sample_replacement(coords, z, model: EllipticalModel, rng: np.random.Generator) -> np.ndarray:
    """One draw of Y ~ model with the coordinates in `coords` overwritten by z."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != model.dim:
        raise ContaminationError("replacement point z must have the model dimension")
    idx = np.asarray(sorted(set(int(i) for i in coords)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= model.dim):
        raise ContaminationError("replacement coordinates out of range")
    y = model.sample(1, rng)[0]
    y[idx] = z[idx]
    return y


# ---------------------------------------------------------------------------
# Serialization: CSV data with x1..xd (and optional b1..bd) plus a JSON sidecar.

def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_dataset(path, data: ContaminatedData, spec: ContaminationSpec | None = None,
                  seed: int | None = None, include_indicators: bool = True) -> None:
    path = Path(path)
    n, d = data.x.shape
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"x{j + 1}" for j in range(d)]
    if include_indicators:
        header += [f"b{j + 1}" for j in range(d)]
    writer.writerow(header)
    for i in range(n):
        row = [repr(float(v)) for v in data.x[i]]
        if include_indicators:
            row += [str(int(v)) for v in data.b[i]]
        writer.writerow(row)
    path.write_text(buf.getvalue())
    meta = {"n": n, "d": d, "columns": header}
    if spec is not None:
        meta["spec"] = spec.to_dict()
    if seed is not None:
        meta["seed"] = int(seed)
    _meta_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_dataset(path) -> tuple[np.ndarray, np.ndarray | None, dict | None]:
    """Read a dataset CSV.  InvalidData when it is not a numeric table with a
    header naming x1..xd and at least one row; OSError when unreadable."""
    path = Path(path)
    try:
        # parse row by row into packed doubles: holding every cell as a str
        # and then a float object costs ~80 bytes a cell, and how much of it
        # the allocator hands back afterwards varies from run to run
        values = array.array("d")
        with path.open(newline="") as fh:
            rows = (row for row in csv.reader(fh) if row)
            header = next(rows, [])
            for row in rows:
                if len(row) != len(header):
                    raise ValueError("a row and the header differ in length")
                values.extend(map(float, row))
        x_cols = [j for j, name in enumerate(header) if name.startswith("x")]
        b_cols = [j for j, name in enumerate(header) if name.startswith("b")]
        if not x_cols or not values:
            raise ValueError("no x1..xd columns or no data rows")
        arr = np.frombuffer(values, dtype=float).reshape(-1, len(header))
    except (ValueError, csv.Error) as exc:
        raise InvalidData(f"{path}: {exc}") from None
    x = arr[:, x_cols]
    b = arr[:, b_cols].astype(np.int8) if b_cols else None
    meta = None
    mp = _meta_path(path)
    if mp.exists():
        meta = json.loads(mp.read_text())
    return x, b, meta
