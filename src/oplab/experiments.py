"""Desk-scale contamination experiments with reproducible CSV/JSON artifacts.

Every experiment returns an ExperimentReport: one or more named tables and
a summary of pass/fail assertions.  Reports serialize deterministically
(floats via repr, JSON sorted), and all randomness flows through per-cell
substreams keyed by the master seed, so a rerun with the same arguments
reproduces every byte regardless of thread count.  The arguments themselves
are recorded by the caller: the command line writes them to config.json
before an experiment starts.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .contamination import (ContaminationSpec, GaussianShift, cell_count_pmf,
                            sample_contaminated)
from .estimators import ESTIMATORS, EstimationError
from .influence import InfluenceContext, MonteCarlo, _ficm_core, ges, influence
from .numerics import SingularScatter, standard_model
from .rng import substream, substream_seed

# paper-quoted two-column mixing weights for the propagation example, and the
# rows of its figure-sized sample
PROPAGATION_TRANSFORM = ((0.64, 0.77), (0.78, 0.62))
_FIGURE_ROWS = 20

# the ways a fit can fail on its data; anything else is a programming error
_FIT_FAILURES = (EstimationError, SingularScatter, np.linalg.LinAlgError)


@dataclass
class ExperimentReport:
    """Named tables and assertion results of one run.

    The report holds no record of its arguments; the command line writes
    those once, as config.json in the same run directory, before computing.
    """

    tables: dict[str, tuple[list[str], list[tuple]]]
    summary: dict = field(default_factory=dict)

    def write(self, run_dir: str) -> None:
        """Write results.csv, summary.json and any extra tables into run_dir."""
        os.makedirs(run_dir, exist_ok=True)
        for table, (header, rows) in self.tables.items():
            fname = "results.csv" if table == "results" else f"{table}.csv"
            write_csv(os.path.join(run_dir, fname), header, rows)
        write_json(os.path.join(run_dir, "summary.json"), self.summary)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)!r}")


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _parallel_map(fn, items, threads: int) -> list:
    """Order-preserving map; thread count never changes the result values."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Breakdown bound and clean-case arithmetic.

def epsilon0(delta: float, d: int) -> float:
    """Cellwise breakdown upper bound 1 - (1/2 - delta)^(1/d)."""
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 1/2)")
    if d < 1:
        raise ValueError("dimension must be positive")
    return 1.0 - (0.5 - delta) ** (1.0 / d)


def table1(d_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 10, 15, 20, 100),
           delta: float = 0.0) -> ExperimentReport:
    """Breakdown upper bounds over a dimension grid, with rounded display values."""
    rows = [(d, epsilon0(delta, d), round(epsilon0(delta, d), 2)) for d in d_grid]
    expected = {1: 0.50, 2: 0.29, 3: 0.21, 4: 0.16, 5: 0.13,
                10: 0.07, 15: 0.05, 20: 0.03, 100: 0.01}
    checks = [_assertion(f"round(eps0(0,{d}),2)=={expected[d]}",
                         abs(r - expected[d]) < 1e-12, f"got {r}")
              for d, _, r in rows if delta == 0.0 and d in expected]
    return ExperimentReport(
        tables={"results": (["d", "eps0", "eps0_2dp"], rows)},
        summary={"assertions": checks})


# ---------------------------------------------------------------------------
# Propagation demonstration (two columns, cellwise shift outliers).

def propagation_demo(n: int = 20_000, eps: float = 0.3, shift_mean: float = 10.0,
                     shift_var: float = 1.0, seed: int = 2045) -> ExperimentReport:
    """Cellwise-contaminated bivariate data before and after mixing columns
    by PROPAGATION_TRANSFORM.

    Emits medians of the raw and mixed columns, the 0/1/2 contaminated-cell
    row fractions, histogram payloads, and a 20-row figure sample.
    """
    tmat = np.asarray(PROPAGATION_TRANSFORM)
    model = standard_model(2)
    spec = ContaminationSpec(model="ficm", epsilon=eps,
                             outlier=GaussianShift(mean=shift_mean, var=shift_var))
    data = sample_contaminated(model, spec, n, seed)
    x = data.x
    mixed = x @ tmat.T
    counts = data.b.sum(axis=1)
    frac = np.array([(counts == k).mean() for k in (0, 1, 2)])
    med_x = np.median(x, axis=0)
    med_l = np.median(mixed, axis=0)

    bins = np.linspace(-4.0, 16.0, 41)
    hist_rows = []
    hx, _ = np.histogram(x[:, 0], bins=bins)
    hl, _ = np.histogram(mixed[:, 0], bins=bins)
    for i in range(len(bins) - 1):
        hist_rows.append((bins[i], bins[i + 1], int(hx[i]), int(hl[i])))

    fig = sample_contaminated(model, spec, _FIGURE_ROWS, seed + 1)
    fig_mixed = fig.x @ tmat.T
    sample_rows = [tuple(fig.x[i]) + tuple(fig_mixed[i]) + tuple(int(v) for v in fig.b[i])
                   for i in range(_FIGURE_ROWS)]

    # 0.01 at the default n, 2.8 standard errors of frac0, and as many at any n
    band = 0.01 * (20_000 / n) ** 0.5
    law = [cell_count_pmf(spec, 2, k) for k in (0, 1, 2)]
    checks = [_assertion(f"frac{k} within {band:.3g} of law", abs(frac[k] - law[k]) <= band,
                         f"{frac[k]:.4f} vs {law[k]:.4f}") for k in (0, 1, 2)]
    checks += [
        _assertion("median of mixed col 1 exceeds 1.0", med_l[0] > 1.0,
                   f"{med_l[0]:.4f}"),
        _assertion("median of raw col 1 stays below 0.6", med_x[0] < 0.6,
                   f"{med_x[0]:.4f}"),
    ]
    results = [("median_x1", med_x[0]), ("median_x2", med_x[1]),
               ("median_l1", med_l[0]), ("median_l2", med_l[1]),
               ("frac_0_cells", frac[0]), ("frac_1_cell", frac[1]),
               ("frac_2_cells", frac[2])]
    return ExperimentReport(
        tables={"results": (["metric", "value"], results),
                "histogram": (["bin_left", "bin_right", "count_x1", "count_l1"],
                              hist_rows),
                "sample": (["x1", "x2", "l1", "l2", "b1", "b2"], sample_rows)},
        summary={"assertions": checks})


# ---------------------------------------------------------------------------
# Location-bias sweep over the contamination size.

def bias_sweep(d: int = 15, n: int = 100, eps: float = 0.15,
               t_grid: tuple[float, ...] | None = None,
               estimators: tuple[str, ...] = ("mean", "coord_median", "mcd", "mve"),
               replications: int = 20, seed: int = 7, threads: int = 1,
               mcd_starts: int = 100, mve_trials: int = 200) -> ExperimentReport:
    """Largest componentwise location bias against the outlier size t.

    Each replication draws one clean sample and one cellwise indicator mask;
    every t reuses them, so curves vary in t only through the contamination
    itself.  Emits per-cell rows plus two aggregate curves per estimator:
    the replication mean of max_j |T_j| and the max_j of the replication-mean
    components (the bias curve proper).
    """
    if t_grid is None:
        t_grid = tuple(float(t) for t in range(0, 101, 5))
    # the nondecreasing-bias checks read the curves in grid order
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    model = standard_model(d)
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators: {unknown}")
    # losses are calibrated once per run, not once per fit; other estimators
    # keep their registered starts
    rhos = {est: ESTIMATORS[est].rho(d) for est in estimators}
    starts = {"mcd": mcd_starts, "mve": mve_trials}

    def run_rep(rep: int) -> list:
        rng = substream(seed, 23, rep)
        y = model.sample(n, rng)
        b = rng.random((n, d)) < eps
        out = []
        # one subset-draw seed per replication: estimator randomness is shared
        # across the t grid, so curves move only through the contamination
        est_seed = substream_seed(seed, 29, rep)
        for t in t_grid:
            x = y + t * b
            for est in estimators:
                try:
                    mu = ESTIMATORS[est](x, rho=rhos[est], starts=starts.get(est),
                                         seed=est_seed).mu
                    out.append((t, est, rep, float(np.max(np.abs(mu))),
                                mu.copy()))
                except _FIT_FAILURES:  # record failures, keep sweeping
                    out.append((t, est, rep, float("nan"), None))
        return out

    cells = [row for rows in _parallel_map(run_rep, list(range(replications)),
                                           threads) for row in rows]
    cells.sort(key=lambda r: (r[0], r[1], r[2]))
    results = [(t, est, rep, maxbias) for t, est, rep, maxbias, _ in cells]

    curves = []
    curve_map: dict[tuple[float, str], tuple[float, float]] = {}
    for t in t_grid:
        for est in estimators:
            sel = [c for c in cells if c[0] == t and c[1] == est and c[4] is not None]
            if not sel:
                continue
            mean_of_max = float(np.mean([c[3] for c in sel]))
            mean_components = np.mean([c[4] for c in sel], axis=0)
            max_of_mean = float(np.max(np.abs(mean_components)))
            curves.append((t, est, mean_of_max, max_of_mean))
            curve_map[(t, est)] = (mean_of_max, max_of_mean)

    checks = []

    def curve(name: str, est: str, ts, col: int) -> list[float] | None:
        """Column col of the curve at ts, or None after failing check name
        with the cells where every fit failed."""
        gone = [(t, est) for t in ts if (t, est) not in curve_map]
        if gone:
            checks.append(_assertion(name, False, f"every fit failed at (t, estimator) {gone}"))
            return None
        return [curve_map[(t, est)][col] for t in ts]

    name = "coord_median mean max-bias < 1.0 at all t"
    if "coord_median" in estimators \
            and (vals := curve(name, "coord_median", t_grid, 0)) is not None:
        worst = max(vals)
        checks.append(_assertion(name, worst < 1.0, f"worst {worst:.4f}"))
    for est in ("mcd", "mve"):
        if est not in estimators:
            continue
        tail = [t for t in t_grid if t >= 10.0]
        name = f"{est} mean max-bias nondecreasing for t >= 10"
        if (vals := curve(name, est, tail, 0)) is not None:
            mono = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
            checks.append(_assertion(name, mono, f"{[round(v, 3) for v in vals]}"))
        name = f"{est} mean max-bias > 5 at t=100"
        if 100.0 in t_grid and (vals := curve(name, est, [100.0], 0)) is not None:
            checks.append(_assertion(name, vals[0] > 5.0, f"{vals[0]:.3f}"))
    tail = [t for t in t_grid if t >= 5.0]
    name = "sample-mean bias within 20% of eps*t (t>=5)"
    if "mean" in estimators and tail and (biases := curve(name, "mean", tail, 1)) is not None:
        worst = max(abs(bias - eps * t) / (eps * t) for bias, t in zip(biases, tail))
        checks.append(_assertion(name, worst <= 0.20, f"worst rel {worst:.4f}"))

    return ExperimentReport(
        tables={"results": (["t", "estimator", "replication", "max_abs_bias"],
                            results),
                "curves": (["t", "estimator", "mean_of_max", "max_of_mean"],
                           curves)},
        summary={"assertions": checks})


# ---------------------------------------------------------------------------
# Gross-error sensitivity against the dimension.

def ges_vs_dim(d_grid: tuple[int, ...] = (1, 2, 3, 5, 8, 10, 12, 15),
               bp: float = 0.5, n_draws: int = 100_000, seed: int = 31,
               threads: int = 1) -> ExperimentReport:
    """Four sensitivity curves: {multivariate, coordinatewise} x {fdcm, ficm}.

    Tuning constants come from calibrate_c at each dimension for the
    multivariate functional and at dimension one for the coordinatewise one,
    both on the scaled-distance convention.  On the standard model both
    multivariate GES are 1-D maximizations (ges): the fdcm one over the
    Mahalanobis radius, the ficm one over t h(t) on the diagonal, with the
    exact influence.  The coordinatewise curve is one value at every d and
    for both kinds: ges of row replacement on the univariate model.  The
    Monte Carlo core (n_draws draws) is checked against the exact influence
    at the ficm argmax.
    """
    rho1 = ESTIMATORS["coord_s"].rho(1, bp)
    coord_value = ges(InfluenceContext(standard_model(1), rho1, kind="fdcm")).value

    def run_dim(d: int) -> tuple[list[tuple], float]:
        """The rows of d, and the Monte Carlo core's largest gap to the exact
        influence at the ficm argmax, in units of its stderr plus
        1e-12 max |IF| / 4 (d = 1 has no noise)."""
        rho_d = ESTIMATORS["s"].rho(d, bp)
        model = standard_model(d)
        mc = MonteCarlo(n_draws=n_draws, seed=substream_seed(seed, 41, d))
        rows = []
        for kind in ("fdcm", "ficm"):
            ctx = InfluenceContext(model, rho_d, kind=kind, mc=mc)
            res = ges(ctx)
            rows.append((d, "multivariate-s", kind, res.value, rho_d.c))
            rows.append((d, "coordinatewise-s", kind, coord_value, rho1.c))
        exact = influence(res.argmax_z, ctx).value
        sampled = _ficm_core(res.argmax_z, ctx)
        sigma = sampled.stderr + 0.25e-12 * np.max(np.abs(exact))
        return rows, float(np.max(np.abs(sampled.value - exact) / sigma))

    per_dim = _parallel_map(run_dim, list(d_grid), threads)
    rows = sorted((r for rs, _ in per_dim for r in rs), key=lambda r: (r[0], r[1], r[2]))
    worst_z, worst_d = max((z, d) for (_, z), d in zip(per_dim, d_grid))

    def lookup(d, est, kind):
        return next(r[3] for r in rows if r[:3] == (d, est, kind))

    checks = []
    if 1 in d_grid:
        vals = [lookup(1, e, k) for e in ("multivariate-s", "coordinatewise-s")
                for k in ("fdcm", "ficm")]
        spread = max(vals) - min(vals)
        checks.append(_assertion("all four curves coincide at d=1",
                                 spread <= 0.02 * max(vals), f"spread {spread:.5f}"))
    coord_vals = [lookup(d, "coordinatewise-s", k)
                  for d in d_grid for k in ("fdcm", "ficm")]
    checks.append(_assertion("coordinatewise curves flat and model-independent",
                             max(coord_vals) - min(coord_vals) < 1e-9,
                             f"range {max(coord_vals) - min(coord_vals):.2e}"))
    for d in d_grid:
        if d >= 5:
            f, i = lookup(d, "multivariate-s", "fdcm"), lookup(d, "multivariate-s", "ficm")
            checks.append(_assertion(f"ficm above fdcm at d={d}", i > f,
                                     f"ficm {i:.3f} vs fdcm {f:.3f}"))
    checks.append(_assertion("ficm Monte Carlo core within 4 sigma of the exact "
                             "influence at the argmax", worst_z <= 4.0,
                             f"worst z {worst_z:.2f} at d={worst_d}"))

    return ExperimentReport(
        tables={"results": (["d", "estimator", "model", "ges", "c"], rows)},
        summary={"assertions": checks})


# ---------------------------------------------------------------------------
# Empirical breakdown against the Theorem 1 bound.

def empirical_breakdown(estimator: str = "mcd", d: int = 2,
                        eps_grid: tuple[float, ...] | None = None,
                        t_large: float = 1000.0, replications: int = 5,
                        n: int = 200, seed: int = 11, threshold: float = 10.0,
                        threads: int = 1, bp: float = 0.5,
                        mcd_starts: int = 100,
                        mve_trials: int = 200) -> ExperimentReport:
    """Smallest grid contamination rate whose mean max-bias clears a threshold.

    Cellwise contamination adds t_large to flagged cells.  Per replication the
    clean sample and one uniform array are fixed, indicators are nested across
    the rate grid, and the bias curve is reported with the theoretical bound.
    eps_star_hat is null when no grid rate breaks the estimator.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if eps_grid is None:
        eps_grid = tuple(round(0.02 * k, 2) for k in range(1, 21))
    if any(not 0.0 < e < 1.0 for e in eps_grid) \
            or any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly increasing rates in (0, 1)")
    model = standard_model(d)
    fit = ESTIMATORS[estimator]
    rho = fit.rho(d, bp)
    starts = {"mcd": mcd_starts, "mve": mve_trials}.get(estimator)

    def run_rep(rep: int) -> list[float]:
        rng = substream(seed, 37, rep)
        y = model.sample(n, rng)
        u = rng.random((n, d))
        biases = []
        for ei, eps in enumerate(eps_grid):
            x = y + t_large * (u < eps)
            try:
                mu = fit(x, rho=rho, bp=bp, starts=starts,
                         seed=substream_seed(seed, 43, ei, rep)).mu
                biases.append(float(np.max(np.abs(mu))))
            except _FIT_FAILURES:
                biases.append(float("inf"))  # estimator failure counts as broken
        return biases

    per_rep = _parallel_map(run_rep, list(range(replications)), threads)
    matrix = np.array(per_rep)
    mean_bias = matrix.mean(axis=0)
    rows = [(eps_grid[i], mean_bias[i]) + tuple(matrix[:, i])
            for i in range(len(eps_grid))]
    bound = epsilon0(0.0, d)
    eps_star_hat = None
    for i, eps in enumerate(eps_grid):
        if mean_bias[i] > threshold:
            eps_star_hat = eps
            break

    finite = np.where(np.isinf(mean_bias), np.nan, mean_bias)
    mono_ok = True
    for a, b in zip(finite, finite[1:]):
        if np.isnan(a) or np.isnan(b):
            continue
        if b < a - max(0.5, 0.1 * a):
            mono_ok = False
    checks = [_assertion("mean bias nondecreasing in eps (tolerant)", mono_ok,
                         f"{[round(float(v), 2) for v in finite]}")]
    if eps_star_hat is not None:
        checks.append(_assertion("eps_star_hat within bound + grid step",
                                 eps_star_hat <= bound + _grid_step(eps_grid) + 1e-12,
                                 f"{eps_star_hat} vs bound {bound:.4f}"))

    header = ["eps", "mean_max_bias"] + [f"rep{r + 1}" for r in range(replications)]
    return ExperimentReport(
        tables={"results": (header, rows)},
        summary={"assertions": checks, "eps_star_hat": eps_star_hat,
                 "bound": bound, "threshold": threshold})


def _grid_step(grid: tuple[float, ...]) -> float:
    if len(grid) < 2:
        return 0.0
    return float(max(b - a for a, b in zip(grid, grid[1:])))
