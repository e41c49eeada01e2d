"""Command line entry points.

One subcommand per artifact: dataset simulation, single-shot estimation,
influence surfaces, gross-error sensitivity searches, and the canned
experiments.  Every run resolves its defaults up front and writes the
resulting configuration as JSON before any computation starts, so a run can
be replayed from that file alone via --config.  Exit codes: 0 success,
1 usage error or unreadable, non-finite input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .contamination import (MODELS, ContaminationError, ContaminationSpec,
                            AdditiveShift, GaussianShift, PointMass,
                            outlier_from_dict, read_dataset,
                            sample_contaminated, write_dataset)
from .estimators import ESTIMATORS, EstimationError
from .experiments import (PROPAGATION_TRANSFORM, ExperimentReport, bias_sweep,
                          empirical_breakdown, ges_vs_dim, propagation_demo,
                          table1, write_json)
from .influence import GesSearch, InfluenceContext, MonteCarlo, ges, influence
from .numerics import (CONVENTIONS, CalibrationError, InvalidData, RhoSpec,
                       SingularScatter, default_c, equicorrelated_model,
                       standard_model)
from .svg import write_line_chart

# Anything the engines raise for bad values or failed fits maps to exit 2.
_NUMERIC_FAILURES = (EstimationError, CalibrationError, SingularScatter,
                     ContaminationError, ArithmeticError, ValueError,
                     np.linalg.LinAlgError)

_SEED_DEFAULTS = {"simulate": 7, "estimate": 0, "influence": 2024, "ges": 31,
                  "fig2": 31, "fig3": 2045, "fig4": 7, "breakdown": 11}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that surfaces grammar problems as exceptions instead of
    exiting with argparse's default status 2."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Small parsers for flag payloads.

def _parse_grid(text: str) -> list[float]:
    """start:stop:step with an inclusive endpoint; negatives allowed."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid {text!r} must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"grid {text!r} has a non-numeric part") from None
    if step <= 0:
        raise _UsageError("grid step must be positive")
    if stop < start:
        raise _UsageError("grid stop must not be below start")
    count = int(math.floor((stop - start) / step + 1e-9))
    return [round(start + k * step, 12) for k in range(count + 1)]


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        vals = [float(t) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers") from None
    if not vals:
        raise _UsageError(f"{flag} is empty")
    return vals


def _parse_ints(text: str, flag: str) -> list[int]:
    vals = _parse_floats(text, flag)
    out = [int(v) for v in vals]
    if any(o != v for o, v in zip(out, vals)):
        raise _UsageError(f"{flag} expects integers")
    return out


def _resolve_seed(args, command: str) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("OPL_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"OPL_SEED must be an integer, got {env!r}") from None
    return _SEED_DEFAULTS[command]


def _threads(args) -> int:
    if args.threads is None:
        return 1
    if args.threads < 1:
        raise _UsageError("--threads must be at least 1")
    return int(args.threads)


def _resolve_c(c, convention: str, bp: float, d: int) -> float:
    """The influence and ges constant.  Explicit c wins; otherwise the
    truncation-at-sqrt(6) constant on the squared-distance convention and the
    breakdown-calibrated constant on the scaled one."""
    if c is not None:
        if not c > 0:
            raise _UsageError("--c must be positive")
        return float(c)
    if convention == "squared-distance":
        return math.sqrt(6.0)
    return default_c(convention, bp, d)


def _prepare_run_dir(out: str, name: str, params: dict) -> str:
    """Create out/name and persist the resolved config before computing."""
    run_dir = os.path.join(out, name)
    os.makedirs(run_dir, exist_ok=True)
    write_json(os.path.join(run_dir, "config.json"), params)
    return run_dir


def _write_sidecar_config(path: str, params: dict) -> None:
    """Persist the resolved config as <stem>.config.json beside a file output."""
    out = Path(path)
    os.makedirs(out.parent, exist_ok=True)
    write_json(str(out.with_name(out.stem + ".config.json")), params)


def _announce(report: ExperimentReport, run_dir: str) -> None:
    checks = report.summary.get("assertions", [])
    n_pass = sum(1 for a in checks if a["passed"])
    print(f"{report.name}: {n_pass}/{len(checks)} checks passed; wrote {run_dir}")
    for a in checks:
        if not a["passed"]:
            print(f"  failed: {a['name']} ({a['detail']})", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate

def _build_simulate(args) -> dict:
    if args.out is None:
        raise _UsageError("simulate requires --out")
    d = int(args.d)
    if d < 1 or int(args.n) < 1:
        raise _UsageError("--d and --n must be positive")
    if args.point is not None:
        z = _parse_floats(args.point, "--point")
        if len(z) != d:
            raise _UsageError(f"--point needs {d} coordinates, got {len(z)}")
        outlier = PointMass(tuple(z)).to_dict()
    elif args.gauss is not None:
        mv = _parse_floats(args.gauss, "--gauss")
        if len(mv) not in (1, 2):
            raise _UsageError("--gauss expects mean or mean,var")
        outlier = GaussianShift(mv[0], mv[1] if len(mv) == 2 else 1.0).to_dict()
    else:
        shift = 10.0 if args.shift is None else float(args.shift)
        outlier = AdditiveShift(shift).to_dict()
    p = {"command": "simulate", "model": args.model, "eps": float(args.eps),
         "gamma": None if args.gamma is None else float(args.gamma),
         "d": d, "n": int(args.n), "outlier": outlier,
         "seed": _resolve_seed(args, "simulate"), "out": args.out}
    try:
        _contamination_spec(p)
    except ContaminationError as exc:
        raise _UsageError(str(exc)) from None
    return p


def _contamination_spec(p: dict) -> ContaminationSpec:
    return ContaminationSpec(model=p["model"], epsilon=p["eps"], gamma=p.get("gamma"),
                             outlier=outlier_from_dict(p["outlier"]))


def _run_simulate(p: dict) -> None:
    spec = _contamination_spec(p)
    _write_sidecar_config(p["out"], p)
    data = sample_contaminated(standard_model(p["d"]), spec, p["n"], p["seed"])
    out = Path(p["out"])
    write_dataset(out, data, spec=spec, seed=p["seed"])
    print(f"wrote {p['n']} rows x {p['d']} columns to {out}")


# ---------------------------------------------------------------------------
# estimate

def _build_estimate(args) -> dict:
    if args.input is None:
        raise _UsageError("estimate requires --in")
    est = args.estimator
    fit = ESTIMATORS[est]
    convention = fit.convention if args.convention is None else args.convention
    starts = fit.starts if args.starts is None else args.starts
    return {"command": "estimate", "estimator": est, "input": args.input,
            "scatter": args.scatter, "bp": float(args.bp),
            "convention": convention,
            "c": None if args.c is None else float(args.c),
            "starts": starts, "seed": _resolve_seed(args, "estimate"),
            "out": args.out}


def _run_estimate(p: dict) -> None:
    try:
        x, _, _ = read_dataset(p["input"])
    except OSError as exc:
        raise _UsageError(f"cannot read {p['input']}: {exc}") from None
    est, seed = p["estimator"], p["seed"]
    if est not in ESTIMATORS:
        raise _UsageError(f"unknown estimator {est!r}")
    fit = ESTIMATORS[est]
    rho = fit.rho(x.shape[1], p["bp"], p["convention"], p["c"])
    if rho is not None:
        p["c"] = rho.c
    if p["out"]:
        _write_sidecar_config(p["out"], p)

    result = fit(x, rho=rho, bp=p["bp"], starts=p["starts"], seed=seed,
                 scatter=p["scatter"]).to_dict(est, seed)
    if est == "m":
        result["scatter"] = p["scatter"]

    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if p["out"]:
        with open(p["out"], "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# influence

def _build_influence(args) -> dict:
    d = int(args.d)
    if d < 1:
        raise _UsageError("--d must be positive")
    if not -1.0 < float(args.r) < 1.0:
        raise _UsageError("--r must lie in (-1, 1)")
    seed = _resolve_seed(args, "influence")
    return {"command": "influence", "kind": args.kind, "d": d,
            "r": float(args.r), "grid": _parse_grid(args.grid),
            "draws": int(args.draws), "convention": args.convention,
            "c": _resolve_c(args.c, args.convention, args.bp, d),
            "bp": float(args.bp),
            "gamma": None if args.gamma is None else float(args.gamma),
            "seed": seed, "out": args.out}


def _run_influence(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "influence", p)
    d, grid = p["d"], p["grid"]
    model = standard_model(d) if p["r"] == 0.0 else equicorrelated_model(d, p["r"])
    ctx = InfluenceContext(model, RhoSpec(c=p["c"], convention=p["convention"]),
                           kind=p["kind"],
                           mc=MonteCarlo(n_draws=p["draws"], seed=p["seed"]),
                           gamma=p.get("gamma"))
    if d == 1:
        points = [(g,) for g in grid]
    else:
        points = [(a, b) + (0.0,) * (d - 2) for a in grid for b in grid]
    rows, best = [], (-1.0, None)
    for z in points:
        res = influence(np.asarray(z), ctx)
        rows.append(z + tuple(float(v) for v in res.value)
                    + tuple(float(s) for s in res.stderr))
        if res.norm > best[0]:
            best = (res.norm, z)
    header = ([f"z{j + 1}" for j in range(d)] + [f"if{j + 1}" for j in range(d)]
              + [f"se{j + 1}" for j in range(d)])
    report = ExperimentReport(
        name="influence", config=p,
        tables={"results": (header, rows)},
        summary={"kind": p["kind"], "d": d, "c": p["c"], "a_psi": ctx.a_psi,
                 "n_points": len(points), "max_norm": best[0],
                 "argmax_z": list(best[1])})
    report.write(p["out"], include_config=False)
    print(f"influence: {len(points)} points, max |IF| = {best[0]:.4f}; wrote {run_dir}")


# ---------------------------------------------------------------------------
# ges

def _build_ges(args) -> dict:
    d = int(args.d)
    if d < 1:
        raise _UsageError("--d must be positive")
    seed = _resolve_seed(args, "ges")
    return {"command": "ges", "kind": args.kind, "d": d, "bp": float(args.bp),
            "convention": args.convention,
            "c": _resolve_c(args.c, args.convention, args.bp, d),
            "gamma": None if args.gamma is None else float(args.gamma),
            "draws": int(args.draws), "rays": args.rays,
            "n_random": int(args.n_random), "n_radial": int(args.n_radial),
            "refine": int(args.refine), "seed": seed, "out": args.out}


def _run_ges(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "ges", p)
    model = standard_model(p["d"])
    ctx = InfluenceContext(model, RhoSpec(c=p["c"], convention=p["convention"]),
                           kind=p["kind"],
                           mc=MonteCarlo(n_draws=p["draws"], seed=p["seed"]),
                           gamma=p.get("gamma"))
    search = GesSearch(axes=p["rays"], n_random=p["n_random"],
                       n_radial=p["n_radial"], refine=p["refine"],
                       seed=p["seed"])
    res = ges(ctx, search)
    report = ExperimentReport(
        name="ges", config=p,
        tables={"results": (["d", "kind", "ges"], [(p["d"], p["kind"], res.value)]),
                "rays": (["ray", "best_t", "best_norm"], list(res.rays))},
        summary={"ges": res.value, "kind": p["kind"], "d": p["d"],
                 "argmax_z": [float(v) for v in res.argmax_z]})
    report.write(p["out"], include_config=False)
    print(f"ges[{p['kind']}, d={p['d']}] = {res.value:.6f}; wrote {run_dir}")


# ---------------------------------------------------------------------------
# experiment wrappers

def _build_table1(args) -> dict:
    return {"command": "table1", "d_grid": _parse_ints(args.d_grid, "--d-grid"),
            "delta": float(args.delta), "out": args.out}


def _run_table1(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "table1", p)
    report = table1(d_grid=tuple(p["d_grid"]), delta=p["delta"])
    report.write(p["out"], include_config=False)
    _announce(report, run_dir)


def _build_fig2(args) -> dict:
    return {"command": "fig2", "d_grid": _parse_ints(args.d_grid, "--d-grid"),
            "bp": float(args.bp), "draws": int(args.draws), "rays": args.rays,
            "n_random": int(args.n_random), "n_radial": int(args.n_radial),
            "refine": int(args.refine), "threads": _threads(args),
            "seed": _resolve_seed(args, "fig2"), "svg": bool(args.svg),
            "out": args.out}


def _run_fig2(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "ges_vs_dim", p)
    search = GesSearch(axes=p["rays"], n_random=p["n_random"],
                       n_radial=p["n_radial"], refine=p["refine"])
    report = ges_vs_dim(d_grid=tuple(p["d_grid"]), bp=p["bp"],
                        n_draws=p["draws"], seed=p["seed"],
                        threads=p["threads"], search=search)
    report.write(p["out"], include_config=False)
    if p["svg"]:
        _, rows = report.tables["results"]
        series = []
        for est in ("multivariate-s", "coordinatewise-s"):
            for kind in ("fdcm", "ficm"):
                pts = [(r[0], r[3]) for r in rows if r[1] == est and r[2] == kind]
                series.append((f"{est} {kind}", [q[0] for q in pts],
                               [q[1] for q in pts]))
        write_line_chart(os.path.join(run_dir, "figure.svg"), series,
                         title="gross-error sensitivity by dimension",
                         x_label="d", y_label="GES")
    _announce(report, run_dir)


def _build_fig3(args) -> dict:
    return {"command": "fig3", "n": int(args.n), "eps": float(args.eps),
            "shift_mean": float(args.shift_mean),
            "shift_var": float(args.shift_var),
            "transform": [list(r) for r in PROPAGATION_TRANSFORM],
            "figure_n": 20, "seed": _resolve_seed(args, "fig3"),
            "svg": bool(args.svg), "out": args.out}


def _run_fig3(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "propagation", p)
    report = propagation_demo(n=p["n"], eps=p["eps"],
                              shift_mean=p["shift_mean"],
                              shift_var=p["shift_var"],
                              transform=p["transform"], seed=p["seed"],
                              figure_n=p["figure_n"])
    report.write(p["out"], include_config=False)
    if p["svg"]:
        _, rows = report.tables["histogram"]
        centers = [(r[0] + r[1]) / 2.0 for r in rows]
        series = [("x1", centers, [float(r[2]) for r in rows]),
                  ("l1", centers, [float(r[3]) for r in rows])]
        write_line_chart(os.path.join(run_dir, "figure.svg"), series,
                         title="marginal before and after mixing columns",
                         x_label="value", y_label="count")
    _announce(report, run_dir)


def _build_fig4(args) -> dict:
    ests = [e.strip() for e in args.estimators.split(",") if e.strip()]
    bad = [e for e in ests if e not in ESTIMATORS]
    if bad or not ests:
        raise _UsageError(f"--estimators must be among {tuple(ESTIMATORS)}, got {bad}")
    return {"command": "fig4", "d": int(args.d), "n": int(args.n),
            "eps": float(args.eps), "t_grid": _parse_grid(args.t_grid),
            "estimators": ests, "replications": int(args.reps),
            "mcd_starts": int(args.mcd_starts),
            "mve_trials": int(args.mve_trials), "threads": _threads(args),
            "seed": _resolve_seed(args, "fig4"), "svg": bool(args.svg),
            "out": args.out}


def _run_fig4(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "bias_sweep", p)
    report = bias_sweep(d=p["d"], n=p["n"], eps=p["eps"],
                        t_grid=tuple(p["t_grid"]),
                        estimators=tuple(p["estimators"]),
                        replications=p["replications"], seed=p["seed"],
                        threads=p["threads"], mcd_starts=p["mcd_starts"],
                        mve_trials=p["mve_trials"])
    report.write(p["out"], include_config=False)
    if p["svg"]:
        _, rows = report.tables["curves"]
        series = []
        for est in p["estimators"]:
            pts = [(r[0], r[2]) for r in rows if r[1] == est]
            series.append((est, [q[0] for q in pts], [q[1] for q in pts]))
        write_line_chart(os.path.join(run_dir, "figure.svg"), series,
                         title="max componentwise bias by outlier size",
                         x_label="t", y_label="bias")
    _announce(report, run_dir)


def _build_breakdown(args) -> dict:
    return {"command": "breakdown", "estimator": args.estimator,
            "d": int(args.d), "eps_grid": _parse_grid(args.eps_grid),
            "t_large": float(args.t_large), "replications": int(args.reps),
            "n": int(args.n), "threshold": float(args.threshold),
            "bp": float(args.bp), "mcd_starts": int(args.mcd_starts),
            "mve_trials": int(args.mve_trials), "threads": _threads(args),
            "seed": _resolve_seed(args, "breakdown"), "out": args.out}


def _run_breakdown(p: dict) -> None:
    run_dir = _prepare_run_dir(p["out"], "breakdown", p)
    report = empirical_breakdown(estimator=p["estimator"], d=p["d"],
                                 eps_grid=tuple(p["eps_grid"]),
                                 t_large=p["t_large"],
                                 replications=p["replications"], n=p["n"],
                                 seed=p["seed"], threshold=p["threshold"],
                                 threads=p["threads"], bp=p["bp"],
                                 mcd_starts=p["mcd_starts"],
                                 mve_trials=p["mve_trials"])
    report.write(p["out"], include_config=False)
    star = report.summary.get("eps_star_hat")
    print(f"breakdown[{p['estimator']}, d={p['d']}]: eps_star_hat = {star}, "
          f"bound = {report.summary['bound']:.4f}")
    _announce(report, run_dir)


# ---------------------------------------------------------------------------
# parser assembly and dispatch

def _add_rho_flags(sp, default_convention: str | None) -> None:
    sp.add_argument("--convention", choices=CONVENTIONS, default=default_convention)
    sp.add_argument("--c", type=float, default=None,
                    help="loss truncation constant; default derives from the convention")
    sp.add_argument("--bp", type=float, default=0.5,
                    help="breakdown target used where c is calibrated")


def _add_search_flags(sp) -> None:
    sp.add_argument("--rays", choices=("all", "first"), default="all")
    sp.add_argument("--n-random", type=int, default=4)
    sp.add_argument("--n-radial", type=int, default=24)
    sp.add_argument("--refine", type=int, default=48)


def _build_parser() -> _Parser:
    parser = _Parser(prog="oplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, help_text: str, out_default="runs", dir_out=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None,
                        help="replay a run from its config.json; other flags "
                             "except --out/--threads/--svg are ignored")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed; OPL_SEED is the fallback")
        if dir_out:
            sp.add_argument("--out", default=out_default,
                            help="output directory for the run artifacts")
        return sp

    sp = add("simulate", "draw a contaminated dataset and write it as CSV",
             dir_out=False)
    sp.add_argument("--model", choices=MODELS, default="ficm")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n", type=int, default=100)
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--shift", type=float, default=None,
                     help="add a constant to contaminated cells (default 10)")
    grp.add_argument("--point", default=None,
                     help="point-mass replacement, comma-separated coordinates")
    grp.add_argument("--gauss", default=None,
                     help="gaussian replacement cells, 'mean' or 'mean,var'")
    sp.add_argument("--out", default=None, help="CSV path for the dataset")

    sp = add("estimate", "fit one location/scatter estimator to a CSV dataset",
             dir_out=False)
    sp.add_argument("--estimator", choices=tuple(ESTIMATORS), required=True)
    sp.add_argument("--in", dest="input", default=None)
    sp.add_argument("--scatter", choices=("mcd", "sample", "identity"),
                    default="mcd", help="plug-in scatter for the m estimator")
    sp.add_argument("--starts", type=int, default=None,
                    help="subset starts (mcd/s) or trials (mve)")
    _add_rho_flags(sp, None)
    sp.add_argument("--out", default=None, help="optional JSON result path")

    sp = add("influence", "influence surface over a z grid")
    sp.add_argument("--kind", choices=MODELS, default="ficm")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--r", type=float, default=0.0,
                    help="equicorrelation of the model scatter")
    sp.add_argument("--grid", default="-8:8:0.5")
    sp.add_argument("--draws", type=int, default=200_000)
    sp.add_argument("--gamma", type=float, default=None)
    _add_rho_flags(sp, "squared-distance")

    sp = add("ges", "gross-error sensitivity for one model and dimension")
    sp.add_argument("--kind", choices=MODELS, default="ficm")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--draws", type=int, default=100_000)
    sp.add_argument("--gamma", type=float, default=None)
    _add_rho_flags(sp, "scaled-distance")
    _add_search_flags(sp)

    sp = add("table1", "breakdown upper bounds by dimension")
    sp.add_argument("--d-grid", default="1,2,3,4,5,10,15,20,100")
    sp.add_argument("--delta", type=float, default=0.0)

    sp = add("fig2", "sensitivity curves against dimension")
    sp.add_argument("--d-grid", default="1,2,3,5,8,10,12,15")
    sp.add_argument("--bp", type=float, default=0.5)
    sp.add_argument("--draws", type=int, default=100_000)
    _add_search_flags(sp)
    sp.set_defaults(rays="first", n_random=2, n_radial=20, refine=32)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--svg", action="store_true")

    sp = add("fig3", "propagation of cellwise outliers through a column mix")
    sp.add_argument("--n", type=int, default=20_000)
    sp.add_argument("--eps", type=float, default=0.3)
    sp.add_argument("--shift-mean", type=float, default=10.0)
    sp.add_argument("--shift-var", type=float, default=1.0)
    sp.add_argument("--svg", action="store_true")

    sp = add("fig4", "componentwise bias sweep over the outlier size")
    sp.add_argument("--d", type=int, default=15)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--eps", type=float, default=0.15)
    sp.add_argument("--t-grid", default="0:100:5")
    sp.add_argument("--estimators", default="mean,coord_median,mcd,mve")
    sp.add_argument("--reps", type=int, default=20)
    sp.add_argument("--mcd-starts", type=int, default=100)
    sp.add_argument("--mve-trials", type=int, default=200)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--svg", action="store_true")

    sp = add("breakdown", "empirical breakdown rate on a contamination grid")
    sp.add_argument("--estimator", choices=tuple(ESTIMATORS), default="mcd")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--eps-grid", default="0.02:0.40:0.02")
    sp.add_argument("--t-large", type=float, default=1000.0)
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--threshold", type=float, default=10.0)
    sp.add_argument("--bp", type=float, default=0.5)
    sp.add_argument("--mcd-starts", type=int, default=100)
    sp.add_argument("--mve-trials", type=int, default=200)
    sp.add_argument("--threads", type=int, default=None)

    return parser


_BUILDERS = {"simulate": _build_simulate, "estimate": _build_estimate,
             "influence": _build_influence, "ges": _build_ges,
             "table1": _build_table1, "fig2": _build_fig2,
             "fig3": _build_fig3, "fig4": _build_fig4,
             "breakdown": _build_breakdown}

_RUNNERS = {"simulate": _run_simulate, "estimate": _run_estimate,
            "influence": _run_influence, "ges": _run_ges,
            "table1": _run_table1, "fig2": _run_fig2, "fig3": _run_fig3,
            "fig4": _run_fig4, "breakdown": _run_breakdown}


def _load_config(args) -> dict:
    try:
        with open(args.config) as fh:
            params = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(params, dict) or params.get("command") != args.command:
        raise _UsageError(f"config does not describe an '{args.command}' run")
    # A replay may redirect output or change the pool size; nothing else.
    if getattr(args, "out", None) not in (None, "runs"):
        params["out"] = args.out
    if getattr(args, "threads", None) is not None and "threads" in params:
        params["threads"] = int(args.threads)
    if getattr(args, "svg", False):
        params["svg"] = True
    return params


def _merge_negative_payloads(argv: list[str]) -> list[str]:
    """Join '--flag -8:8:0.25' into '--flag=-8:8:0.25' so argparse does not
    mistake grid or coordinate payloads that begin with a minus for options.
    No option of ours starts with a digit or a dot, so the merge is safe."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_payloads(list(argv))
    try:
        args = parser.parse_args(argv)
        command = getattr(args, "command", None)
        if command is None:
            raise _UsageError("a subcommand is required (see --help)")
        if getattr(args, "config", None):
            params = _load_config(args)
        else:
            params = _BUILDERS[command](args)
        _RUNNERS[command](params)
    except (_UsageError, InvalidData) as exc:
        print(f"oplab: error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_FAILURES as exc:
        print(f"oplab: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
