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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contamination import (MODELS, ContaminationError, ContaminationSpec,
                            outlier_from_dict, read_dataset,
                            sample_contaminated, write_dataset)
from .estimators import ESTIMATORS, EstimationError
from . import experiments
from .experiments import ExperimentReport, write_json
from .influence import InfluenceContext, MonteCarlo, ges, influence
from .numerics import (CONVENTIONS, CalibrationError, InvalidData, RhoSpec,
                       SingularScatter, calibrate_c, equicorrelated_model,
                       standard_model)
from .svg import write_line_chart

# Anything the engines raise for bad values or failed fits maps to exit 2.
_NUMERIC_FAILURES = (EstimationError, CalibrationError, SingularScatter,
                     ContaminationError, ArithmeticError, ValueError,
                     np.linalg.LinAlgError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that surfaces grammar problems as exceptions instead of
    exiting with argparse's default status 2."""

    commands: dict[str, "_Parser"]  # the subcommand parsers, on the top-level parser

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Small parsers for flag payloads.

def _parse_grid(text: str, flag: str = "--grid") -> list[float]:
    """start:stop:step with an inclusive endpoint; negatives allowed."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise _UsageError(f"{flag} {text!r} must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} {text!r} has a non-numeric part") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"{flag} {text!r} has a non-finite part")
    if step <= 0:
        raise _UsageError(f"{flag} step must be positive")
    if stop < start:
        raise _UsageError(f"{flag} stop must not be below start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise _UsageError(f"{flag} {text!r} has too many points")
    count = int(math.floor(span + 1e-9))
    return [round(start + k * step, 12) for k in range(count + 1)]


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        vals = [float(t) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers") from None
    if not vals:
        raise _UsageError(f"{flag} is empty")
    if not all(map(math.isfinite, vals)):
        raise _UsageError(f"{flag} expects finite numbers, got {text!r}")
    return vals


def _parse_ints(text: str, flag: str) -> list[int]:
    vals = _parse_floats(text, flag)
    out = [int(v) for v in vals]
    if any(o != v for o, v in zip(out, vals)):
        raise _UsageError(f"{flag} expects integers")
    return out


def _parse_gauss(text: str) -> list[float]:
    """--gauss mean or mean,var as [mean, var], var 1 by default."""
    mv = _parse_floats(text, "--gauss")
    if len(mv) not in (1, 2):
        raise _UsageError("--gauss expects mean or mean,var")
    return mv if len(mv) == 2 else mv + [1.0]


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = None if args.config else os.environ.get("OPL_SEED")  # a replay's seed is in its config
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"OPL_SEED must be an integer, got {env!r}") from None
    return _COMMANDS[args.command].seed


def _resolve_c(c, convention: str, bp: float, d: int) -> float:
    """The influence and ges constant.  Explicit c wins; otherwise the
    truncation-at-sqrt(6) constant on the squared-distance convention and the
    breakdown-calibrated constant on the scaled one."""
    if c is not None:
        return float(c)
    if convention == "squared-distance":
        return math.sqrt(6.0)
    return calibrate_c(d, bp, convention=convention)


# ---------------------------------------------------------------------------
# Flag domains: the one place that says which values a command accepts.

def _real(v) -> bool:
    """An int or a float: a bool, a string or a list is not a number here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _between(lo: float, hi: float) -> Callable[[object], bool]:
    """A number in the open interval (lo, hi); NaN is in none."""
    return lambda v: _real(v) and lo < v < hi


def _count(least: int) -> Callable[[object], bool]:
    return lambda v: _real(v) and isinstance(v, int) and v >= least


def _one_of(names) -> Callable[[object], bool]:
    return lambda v: isinstance(v, str) and v in names


def _or_none(test: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: v is None or test(v)


_FINITE, _POSITIVE = _between(-math.inf, math.inf), _between(0.0, math.inf)
_PATH_OR_NONE = _or_none(lambda v: isinstance(v, str))

# Every config key's domain: (flag, test, what the flag's value must be).  A
# (command, key) entry overrides the key's own.  Counts are ints, never bools
# or floats; None passes only where a run's config may hold it.
_DOMAINS: dict = {
    "out": ("--out", lambda v: isinstance(v, str), "must be a path"),
    ("simulate", "out"): ("--out", _PATH_OR_NONE, "must be a path"),
    ("estimate", "out"): ("--out", _PATH_OR_NONE, "must be a path"),
    "input": ("--in", _PATH_OR_NONE, "must be a path"),
    "svg": ("--svg", lambda v: isinstance(v, bool), "must be true or false"),
    "seed": ("--seed", _count(-math.inf), "must be an integer"),
    "threads": ("--threads", _count(1), "must be an integer of at least 1"),
    "model": ("--model", _one_of(MODELS), f"must be one of {', '.join(MODELS)}"),
    "kind": ("--kind", _one_of(MODELS), f"must be one of {', '.join(MODELS)}"),
    "convention": ("--convention", _one_of(CONVENTIONS),
                   f"must be one of {', '.join(CONVENTIONS)}"),
    "estimator": ("--estimator", _one_of(ESTIMATORS),
                  f"must be one of {', '.join(ESTIMATORS)}"),
    "estimators": ("--estimators", _one_of(ESTIMATORS),
                   f"must be a list of names among {', '.join(ESTIMATORS)}"),
    "d": ("--d", _count(1), "must be an integer of at least 1"),
    "d_grid": ("--d-grid", _count(1), "must be a list of integers of at least 1"),
    "n": ("--n", _count(2), "must be an integer of at least 2"),
    ("simulate", "n"): ("--n", _count(1), "must be an integer of at least 1"),
    "draws": ("--draws", _count(2), "must be an integer of at least 2, as a stderr "
                                    "needs two draws"),
    "replications": ("--reps", _count(1), "must be an integer of at least 1"),
    "starts": ("--starts", _or_none(_count(1)), "must be an integer of at least 1"),
    "mcd_starts": ("--mcd-starts", _count(1), "must be an integer of at least 1"),
    "mve_trials": ("--mve-trials", _count(1), "must be an integer of at least 1"),
    "bp": ("--bp", lambda v: _real(v) and 0 < v <= 0.5, "must lie in (0, 0.5]"),
    "c": ("--c", _POSITIVE, "must be positive and finite"),
    ("estimate", "c"): ("--c", _or_none(_POSITIVE), "must be positive and finite"),
    "r": ("--r", _between(-1.0, 1.0), "must lie in (-1, 1)"),
    "eps": ("--eps", lambda v: _real(v) and 0 <= v <= 1, "must lie in [0, 1]"),
    "gamma": ("--gamma", _or_none(lambda v: _real(v) and 0 < v <= 1), "must lie in (0, 1]"),
    "eps_grid": ("--eps-grid", _between(0.0, 1.0),
                 "must be a strictly increasing list of rates in (0, 1)"),
    "delta": ("--delta", lambda v: _real(v) and 0 <= v < 0.5, "must lie in [0, 0.5)"),
    "grid": ("--grid", _FINITE, "must be a list of finite numbers"),
    "t_grid": ("--t-grid", _FINITE, "must be a strictly increasing list of finite numbers"),
    "shift_mean": ("--shift-mean", _FINITE, "must be finite"),
    "shift_var": ("--shift-var", _POSITIVE, "must be positive and finite"),
    "t_large": ("--t-large", _FINITE, "must be finite"),
    "threshold": ("--threshold", _POSITIVE, "must be positive and finite"),
}
# the keys whose value is a non-empty list, checked element by element, and
# whether the list must be strictly increasing: the grids whose checks read
# their points in order
_LISTS = {"estimators": False, "d_grid": False, "eps_grid": True, "grid": False,
          "t_grid": True}


def _domain(command: str, key: str) -> tuple | None:
    return _DOMAINS.get((command, key), _DOMAINS.get(key))


def _check(command: str, p: dict) -> None:
    """A usage error naming the flag of the first value of p outside its
    domain in _DOMAINS.  p is a command's flags before their defaults
    resolve, with the unset (None) ones left out, or a config about to run."""
    for key, value in p.items():
        if (domain := _domain(command, key)) is None:
            continue
        flag, test, words = domain
        if key in _LISTS and not (isinstance(value, list) and value):
            raise _UsageError(f"{flag} {words}, got {value!r}")
        for v in value if key in _LISTS else [value]:
            if not test(v):
                raise _UsageError(f"{flag} {words}, got {v!r}")
        if _LISTS.get(key) and any(b <= a for a, b in zip(value, value[1:])):
            raise _UsageError(f"{flag} {words}, got {value!r}")


# simulate's outlier kinds: the flag that sets each, and its number fields
_OUTLIERS = {"additive-shift": ("--shift", "t"), "point-mass": ("--point", "z"),
             "gaussian-shift": ("--gauss", "mean", "var")}


def _check_simulate(p: dict) -> None:
    """The outlier is one of _OUTLIERS with finite numbers, a positive --gauss
    variance and one --point coordinate per --d; --gamma meets
    ContaminationSpec's rules for --model and --eps."""
    o = p["outlier"]
    flag, *fields = _OUTLIERS.get(str(o.get("kind")) if isinstance(o, dict) else "", ("",))
    if not fields or o.keys() != {"kind", *fields}:
        raise _UsageError(f"--shift, --point or --gauss: the outlier must be one of "
                          f"{', '.join(_OUTLIERS)} with its fields, got {o!r}")
    nums = o["z"] if "z" in o else [o[f] for f in fields]
    if not isinstance(nums, list) or not nums or not all(map(_FINITE, nums)):
        raise _UsageError(f"{flag} must be finite, got {nums!r}")
    if "var" in o and not o["var"] > 0:
        raise _UsageError(f"--gauss variance must be positive, got {o['var']!r}")
    if "z" in o and len(nums) != p["d"]:
        raise _UsageError(f"--point needs {p['d']} coordinates, got {len(nums)}")
    try:
        ContaminationSpec(model=p["model"], epsilon=p["eps"], gamma=p["gamma"])
    except ContaminationError as exc:
        raise _UsageError(f"--gamma: {exc}") from None


def _check_influence(p: dict) -> None:
    """The equicorrelated scatter is positive definite: r > -1/(d - 1)."""
    d, r = p["d"], p["r"]
    if d > 1 and not r * (d - 1) > -1:
        raise _UsageError(f"--r must exceed -1/(d - 1) = {-1 / (d - 1):.6g} "
                          f"at --d {d}, got {r!r}")


# the rules that tie one key of a config to another, by command
_ACROSS = {"simulate": _check_simulate, "influence": _check_influence}


def _check_config(p: dict) -> None:
    """Refuse a config about to run, fresh or replayed, before anything is
    written: each value in its domain, then its command's cross-key rules."""
    _check(p["command"], p)
    if p["command"] in _ACROSS:
        _ACROSS[p["command"]](p)


def _flags(args) -> dict:
    """A command's config: its flags by name, checked against _DOMAINS, with
    the seed, the pool size and a run directory's parent resolved.  --out is
    None in the parser, so that a replay can tell an explicit --out runs from
    no --out at all."""
    cmd = _COMMANDS[args.command]
    p = {k: v for k, v in vars(args).items() if k not in ("config", "seed")}
    _check(args.command, {k: v for k, v in p.items() if v is not None})
    if cmd.seed is not None:
        p["seed"] = _resolve_seed(args)
    if "threads" in p and p["threads"] is None:
        p["threads"] = 1
    if cmd.run_dir is not None and p["out"] is None:
        p["out"] = "runs"
    return p


def _kwargs(p: dict) -> dict:
    """The config as an experiment's keyword arguments."""
    return {k: v for k, v in p.items() if k not in ("command", "out", "svg")}


def _write_config(path, p: dict) -> None:
    """Persist a run's resolved config; the one writer of config files."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_json(str(path), p)


def _sidecar(path: str) -> Path:
    """<stem>.config.json beside a file output."""
    out = Path(path)
    return out.with_name(out.stem + ".config.json")


def _announce(report: ExperimentReport, run_dir: str) -> None:
    checks = report.summary.get("assertions", [])
    n_pass = sum(1 for a in checks if a["passed"])
    print(f"{os.path.basename(run_dir)}: {n_pass}/{len(checks)} checks passed; wrote {run_dir}")
    for a in checks:
        if not a["passed"]:
            print(f"  failed: {a['name']} ({a['detail']})", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate

def _build_simulate(args) -> dict:
    """The outlier of --point, --gauss or --shift (default 10), in the form
    the outlier classes' to_dict writes; _check_simulate checks it."""
    p = _flags(args)
    shift, point, gauss = p.pop("shift"), p.pop("point"), p.pop("gauss")
    if point is not None:
        p["outlier"] = {"kind": "point-mass", "z": point}
    elif gauss is not None:
        p["outlier"] = {"kind": "gaussian-shift", "mean": gauss[0], "var": gauss[1]}
    else:
        p["outlier"] = {"kind": "additive-shift", "t": 10.0 if shift is None else shift}
    return p


def _simulate(p: dict) -> None:
    if p["out"] is None:
        raise _UsageError("simulate requires --out")
    spec = ContaminationSpec(model=p["model"], epsilon=p["eps"], gamma=p["gamma"],
                             outlier=outlier_from_dict(p["outlier"]))
    _write_config(_sidecar(p["out"]), p)
    data = sample_contaminated(standard_model(p["d"]), spec, p["n"], p["seed"])
    out = Path(p["out"])
    write_dataset(out, data)
    print(f"wrote {p['n']} rows x {p['d']} columns to {out}")


# ---------------------------------------------------------------------------
# estimate

def _build_estimate(args) -> dict:
    p = _flags(args)
    if p["estimator"] is None:
        if not args.config:
            raise _UsageError("the following arguments are required: --estimator")
        return p  # a replay takes the estimator and what it resolves from the config
    fit = ESTIMATORS[p["estimator"]]
    if p["convention"] is None:
        p["convention"] = fit.convention
    if p["starts"] is None:
        p["starts"] = fit.starts
    return p


def _estimate(p: dict) -> None:
    if p["input"] is None:
        raise _UsageError("estimate requires --in")
    try:
        x = read_dataset(p["input"])
    except OSError as exc:
        raise _UsageError(f"cannot read {p['input']}: {exc}") from None
    est, seed = p["estimator"], p["seed"]
    fit = ESTIMATORS[est]
    rho = fit.rho(x.shape[1], p["bp"], p["convention"], p["c"])
    if rho is not None:
        p["c"] = rho.c
    if p["out"]:
        _write_config(_sidecar(p["out"]), p)

    result = fit(x, rho=rho, bp=p["bp"], starts=p["starts"], seed=seed).to_dict(est, seed)

    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if p["out"]:
        with open(p["out"], "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# influence

def _influence(p: dict) -> ExperimentReport:
    d, grid = p["d"], p["grid"]
    model = standard_model(d) if p["r"] == 0.0 else equicorrelated_model(d, p["r"])
    ctx = _context(p, model)
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
    return ExperimentReport(
        tables={"results": (header, rows)},
        summary={"kind": p["kind"], "d": d, "c": p["c"], "a_psi": ctx.a_psi,
                 "n_points": len(points), "max_norm": best[0],
                 "argmax_z": list(best[1])})


# ---------------------------------------------------------------------------
# ges

def _build_ges(args) -> dict:
    """Also builds influence's config: both resolve the loss constant at d."""
    p = _flags(args)
    p["c"] = _resolve_c(p["c"], p["convention"], p["bp"], p["d"])
    return p


def _context(p: dict, model) -> InfluenceContext:
    """The influence or ges config's context on model; ges draws nothing, so
    its config has neither draws nor a seed."""
    mc = MonteCarlo(n_draws=p["draws"], seed=p["seed"]) if "draws" in p else None
    return InfluenceContext(model, RhoSpec(c=p["c"], convention=p["convention"]),
                            kind=p["kind"], mc=mc)


def _ges(p: dict) -> ExperimentReport:
    ctx = _context(p, standard_model(p["d"]))
    res = ges(ctx)
    return ExperimentReport(
        tables={"results": (["d", "kind", "ges"], [(p["d"], p["kind"], res.value)]),
                "rays": (["ray", "best_t", "best_norm"], list(res.rays))},
        summary={"ges": res.value, "kind": p["kind"], "d": p["d"],
                 "argmax_z": [float(v) for v in res.argmax_z]})


# ---------------------------------------------------------------------------
# the canned experiments; table1, fig3, fig4 and breakdown configs are their
# experiment's keyword arguments

def _fig2(p: dict) -> ExperimentReport:
    return experiments.ges_vs_dim(d_grid=tuple(p["d_grid"]), bp=p["bp"],
                                  n_draws=p["draws"], seed=p["seed"],
                                  threads=p["threads"])


def _fig2_chart(report: ExperimentReport, p: dict) -> tuple:
    _, rows = report.tables["results"]
    series = []
    for est in ("multivariate-s", "coordinatewise-s"):
        for kind in ("fdcm", "ficm"):
            pts = [(r[0], r[3]) for r in rows if r[1] == est and r[2] == kind]
            series.append((f"{est} {kind}", [q[0] for q in pts], [q[1] for q in pts]))
    return series, "gross-error sensitivity by dimension", "d", "GES"


def _fig3_chart(report: ExperimentReport, p: dict) -> tuple:
    _, rows = report.tables["histogram"]
    centers = [(r[0] + r[1]) / 2.0 for r in rows]
    series = [("x1", centers, [float(r[2]) for r in rows]),
              ("l1", centers, [float(r[3]) for r in rows])]
    return series, "marginal before and after mixing columns", "value", "count"


def _fig4_chart(report: ExperimentReport, p: dict) -> tuple:
    _, rows = report.tables["curves"]
    series = []
    for est in p["estimators"]:
        pts = [(r[0], r[2]) for r in rows if r[1] == est]
        series.append((est, [q[0] for q in pts], [q[1] for q in pts]))
    return series, "max componentwise bias by outlier size", "t", "bias"


# ---------------------------------------------------------------------------
# the command table, and the one function that runs a command

@dataclass(frozen=True)
class _Command:
    """build: flags -> config with every default resolved; _flags keeps each
    flag under its own name.  run: config ->
    the report written under out/run_dir, or, with no run_dir, the command
    writes its own file and <stem>.config.json.  chart: figure.svg's series,
    title and axis labels.  line: printed from the config and summary before
    the check count.  run looks experiments up in their module at call time,
    so wrappers installed later (the benchmark's tracer) see every call."""

    run: Callable[[dict], ExperimentReport | None]
    build: Callable[[argparse.Namespace], dict] = _flags
    seed: int | None = None
    run_dir: str | None = None
    chart: Callable[[ExperimentReport, dict], tuple] | None = None
    line: str = ""


_COMMANDS = {
    "simulate": _Command(_simulate, build=_build_simulate, seed=7),
    "estimate": _Command(_estimate, build=_build_estimate, seed=0),
    "influence": _Command(_influence, build=_build_ges, seed=2024, run_dir="influence",
                          line="influence: {n_points} points, max |IF| = {max_norm:.4f}; "
                               "wrote {run_dir}"),
    "ges": _Command(_ges, build=_build_ges, run_dir="ges",
                    line="ges[{kind}, d={d}] = {ges:.6f}; wrote {run_dir}"),
    "table1": _Command(lambda p: experiments.table1(**_kwargs(p)), run_dir="table1"),
    "fig2": _Command(_fig2, seed=31, run_dir="ges_vs_dim", chart=_fig2_chart),
    "fig3": _Command(lambda p: experiments.propagation_demo(**_kwargs(p)),
                     seed=2045, run_dir="propagation", chart=_fig3_chart),
    "fig4": _Command(lambda p: experiments.bias_sweep(**_kwargs(p)),
                     seed=7, run_dir="bias_sweep", chart=_fig4_chart),
    "breakdown": _Command(lambda p: experiments.empirical_breakdown(**_kwargs(p)),
                          seed=11, run_dir="breakdown",
                          line="breakdown[{estimator}, d={d}]: eps_star_hat = "
                               "{eps_star_hat}, bound = {bound:.4f}"),
}


def _drive(cmd: _Command, p: dict) -> None:
    """Write config.json, compute, write the report and figure.svg, print."""
    if cmd.run_dir is None:
        cmd.run(p)
        return
    run_dir = os.path.join(p["out"], cmd.run_dir)
    _write_config(os.path.join(run_dir, "config.json"), p)
    report = cmd.run(p)
    report.write(run_dir)
    if p.get("svg"):
        write_line_chart(os.path.join(run_dir, "figure.svg"), *cmd.chart(report, p))
    if cmd.line:
        print(cmd.line.format_map({**p, **report.summary, "run_dir": run_dir}))
    if "assertions" in report.summary:
        _announce(report, run_dir)


# ---------------------------------------------------------------------------
# parser assembly and dispatch

def _add_rho_flags(sp, default_convention: str | None) -> None:
    sp.add_argument("--convention", choices=CONVENTIONS, default=default_convention)
    sp.add_argument("--c", type=float, default=None,
                    help="loss truncation constant; default derives from the convention")
    sp.add_argument("--bp", type=float, default=0.5,
                    help="breakdown target used where c is calibrated")


def _build_parser() -> _Parser:
    parser = _Parser(prog="oplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, help_text: str,
            out_help: str = "parent of the run directory (default: runs)"):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None,
                        help="replay a run from its config.json; no other flag "
                             "but --out, --threads and --svg may be given")
        if _COMMANDS[name].seed is not None:  # table1 and ges draw nothing
            sp.add_argument("--seed", type=int, default=None,
                            help="master seed; OPL_SEED is the fallback")
        sp.add_argument("--out", default=None, help=out_help)
        return sp

    sp = add("simulate", "draw a contaminated dataset and write it as CSV",
             out_help="CSV path for the dataset")
    sp.add_argument("--model", choices=MODELS, default="ficm")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n", type=int, default=100)
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--shift", type=float, default=None,
                     help="add a constant to contaminated cells (default 10)")
    grp.add_argument("--point", type=lambda t: _parse_floats(t, "--point"), default=None,
                     help="point-mass replacement, comma-separated coordinates")
    grp.add_argument("--gauss", type=_parse_gauss, default=None,
                     help="gaussian replacement cells, 'mean' or 'mean,var'")

    sp = add("estimate", "fit one location/scatter estimator to a CSV dataset",
             out_help="optional JSON result path")
    sp.add_argument("--estimator", choices=tuple(ESTIMATORS), default=None,
                    help="required unless --config is given")
    sp.add_argument("--in", dest="input", default=None)
    sp.add_argument("--starts", type=int, default=None,
                    help="subset starts (mcd/s) or trials (mve)")
    _add_rho_flags(sp, None)

    sp = add("influence", "influence surface over a z grid")
    sp.add_argument("--kind", choices=MODELS, default="ficm")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--r", type=float, default=0.0,
                    help="equicorrelation of the model scatter, above -1/(d - 1)")
    sp.add_argument("--grid", type=_parse_grid, default="-8:8:0.5")
    sp.add_argument("--draws", type=int, default=200_000)
    _add_rho_flags(sp, "squared-distance")

    sp = add("ges", "gross-error sensitivity for one model and dimension")
    sp.add_argument("--kind", choices=MODELS, default="ficm")
    sp.add_argument("--d", type=int, default=2)
    _add_rho_flags(sp, "scaled-distance")

    sp = add("table1", "breakdown upper bounds by dimension")
    sp.add_argument("--d-grid", type=lambda t: _parse_ints(t, "--d-grid"),
                    default="1,2,3,4,5,10,15,20,100")
    sp.add_argument("--delta", type=float, default=0.0)

    sp = add("fig2", "sensitivity curves against dimension")
    sp.add_argument("--d-grid", type=lambda t: _parse_ints(t, "--d-grid"),
                    default="1,2,3,5,8,10,12,15")
    sp.add_argument("--bp", type=float, default=0.5)
    sp.add_argument("--draws", type=int, default=100_000)
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
    sp.add_argument("--n", type=int, default=100,
                    help="need not exceed --d; a subset fit (mcd, mve, s, m) on at most "
                         "d rows fails, and is counted as a failed fit")
    sp.add_argument("--eps", type=float, default=0.15)
    sp.add_argument("--t-grid", type=lambda t: _parse_grid(t, "--t-grid"), default="0:100:5")
    sp.add_argument("--estimators", default="mean,coord_median,mcd,mve",
                    type=lambda t: [e.strip() for e in t.split(",") if e.strip()])
    sp.add_argument("--reps", dest="replications", type=int, default=20)
    sp.add_argument("--mcd-starts", type=int, default=100)
    sp.add_argument("--mve-trials", type=int, default=200)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--svg", action="store_true")

    sp = add("breakdown", "empirical breakdown rate on a contamination grid")
    sp.add_argument("--estimator", choices=tuple(ESTIMATORS), default="mcd")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--eps-grid", type=lambda t: _parse_grid(t, "--eps-grid"),
                    default="0.02:0.40:0.02")
    sp.add_argument("--t-large", type=float, default=1000.0)
    sp.add_argument("--reps", dest="replications", type=int, default=5)
    sp.add_argument("--n", type=int, default=200,
                    help="need not exceed --d; a subset fit (mcd, mve, s, m) on at most "
                         "d rows fails, and counts as breaking the estimator")
    sp.add_argument("--threshold", type=float, default=10.0)
    sp.add_argument("--bp", type=float, default=0.5)
    sp.add_argument("--mcd-starts", type=int, default=100)
    sp.add_argument("--mve-trials", type=int, default=200)
    sp.add_argument("--threads", type=int, default=None)

    # each typed flag's help ends with its domain, in the words of _DOMAINS
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if action.type is not None and (domain := _domain(name, action.dest)):
                action.help = "; ".join(filter(None, (action.help, domain[2])))
    parser.commands = sub.choices
    return parser


# the flags a replay may take: where it writes, the pool size and the figure
_REPLAY_FLAGS = ("out", "threads", "svg")


def _reject_replay_conflicts(parser: _Parser, argv: list[str], command: str) -> None:
    """Under --config, a usage error naming the first flag typed in argv that
    would change the replayed run.  argv is parsed again onto a namespace
    that already holds every destination, so argparse fills in no default
    and what it sets is what was typed."""
    sp = parser.commands[command]
    unset = object()
    typed = sp.parse_args(argv[argv.index(command) + 1:],
                          argparse.Namespace(**{a.dest: unset for a in sp._actions}))
    for action in sp._actions:
        if (action.dest not in ("config",) + _REPLAY_FLAGS
                and getattr(typed, action.dest) is not unset):
            raise _UsageError(f"{action.option_strings[0]} conflicts with --config: a replay "
                              f"takes its settings from the config; only --out, "
                              f"--threads and --svg may be given")


def _replay(args, built: dict) -> dict:
    """The config in args.config, checked against the keys that build writes;
    main checks its values, as those of a fresh run, with _check_config.

    A replay may redirect output, change the pool size or add the figure;
    built holds those flags resolved and checked."""
    try:
        with open(args.config) as fh:
            params = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(params, dict) or params.get("command") != args.command:
        raise _UsageError(f"config does not describe an '{args.command}' run")
    missing, unknown = sorted(built.keys() - params.keys()), sorted(params.keys() - built.keys())
    if missing or unknown:
        raise _UsageError(f"config {args.config} has missing keys {missing} "
                          f"and unknown keys {unknown}")
    for key in _REPLAY_FLAGS:
        if getattr(args, key, None) not in (None, False):
            params[key] = built[key]
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
        cmd = _COMMANDS[command]
        if args.config:
            _reject_replay_conflicts(parser, argv, command)
        params = cmd.build(args)
        if args.config:
            params = _replay(args, params)
        _check_config(params)
        _drive(cmd, params)
    except (_UsageError, InvalidData) as exc:
        print(f"oplab: error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_FAILURES as exc:
        print(f"oplab: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
