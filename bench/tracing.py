"""Spans and counters around oplab's public functions, for traced passes.

A traced pass replaces each target function in every ``oplab`` module that
binds it (``from .numerics import mahalanobis_sq`` makes a second binding in
``oplab.estimators``, which its callers use) with a wrapper that records a
span (name, start, end, parent, thread) and adds to the target's counters.
Spans stay in memory until the pass ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs, result):
    x = np.asarray(kwargs.get("x", args[0] if args else None))
    return {"rows": x.shape[0] if x.ndim == 2 else 1}


def _sample_rows(args, kwargs, result):
    return {"rows": int(kwargs.get("n", args[2] if len(args) > 2 else 0))}


def _iterations_as(counter: str):
    def count(args, kwargs, result):
        return {counter: int(result.iterations)}
    return count


# (module, attribute path, counters from the call) for every traced layer
TARGETS = (
    ("numerics", "mahalanobis_sq", _rows),
    ("numerics", "calibrate_c", None),
    ("numerics", "psi_sq", None),
    ("rng", "row_stream", None),
    ("rng", "substream", None),
    ("contamination", "sample_contaminated", _sample_rows),
    ("contamination", "write_dataset", None),
    ("contamination", "read_dataset", None),
    ("estimators", "mcd", _iterations_as("starts")),
    ("estimators", "c_step", None),
    ("estimators", "mve", _iterations_as("candidates")),
    ("estimators", "m_location", _iterations_as("iterations")),
    ("estimators", "s_estimate", None),
    ("estimators", "m_scale", None),
    ("estimators", "coord_s", None),
    ("influence", "influence", None),
    ("influence", "a_psi", None),
    ("influence", "ges", None),
    ("influence", "if_numeric", None),
    ("experiments", "bias_sweep", None),
    ("experiments", "ges_vs_dim", None),
    ("experiments", "ExperimentReport.write", None),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span log; one parent stack per thread."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # span ids are taken in start order; list order is end order
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident()))
                with tracer._lock:
                    tracer.counters[f"{name}.calls"] += 1
            if counters is not None:
                with tracer._lock:
                    for key, val in counters(args, kwargs, result).items():
                        tracer.counters[f"{name}.{key}"] += val
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each oplab module that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "oplab" or n.startswith("oplab."))]
        for modname, attr, counters in TARGETS:
            owner = importlib.import_module(f"oplab.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counters))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counters)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """Counters plus self seconds per traced name (zero when idle)."""
        out = {f"{m}.{a}.self_s": 0.0 for m, a, _ in TARGETS}
        out.update({f"{m}.{a}.calls": 0.0 for m, a, _ in TARGETS})
        out.update(self.counters)
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for span_id, name, start, end, _, _ in self.spans:
            out[f"{name}.self_s"] += (end - start) - child[span_id]
        return out

    def dump(self, path) -> None:
        """Write spans as JSON lines: id, name, start, end, parent, thread."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
