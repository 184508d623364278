"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the library from the
outside; the library itself is unchanged.  A wrapped call records a span
(name, start, end, parent span, operation id) in memory, and hooks on a few
calls add counts measured where the work happens.  A group's busy time is
the self time of its spans: each span's duration minus the durations of its
direct child spans (calls nest, so children never overlap).

The tracer's own cost in a process is its span count times ``span_cost()``
plus the time its hooks took.

Known attribution gap: ``exhaustive_robust``, ``robust_search`` and
``batch_member`` call the private ``RankOracle._impl`` directly.  That
elimination work has no span of its own, so it shows up as ``distinguish``
or ``closure.batch_member`` self time, not as ``linalg`` time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

_ORACLE_READS = ("member", "absorb", "residue", "nullspace_vector", "nullspace")
_EVALMATRIX = ("__init__", "bool_matrix", "point_row_bool", "oracle",
               "row_for_oracle")
_CUBE_EVAL_METHODS = ("evaluate_many", "evaluate", "weight_values", "terms_map")

# metric group -> (module, attribute path) of every call it is measured around
TARGETS = {
    "linalg.oddp_build": [("linalg", "RankOracle.from_array")],
    "linalg.gf2_build": [("linalg", "RankOracle.from_packed_rows")],
    "linalg.query": [("linalg", f"RankOracle.{m}") for m in _ORACLE_READS],
    "closure.evalmatrix": ([("closure", f"EvaluationMatrix.{m}")
                            for m in _EVALMATRIX]
                           + [("closure", "evaluation_bool_matrix"),
                              ("closure", "pack_bool_rows")]),
    "closure.batch_member": [("closure", "batch_member")],
    "cube.from_sym": [("cube", "MultilinearPoly.from_sym")],
    "cube.eval": ([("cube", "slice_stats"), ("cube", "monomials_upto")]
                  + [("cube", f"MultilinearPoly.{m}")
                     for m in _CUBE_EVAL_METHODS]),
    "distinguish": [("distinguish", f) for f in (
        "exact_min_degree", "gap_degree_sweep", "robust_search",
        "exhaustive_robust")],
    "distinguish.midslice": [("distinguish", "midslice_consistency")],
    "spectra": None,  # every public module-level function, found at install
    "constructions.exact_sums": [("constructions", f) for f in (
        "junta_exact_slice_error", "coin_verify_errors", "galvin_coverage",
        "binom_ratio_check", "hyper_ratio_check")],
    "constructions.build": [("constructions", f) for f in (
        "sampling_poly", "interpolate_window_int", "coin_build", "lucas_poly")],
    "experiments": [("experiments", "run")],
}
GROUPS = tuple(TARGETS)

# groups whose outermost calls are counted, and the counter each feeds
CALL_COUNTERS = {"linalg.query": "linalg.queries", "spectra": "spectra.calls",
                 "cube.from_sym": "cube.from_sym_calls"}


def _array_build(rec, args, result):
    a = args[2]
    rec.counts["linalg.builds"] += 1
    rec.counts["linalg.build_rows"] += a.shape[0]
    rec.counts["linalg.build_cells"] += a.shape[0] * a.shape[1]
    rec.counts["linalg.build_rank"] += result.rank


def _packed_build(rec, args, result):
    cols, rows = args[2], args[3]
    rec.counts["linalg.builds"] += 1
    rec.counts["linalg.build_rows"] += len(rows)
    rec.counts["linalg.build_cells"] += len(rows) * cols
    rec.counts["linalg.build_rank"] += result.rank


def _oracle_request(rec, args, result):
    ev = args[0]
    key = (ev.field.p, ev.n, ev.degree, tuple(ev.points))
    rec.counts["closure.oracle_requests"] += 1
    if key in rec.oracle_keys:
        rec.counts["closure.oracle_repeats"] += 1
    rec.oracle_keys.add(key)


def _evalmatrix_init(rec, args, result):
    if rec.depth["distinguish"]:
        rec.counts["distinguish.degree_steps"] += 1


def _from_sym(rec, args, result):
    # terms materialized, 0 when the polynomial is left in symmetric form
    terms = getattr(result, "_terms", None)
    rec.counts["cube.from_sym_terms"] += len(terms) if terms is not None else 0


def _instance(rec, args, result):
    rec.counts["distinguish.instances"] += 1


def _sweep_instances(rec, args, result):
    rec.counts["distinguish.instances"] += len(result[0])


# attribute path -> hook(recorder, args, result), run after the call returns
HOOKS = {
    "RankOracle.from_array": _array_build,
    "RankOracle.from_packed_rows": _packed_build,
    "EvaluationMatrix.oracle": _oracle_request,
    "EvaluationMatrix.__init__": _evalmatrix_init,
    "evaluation_bool_matrix": lambda rec, args, result: rec.counts.update(
        {"closure.evalmatrix_cells": result.size}),
    "batch_member": lambda rec, args, result: rec.counts.update(
        {"closure.batch_member_rows": args[1].shape[0]}),
    "MultilinearPoly.from_sym": _from_sym,
    "exact_min_degree": _instance,
    "robust_search": _instance,
    "exhaustive_robust": _instance,
    "gap_degree_sweep": _sweep_instances,
}


class Recorder:
    """In-memory spans of one worker process.

    A span is ``[name index, start, end, parent span index or -1, op id]``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self.oracle_keys: set = set()
        self.hook_s = 0.0  # time spent in hooks, which is tracing time

    def wrap(self, group: str, path: str, fn):
        rec = self
        name_idx = len(self.names)
        self.names.append(path)
        self.groups.append(group)
        hook = HOOKS.get(path)
        call_counter = CALL_COUNTERS.get(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if call_counter and not rec.depth[group]:
                rec.counts[call_counter] += 1
            stack = rec.stack
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, rec.op]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            rec.depth[group] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                rec.depth[group] -= 1
                stack.pop()
            if hook is not None:
                h0 = clock()
                hook(rec, args, result)
                rec.hook_s += clock() - h0
            return result

        return traced

    def install(self, package: str = "slicedeg") -> None:
        """Wrap every target in the class that owns it, or in every module
        namespace of ``package`` that holds the original function."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in (
            "linalg", "closure", "cube", "distinguish", "spectra",
            "constructions", "experiments")}
        for group, targets in TARGETS.items():
            if targets is None:
                mod = modules["spectra"]
                targets = [("spectra", name)
                           for name, v in sorted(vars(mod).items())
                           if inspect.isfunction(v) and not name.startswith("_")
                           and v.__module__ == mod.__name__]
            for mod_name, path in targets:
                self._install_one(package, modules[mod_name], group, path)

    def _install_one(self, package, mod, group, path):
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(group, path, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(group, path, raw))
            return
        orig = getattr(mod, path)
        traced = self.wrap(group, path, orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, traced)

    def summary(self) -> dict:
        """Self time per group and the counters, for this process."""
        return {"self_s": self_times(self.spans, self.groups),
                "counts": dict(self.counts),
                "spans": len(self.spans),
                "hook_s": self.hook_s}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[name]}\t{start:.9f}\t{end:.9f}"
                         f"\t{parent}\t{op}\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds the wrapper adds to one call: the median over ``repeats`` of
    the difference between ``calls`` traced and plain calls of a no-op.

    Times the span count of a pass, it estimates what tracing added to that
    pass.  Timing a traced pass against an untraced one cannot: the speed
    of a shared machine drifts more between passes than tracing costs.
    """
    def noop(x):
        return x

    clock = time.perf_counter
    diffs = []
    for _ in range(repeats):
        traced = Recorder().wrap("linalg.query", "noop", noop)
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            traced(i)
        t2 = clock()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    diffs.sort()
    return diffs[len(diffs) // 2]


def self_times(spans: list, groups: list) -> dict:
    """Group -> total self time of its spans.

    ``spans`` entries are ``[name index, start, end, parent, op]`` with each
    parent listed before its children; ``groups[name index]`` is the group.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
    out = dict.fromkeys(GROUPS, 0.0)
    for (name, *_), t in zip(spans, own):
        out[groups[name]] = out.get(groups[name], 0.0) + t
    return out
