"""Span tracing of plverify's public functions, from outside the package.

``Tracer.install`` replaces every traced function in *every* plverify
module namespace that holds it: modules import each other's functions by
name (``bab`` and ``mip`` call their own binding of ``build_planet``,
``cli`` its own ``bab_verify``), so patching only the defining module would
miss those calls. ``uninstall`` puts the originals back.

Each call records one span: name, start, end, parent span and a few
counts read from the arguments or the result. Spans stay in memory until
``write`` stores them. ``layer_metrics`` turns them into the per-layer
metrics; a span's self time is its duration minus its direct children's.
Every duration is normalised to the reference host speed by the caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from pathlib import Path

LP_SOLVE = "lp.solve"

TRACED = {
    "lp": ["solve"],
    "relax": [
        "build_planet", "planet_lower_bound_with_point", "reluplex_lower_bound", "reluplex_feasible", "fast_dual_bound",
    ],
    "interval": ["propagate_box"],
    "bab": ["bab_verify", "bab_optimize", "split_input_smart", "split_input_longest", "split_relu", "sample_upper_bound"],
    "mip": ["encode_mip", "solve_mip"],
    "oracle": ["oracle_min", "oracle_verdict"],
    "gensuite": ["generate"],
    "canon": ["canonicalize", "maxpool_to_relu", "validate_counterexample"],
    "model": ["forward_batch"],
    "formats": ["load_network", "load_property"],
    "cli": ["run_verify"],
}

# The purpose of an lp.solve call is named by its nearest enclosing span
# among these (mip.encode_mip tightens through relax.build_planet).
PURPOSES = {
    "relax.build_planet": "tighten",
    "relax.planet_lower_bound_with_point": "bound",
    "relax.reluplex_lower_bound": "bound",
    "relax.reluplex_feasible": "bound",
    "mip.solve_mip": "mip_node",
    "oracle.oracle_min": "oracle_leaf",
}
PURPOSE_NAMES = ["tighten", "bound", "mip_node", "oracle_leaf"]

# Functions that must record at least one call on each workload; a zero
# means a call site was missed.
EXPECTED = {
    "verify": [
        "cli.run_verify", "bab.bab_verify", "mip.encode_mip", "mip.solve_mip", LP_SOLVE,
        "relax.build_planet", "relax.planet_lower_bound_with_point", "relax.fast_dual_bound",
        "interval.propagate_box", "bab.split_input_smart", "bab.split_input_longest", "bab.split_relu",
        "bab.sample_upper_bound", "model.forward_batch", "canon.canonicalize", "canon.maxpool_to_relu",
        "canon.validate_counterexample", "formats.load_network", "formats.load_property",
    ],
    "optimize": [
        "bab.bab_optimize", LP_SOLVE, "relax.build_planet", "relax.planet_lower_bound_with_point",
        "relax.fast_dual_bound", "interval.propagate_box", "bab.split_input_smart", "bab.sample_upper_bound",
        "model.forward_batch", "canon.canonicalize", "canon.maxpool_to_relu",
        "formats.load_network", "formats.load_property",
    ],
    "generate": [
        "gensuite.generate", "oracle.oracle_min", "oracle.oracle_verdict", LP_SOLVE,
        "interval.propagate_box", "canon.canonicalize", "canon.maxpool_to_relu", "canon.validate_counterexample",
    ],
}


def _lp_counts(args, kwargs, result, error):
    model = args[0] if args else kwargs["model"]
    status = result.status if error is None else type(error).__name__
    return (len(model.rows), model.num_vars, status)


def _nodes(args, kwargs, result, error):
    return None if result is None else (result.nodes, result.spurious_candidates)


def _patterns(args, kwargs, result, error):
    return None if result is None else result.feasible_patterns


def _method(args, kwargs, result, error):
    return args[3] if len(args) > 3 else kwargs["method"]


ANNOTATE = {
    LP_SOLVE: _lp_counts,
    "bab.bab_verify": _nodes,
    "bab.bab_optimize": _nodes,
    "mip.solve_mip": _nodes,
    "oracle.oracle_min": _patterns,
    "cli.run_verify": _method,
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, annotation]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if annotate is not None:
                    span[4] = annotate(args, kwargs, result, error)

        return traced

    def install(self) -> None:
        homes = {short: importlib.import_module(f"plverify.{short}") for short in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "plverify" or n.startswith("plverify.")]
        for short, names in TRACED.items():
            home = homes[short]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


def layer_metrics(spans: list[list], duration) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the spans, plus the coverage problems found.

    ``duration(start, end)`` gives the seconds a span counts for, so the
    caller can normalise them to a reference host speed.
    """
    from plverify.cli import METHODS

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    seconds = [duration(start, end) for _, start, end, _, _ in spans]
    child: list[float] = [0.0] * len(spans)
    for (name, _, _, parent, _), d in zip(spans, seconds):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + d
        if parent >= 0:
            child[parent] += d
    self_s: dict[str, float] = {}
    for (name, _, _, _, _), d, covered in zip(spans, seconds, child):
        self_s[name] = self_s.get(name, 0.0) + d - covered

    lp_rows = lp_vars = 0
    lp_infeasible = lp_failures = 0
    by_purpose = {p: [0, 0.0, 0] for p in PURPOSE_NAMES}  # calls, busy, infeasible
    unattributed = 0
    nodes = {"bab": 0, "mip": 0}
    spurious = patterns = 0
    method_busy = {m: 0.0 for m in METHODS}
    for (name, _, _, parent, note), d in zip(spans, seconds):
        if name == LP_SOLVE:
            rows, nvars, status = note
            lp_rows += rows
            lp_vars += nvars
            lp_infeasible += status == "infeasible"
            lp_failures += status == "NumericalFailure"
            purpose = None
            while parent >= 0 and purpose is None:
                purpose = PURPOSES.get(spans[parent][0])
                parent = spans[parent][3]
            if purpose is None:
                unattributed += 1
                continue
            slot = by_purpose[purpose]
            slot[0] += 1
            slot[1] += d
            slot[2] += status == "infeasible"
        elif name in ("bab.bab_verify", "bab.bab_optimize") and note is not None:
            nodes["bab"] += note[0]
        elif name == "mip.solve_mip" and note is not None:
            nodes["mip"] += note[0]
            spurious += note[1]
        elif name == "oracle.oracle_min" and note is not None:
            patterns += note
        elif name == "cli.run_verify":
            method_busy[note] += d

    n_lp = calls.get(LP_SOLVE, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {
        "lp.solve.calls": (n_lp, "count"),
        "lp.solve.busy_s": (busy.get(LP_SOLVE, 0.0), "s"),
        "lp.solve.infeasible_frac": (ratio(lp_infeasible, n_lp), "ratio"),
        "lp.solve.numerical_failures": (lp_failures, "count"),
        "lp.solve.mean_rows": (ratio(lp_rows, n_lp), "rows"),
        "lp.solve.mean_vars": (ratio(lp_vars, n_lp), "vars"),
    }
    for p in PURPOSE_NAMES:
        m[f"lp.solve.{p}.calls"] = (by_purpose[p][0], "count")
        m[f"lp.solve.{p}.busy_s"] = (by_purpose[p][1], "s")
    m["lp.solve.oracle_leaf.infeasible_frac"] = (ratio(by_purpose["oracle_leaf"][2], by_purpose["oracle_leaf"][0]), "ratio")

    def count(name: str) -> tuple[float, str]:
        return (calls.get(name, 0), "count")

    def secs(table: dict[str, float], *names: str) -> tuple[float, str]:
        return (sum(table.get(n, 0.0) for n in names), "s")

    m.update({
        "relax.build_planet.calls": count("relax.build_planet"),
        "relax.build_planet.self_s": secs(self_s, "relax.build_planet"),
        "relax.planet_lower_bound_with_point.calls": count("relax.planet_lower_bound_with_point"),
        "relax.fast_dual_bound.calls": count("relax.fast_dual_bound"),
        "relax.fast_dual_bound.busy_s": secs(busy, "relax.fast_dual_bound"),
        "interval.propagate_box.calls": count("interval.propagate_box"),
        "interval.propagate_box.busy_s": secs(busy, "interval.propagate_box"),
        "bab.nodes": (nodes["bab"], "count"),
        "bab.engine.self_s": secs(self_s, "bab.bab_verify", "bab.bab_optimize"),
        "bab.split_input_smart.calls": count("bab.split_input_smart"),
        "bab.split_input_smart.self_s": secs(self_s, "bab.split_input_smart"),
        "bab.split_input_longest.calls": count("bab.split_input_longest"),
        "bab.split_relu.calls": count("bab.split_relu"),
        "bab.sample_upper_bound.calls": count("bab.sample_upper_bound"),
        "bab.sample_upper_bound.busy_s": secs(busy, "bab.sample_upper_bound"),
        "mip.nodes": (nodes["mip"], "count"),
        "mip.spurious_candidates": (spurious, "count"),
        "mip.encode_mip.busy_s": secs(busy, "mip.encode_mip"),
        "mip.solve_mip.self_s": secs(self_s, "mip.solve_mip"),
        "oracle.oracle_min.calls": count("oracle.oracle_min"),
        "oracle.oracle_min.self_s": secs(self_s, "oracle.oracle_min"),
        "oracle.feasible_patterns": (patterns, "count"),
        "gensuite.generate.self_s": secs(self_s, "gensuite.generate"),
        "canon.canonicalize.busy_s": secs(busy, "canon.canonicalize"),
        "canon.maxpool_to_relu.busy_s": secs(busy, "canon.maxpool_to_relu"),
        "canon.validate_counterexample.calls": count("canon.validate_counterexample"),
        "canon.validate_counterexample.busy_s": secs(busy, "canon.validate_counterexample"),
        "model.forward_batch.calls": count("model.forward_batch"),
        "model.forward_batch.busy_s": secs(busy, "model.forward_batch"),
        "formats.load.busy_s": secs(busy, "formats.load_network", "formats.load_property"),
    })
    for meth in METHODS:
        m[f"cli.run_verify.{meth}.busy_s"] = (method_busy[meth], "s")

    problems = []
    split = sum(by_purpose[p][0] for p in PURPOSE_NAMES)
    if unattributed or split != n_lp:
        problems.append(f"lp.solve calls split by purpose sum to {split}, not {n_lp} ({unattributed} unattributed)")
    return m, problems


def coverage_problems(workload: str, spans: list[list]) -> list[str]:
    seen = {span[0] for span in spans}
    return [f"{name} recorded no call on {workload}" for name in EXPECTED[workload] if name not in seen]
