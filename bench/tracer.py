"""Spans around the public functions of each irregraph layer.

The tracer lives in the benchmark, not in the library: it replaces each
listed function by a wrapper in every irregraph module that holds a
reference to it (``irregraph.harness.alpha_ir`` and ``irregraph.cli.full_report``
are the same function reached by two names), so calls between layers are
timed too.  A span records its function, start, end, parent span, the
operation it belongs to and the order of the graph it was called on.  Spans
stay in memory until the run ends; per-layer metrics are derived from them.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from corpus import FULL_ORDERS

# Layers are the irregraph modules.  Only these functions are wrapped, so
# ``cli.main`` keeps argument parsing and JSON encoding as its self time.
LAYERS = {
    "bulk": ("sweep_order_bulk",),
    "harness": ("verify_range", "theorem_report"),
    "recognizers": (
        "is_planar", "is_outerplanar", "satisfies_lemma31",
        "classify_planar_alpha1", "classify_outerplanar_alpha1",
        "classify_gamma_extremal",
    ),
    "params": (
        "alpha", "alpha_ir", "alpha_reg", "gamma_ir", "gamma_reg", "max_cut",
        "full_report",
    ),
    "graph": (
        "parse_graph6", "from_edge_mask", "complement", "write_graph6",
        "classify_degrees",
    ),
    "cli": ("main",),
}
SOLVERS = ("alpha", "alpha_ir", "alpha_reg", "gamma_ir", "gamma_reg", "max_cut")
CHECKS_PER_REPORT = 28


def _metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("bulk.sweep_order_bulk.calls", "count", "lower"),
        ("bulk.sweep_order_bulk.self_s.n6", "s", "lower"),
        ("bulk.sweep_order_bulk.self_s.n7", "s", "lower"),
        ("harness.theorem_report.calls", "count", "lower"),
        ("harness.theorem_report.self_s", "s", "lower"),
        ("harness.verify_range.self_s", "s", "lower"),
        ("harness.checks_per_s", "1/s", "higher"),
    ]
    for layer in ("recognizers", "params", "graph"):
        for fn in LAYERS[layer]:
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
            specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
        if layer == "recognizers":
            specs.append(("recognizers.planar_share", "ratio", "lower"))
    for solver in SOLVERS:
        for n, _ in FULL_ORDERS:
            specs.append((f"params.{solver}.mean_ms.n{n}", "ms", "lower"))
    specs.append(("cli.main.self_s", "s", "lower"))
    specs.append(("cli.output_bytes", "bytes", "lower"))
    for layer in LAYERS:
        specs.append((f"{layer}.share", "ratio", "lower"))
    specs.append(("trace_overhead", "ratio", "lower"))
    return specs


METRIC_SPECS = _metric_specs()


def preload() -> dict:
    """Import every layer module that exists; a removed one reports zeros."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"irregraph.{layer}")
        except ModuleNotFoundError:
            pass
    return modules


class Tracer:
    """Wraps the LAYERS functions and records one span per call."""

    def __init__(self):
        self.op = -1
        self.names: list = []
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._order = array("i")
        self._outer = array("b")  # no enclosing span of the same function
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._depth: list = []
        self._patches: list = []

    def install(self) -> None:
        for layer, module in preload().items():
            for fn in LAYERS[layer]:
                original = getattr(module, fn, None)
                if callable(original):
                    self._patch(original, self._wrap(f"{layer}.{fn}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "irregraph" and not name.startswith("irregraph."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        names, parents, ops, orders, outer = (
            self._name, self._parent, self._op, self._order, self._outer
        )
        starts, ends, stack, depth = self._start, self._end, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            first = args[0] if args else None
            order = first if type(first) is int else getattr(first, "n", -1)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            orders.append(order if type(order) is int else -1)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()

        return wrapper

    def spans(self) -> dict:
        """All spans as numpy columns, one row per call."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "op": np.frombuffer(self._op, dtype=np.int32),
            "order": np.frombuffer(self._order, dtype=np.int32),
            "outer": np.frombuffer(self._outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def functions(self) -> dict:
        """Per wrapped function, over the spans inside operations.

        calls, total_s (outermost spans of the function only, so recursion is
        not counted twice), self_s, and per graph order the self seconds and
        the mean milliseconds per outermost call.
        """
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        table = {}
        for nid, name in enumerate(self.names):
            sel = (sp["op"] >= 0) & (sp["name"] == nid)
            top = sel & sp["outer"]
            orders = np.unique(sp["order"][sel])
            table[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[top].sum()),
                "self_s": float(own[sel].sum()),
                "self_s_by_order": {
                    int(n): float(own[sel & (sp["order"] == n)].sum()) for n in orders
                },
                "mean_ms_by_order": {
                    int(n): 1000 * float(dur[outer].mean())
                    for n in orders
                    if (outer := top & (sp["order"] == n)).any()
                },
            }
        return table


def layer_metrics(table: dict, run_s: float, output_bytes: int) -> dict:
    """Every METRIC_SPECS value but trace_overhead, from a functions() table.

    A function never called, or no longer in the program, reads zero.
    trace_overhead needs the untraced pass, so run.py adds it.
    """
    values = {}
    for fn, row in table.items():
        values[f"{fn}.calls"] = row["calls"]
        values[f"{fn}.self_s"] = row["self_s"]
        for n, v in row["self_s_by_order"].items():
            values[f"{fn}.self_s.n{n}"] = v
        for n, v in row["mean_ms_by_order"].items():
            values[f"{fn}.mean_ms.n{n}"] = v
    for layer in LAYERS:
        own = sum(row["self_s"] for fn, row in table.items() if fn.startswith(layer + "."))
        values[f"{layer}.share"] = own / run_s
    reports = table.get("harness.theorem_report", {"calls": 0, "total_s": 0.0})
    if reports["total_s"]:
        values["harness.checks_per_s"] = (
            CHECKS_PER_REPORT * reports["calls"] / reports["total_s"]
        )
        values["recognizers.planar_share"] = (
            values.get("recognizers.is_planar.self_s", 0) / reports["total_s"]
        )
    values["cli.output_bytes"] = output_bytes
    return {
        name: values.get(name, 0)
        for name, _, _ in METRIC_SPECS
        if name != "trace_overhead"
    }
