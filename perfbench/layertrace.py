"""Timing wrappers around the library's layers, installed from outside.

A layer is one module of the package.  `Tracer.install` wraps every public
function a layer defines and rebinds the wrapper under every name that
refers to the original anywhere in the package, so calls made inside the
library are caught too: module globals are looked up at call time.

Each wrapped call records a span (name, start, end, parent, op id) in
flat in-memory arrays; nothing is written until `write_spans`.  A span's
self time is its duration minus the time covered by its child spans.

A few leaf functions run so often that a span per call would swamp the
measurement; they, `TGraph.__contains__` and `Mapping.get` are counted
only, and their time stays in the self time of their caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "terms",
    "patterns",
    "trees",
    "evaluator",
    "hom",
    "pebble",
    "graphs",
    "width",
    "hardness",
    "cli",
)

# leaf helpers called per term or per triple: counts only, no span
COUNT_ONLY = {
    "terms.var",
    "terms.iri",
    "terms.parse_term",
    "terms.substitute",
    "terms.compatible",
    "terms.merge",
}

# the ratio stat reported for a function: name -> (stat, test on the result)
OUTCOMES = {
    "evaluator.matched_subtree": ("hit_ratio", lambda r: r is not None),
    "hom.maps_into_graph": ("found_ratio", lambda r: r is not None),
    "pebble.pebble_wins": ("win_ratio", bool),
}

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.op = SETUP_OP
        self._stack = [-1]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"wdsparql.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[id(fn)] = (fn, self._counter(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self._spanner(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wdsparql" or mod_name.startswith("wdsparql.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        terms = modules["terms"]
        terms.TGraph.__contains__ = self._counter("terms.tgraph_contains", terms.TGraph.__contains__)
        terms.Mapping.get = self._counter("terms.mapping_get", terms.Mapping.get)

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name: str, fn):
        idx = self.name_ids[name] = len(self.names)
        self.names.append(name)
        self.errors[name] = 0
        outcome = OUTCOMES.get(name)
        if outcome is not None:
            self.hits[name] = 0
        stack = self._stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1])
            span_op.append(self.op)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span_end[sid] = perf_counter()
                span_start[sid] = start
                stack.pop()
            if outcome is not None and outcome[1](result):
                self.hits[name] += 1
            return result

        return traced

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, errors, self seconds, plus ctw cache hits."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = stats[self.names[self.span_name[sid]]]
            row["calls"] += 1
            row["self_s"] += self.span_end[sid] - self.span_start[sid] - child[sid]
        for name, row in stats.items():
            row["errors"] = self.errors[name]
            if name in self.hits:
                row[OUTCOMES[name][0]] = self.hits[name] / row["calls"] if row["calls"] else 0.0
        # a ctw call is a cache hit when no treewidth span lies beneath it
        ctw_id = self.name_ids.get("hom.ctw")
        tw_id = self.name_ids.get("graphs.treewidth")
        if ctw_id is not None and tw_id is not None:
            reached = set()
            for sid in range(n):
                if self.span_name[sid] != tw_id:
                    continue
                up = self.span_parent[sid]
                while up >= 0 and self.span_name[up] != ctw_id:
                    up = self.span_parent[up]
                if up >= 0:
                    reached.add(up)
            calls = stats["hom.ctw"]["calls"]
            stats["hom.ctw"]["hit_ratio"] = 1 - len(reached) / calls if calls else 0.0
        return stats

    def write_spans(self, path: str) -> None:
        """One line per span: name, start, end, parent span, op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                    f"{self.span_end[sid]:.9f}\t{self.span_parent[sid]}\t{self.span_op[sid]}\n"
                )
