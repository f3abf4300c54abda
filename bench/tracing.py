"""Spans around calls into mmcrp's modules, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper under the name
its caller looks it up by (`colgen.price`, `milp.solve_lp`, ...). A wrapper
records a span with its name, start, end, parent span and solve id, plus
counts read from the returned object. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    solve: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count(**readers: Callable) -> Callable:
    return lambda out: {k: read(out) for k, read in readers.items()}


def _traced_functions():
    """(module, attribute, span name, counts reader) for every traced call."""
    from mmcrp import colgen, edgeform, instgen, milp, ridegraph

    return [
        (instgen, "read_instance", "instgen.read", None),
        (ridegraph, "enumerate_variants", "ridegraph.enumerate", _count(
            share_checks=lambda vs: vs.stats.feasibility_checks,
            variants=lambda vs: vs.stats.n_variants,
            truncated_users=lambda vs: len(vs.stats.truncated_users))),
        (ridegraph, "build_graph", "ridegraph.build_graph", _count(
            nodes=lambda g: len(g.nodes), edges=lambda g: len(g.edges))),
        (colgen, "run", "colgen.run", _count(
            iterations=lambda r: r.iterations,
            columns=lambda r: r.columns_generated)),
        (colgen, "_price_iteration", "colgen.price_iteration", _count(
            candidates=len)),
        (colgen, "edge_weights", "colgen.edge_weights", None),
        (colgen, "price", "colgen.price", _count(
            edges_relaxed=lambda r: r.edges_relaxed)),
        (colgen, "build_plan", "solution.build_plan", None),
        (milp, "solve_lp", "milp.solve_lp", _count(
            pivots=lambda s: s.iterations)),
        (milp, "solve_ip", "milp.solve_ip", _count(nodes=lambda r: r.nodes)),
        (edgeform, "solve_edge", "edgeform.solve_edge", None),
        (edgeform, "build_edge_model", "edgeform.build", _count(
            rows=lambda m: m.problem.n_rows, cols=lambda m: m.problem.n_cols)),
        (edgeform, "solve_ip", "milp.solve_ip", _count(
            nodes=lambda r: r.nodes)),
        (edgeform, "build_plan", "solution.build_plan", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solve = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn: Callable, name: str,
             counts: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(),
                                   parent=self._open[-1] if self._open else -1,
                                   solve=self.solve))
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                self.spans[idx].counts = counts(out)
            return out
        return traced

    def install(self):
        for module, attr, name, counts in _traced_functions():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counts))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_time(spans: list[Span], idx: int) -> float:
    """A span's duration minus the time its direct children cover."""
    children = [s for s in spans if s.parent == idx]
    return spans[idx].duration - sum(c.duration for c in children)


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def solve_layers(spans: list[Span], solve: int) -> dict[str, float]:
    """Per-layer figures of one solve: times in s, counts summed."""
    mine = [(i, s) for i, s in enumerate(spans) if s.solve == solve]

    def total(name, count=None, where=lambda s: True):
        picked = [s for _, s in mine if s.name == name and where(s)]
        if count is None:
            return sum(s.duration for s in picked)
        return sum(s.counts[count] for s in picked)

    def calls(name, where=lambda s: True):
        return sum(1 for _, s in mine if s.name == name and where(s))

    def in_ip(s):
        return _inside(spans, s, "milp.solve_ip")

    def master(s):
        return not in_ip(s)

    out = {
        "instgen.read_s": total("instgen.read"),
        "ridegraph.enumerate_s": total("ridegraph.enumerate"),
        "ridegraph.share_checks": total("ridegraph.enumerate", "share_checks"),
        "ridegraph.variants": total("ridegraph.enumerate", "variants"),
        "ridegraph.truncated_users": total("ridegraph.enumerate",
                                           "truncated_users"),
        "ridegraph.build_graph_s": total("ridegraph.build_graph"),
        "ridegraph.nodes": total("ridegraph.build_graph", "nodes"),
        "ridegraph.edges": total("ridegraph.build_graph", "edges"),
        "colgen.iterations": total("colgen.run", "iterations"),
        "colgen.columns": total("colgen.run", "columns"),
        "colgen.price_calls": calls("colgen.price"),
        "colgen.price_s": total("colgen.price"),
        "colgen.edges_relaxed": total("colgen.price", "edges_relaxed"),
        "colgen.edge_weights_s": total("colgen.edge_weights"),
        "colgen.candidates_picked": total("colgen.price_iteration",
                                          "candidates"),
        "colgen.loop_self_s": sum(self_time(spans, i) for i, s in mine
                                  if s.name == "colgen.run"),
        "milp.lp_solves": calls("milp.solve_lp", master),
        "milp.lp_s": total("milp.solve_lp", where=master),
        "milp.lp_pivots": total("milp.solve_lp", "pivots", master),
        "milp.ip_s": total("milp.solve_ip"),
        "milp.ip_nodes": total("milp.solve_ip", "nodes"),
        "milp.ip_lp_s": total("milp.solve_lp", where=in_ip),
        "milp.ip_lp_pivots": total("milp.solve_lp", "pivots", in_ip),
        "edgeform.build_s": total("edgeform.build"),
        "edgeform.rows": total("edgeform.build", "rows"),
        "edgeform.cols": total("edgeform.build", "cols"),
        "solution.build_plan_s": total("solution.build_plan"),
    }
    out["colgen.price_ms_per_call"] = (
        1000.0 * out["colgen.price_s"] / out["colgen.price_calls"]
        if out["colgen.price_calls"] else 0.0)
    out["colgen.column_yield"] = (
        out["colgen.columns"] / out["colgen.candidates_picked"]
        if out["colgen.candidates_picked"] else 0.0)
    out["milp.lp_ms_per_solve"] = (
        1000.0 * out["milp.lp_s"] / out["milp.lp_solves"]
        if out["milp.lp_solves"] else 0.0)
    return out


def run_layers(spans: list[Span], n_solves: int) -> dict[str, float]:
    """Median over a run's solves of each per-solve figure."""
    per_solve = [solve_layers(spans, i) for i in range(n_solves)]
    return {k: statistics.median(d[k] for d in per_solve)
            for k in per_solve[0]}
