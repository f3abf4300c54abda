"""Direct edge formulation over the time-space graph, solved as one MILP.

Row layout: one flow-conservation equality per intermediate node, one
departure equality per depot (W_d), one return equality per depot (W-bar_d),
and one at-most-once row per task. Ride edges are binaries; waiting edges
are general integers with the fleet size as upper bound -- several idle
vehicles must be able to sit on the same waiting edge, so a blanket binary
domain would under-count idle flow.

This model exists as the exact desk-scale baseline; the graph blows up
quickly with ride-sharing, so a size guard refuses models of more than
`max_dense_cells` (6,000,000) rows times columns instead of thrashing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .milp import EQ, LE, IpResult, MilpProblem, solve_ip
from .model import Instance
from .ridegraph import RIDE, TimeSpaceGraph
from .solution import Plan, Route, build_plan


class EdgeModelSizeError(ValueError):
    pass


@dataclass
class EdgeModel:
    problem: MilpProblem


@dataclass
class EdgeResult:
    status: str
    objective: float
    bound: float
    plan: Optional[Plan]
    gap: float


def build_edge_model(graph: TimeSpaceGraph, instance: Instance,
                     max_dense_cells: int = 6_000_000) -> EdgeModel:
    """One binary column per ride edge, one integer column per waiting edge;
    exactly |V'| + 2|D| + |Q| rows."""
    depot_ids = sorted(graph.source)
    specials = set(graph.source.values()) | set(graph.sink.values())
    interior = [v for v in range(len(graph.nodes)) if v not in specials]
    interior_row = {v: i for i, v in enumerate(interior)}

    rows: list[tuple[str, float]] = [(EQ, 0.0) for _ in interior]
    start_row = {}
    for d in depot_ids:
        start_row[d] = len(rows)
        rows.append((EQ, float(instance.depot(d).vehicles_start)))
    end_row = {}
    for d in depot_ids:
        end_row[d] = len(rows)
        rows.append((EQ, float(instance.depot(d).vehicles_end)))
    task_row = {}
    for t in sorted(t.id for t in instance.all_tasks()):
        task_row[t] = len(rows)
        rows.append((LE, 1.0))

    n_rows = len(rows)
    n_cols = len(graph.edges)
    if n_rows * n_cols > max_dense_cells:
        raise EdgeModelSizeError(
            f"edge model would need {n_rows} rows x {n_cols} columns; "
            f"beyond the size guard ({max_dense_cells} cells). Use the "
            f"column-generation solver for instances of this size."
        )

    problem = MilpProblem(rows)
    fleet = float(instance.fleet_size)
    for e in graph.edges:
        entries = []
        if e.tail in interior_row:
            entries.append((interior_row[e.tail], -1.0))
        else:
            td, tt = graph.nodes[e.tail]
            if tt == graph.sigma_s:
                entries.append((start_row[td], 1.0))
        if e.head in interior_row:
            entries.append((interior_row[e.head], 1.0))
        else:
            hd, ht = graph.nodes[e.head]
            if ht == graph.tau_s:
                entries.append((end_row[hd], 1.0))
        if e.kind == RIDE:
            for t in e.covered_tasks:
                entries.append((task_row[t], 1.0))
            problem.add_column(e.saving, entries, upper=1.0, integer=True)
        else:
            problem.add_column(0.0, entries, upper=fleet, integer=True)

    return EdgeModel(problem)


def _peel_routes(graph: TimeSpaceGraph, instance: Instance,
                 flow: list[int]) -> list[Route]:
    """Decompose the integral edge flow into one source-to-sink path per
    vehicle (the edge of lowest id with flow left is taken first, so ride
    edges before waiting edges)."""
    remaining = list(flow)
    routes = []
    for d in sorted(graph.source):
        for _ in range(instance.depot(d).vehicles_start):
            node = graph.source[d]
            variant_ids = []
            covered = []
            saving = 0.0
            while node not in graph.sink.values():
                nxt = None
                for eid in graph.out_edges[node]:
                    if remaining[eid] > 0:
                        nxt = eid
                        break
                if nxt is None:
                    raise AssertionError("flow conservation violated in decode")
                remaining[nxt] -= 1
                e = graph.edges[nxt]
                if e.kind == RIDE:
                    variant_ids.append(e.variant_id)
                    covered.extend(e.covered_tasks)
                    saving += e.saving
                node = e.head
            end_d = graph.node_depot(node)
            routes.append(Route(d, end_d, tuple(variant_ids),
                                tuple(sorted(covered)), saving))
    return routes


def solve_edge(graph: TimeSpaceGraph, instance: Instance,
               time_limit_s: Optional[float] = None) -> EdgeResult:
    """Solve the direct formulation and decode the flow into vehicle routes;
    uncovered tasks get their cheapest-other fallback in the plan."""
    model = build_edge_model(graph, instance)
    res: IpResult = solve_ip(model.problem, time_limit_s=time_limit_s)
    if res.status in ("infeasible", "unbounded") or res.x is None:
        return EdgeResult(res.status, math.nan, res.bound, None, math.inf)
    flow = [int(round(v)) for v in res.x]
    routes = _peel_routes(graph, instance, flow)
    plan = build_plan(instance, graph.variants, routes)
    return EdgeResult(res.status, res.objective, res.bound, plan, res.gap)
