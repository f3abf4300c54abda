"""Direct edge formulation over the time-space graph, solved as one MILP.

One row per node (out - in = supply), one per task. Ride edges are
binaries; waiting edges are general integers with the fleet size as upper
bound -- several idle vehicles must be able to sit on the same waiting edge,
so a blanket binary domain would under-count idle flow.

This model exists as the exact desk-scale baseline; the graph blows up
quickly with ride-sharing, so a size guard refuses models of more than
`MAX_CELLS` (6,000,000) rows times columns instead of thrashing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .milp import EQ, LE, IpResult, MilpProblem, solve_ip
from .model import Instance
from .ridegraph import RIDE, TimeSpaceGraph
from .solution import Plan, Route, build_plan

#: largest rows times columns of an edge model handed to `milp.solve_ip`
MAX_CELLS = 6_000_000


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


def build_edge_model(graph: TimeSpaceGraph, instance: Instance) -> EdgeModel:
    """One binary column per ride edge, one integer column per waiting edge;
    one row per node (out - in = supply), one per task."""
    depots = instance.depots
    supply = ({graph.source[d.id]: float(d.vehicles_start) for d in depots}
              | {graph.sink[d.id]: -float(d.vehicles_end) for d in depots})
    task_ids = sorted(t.id for t in instance.all_tasks())
    task_row = {t: len(graph.nodes) + i for i, t in enumerate(task_ids)}
    rows = ([(EQ, supply.get(v, 0.0)) for v in range(len(graph.nodes))]
            + [(LE, 1.0)] * len(task_ids))

    n_rows = len(rows)
    n_cols = len(graph.edges)
    if n_rows * n_cols > MAX_CELLS:
        raise EdgeModelSizeError(
            f"edge model would need {n_rows} rows x {n_cols} columns; "
            f"beyond the size guard ({MAX_CELLS} cells). Use the "
            f"column-generation solver for instances of this size."
        )

    problem = MilpProblem(rows)
    fleet = float(instance.fleet_size)
    for e in graph.edges:
        entries = [(e.tail, 1.0), (e.head, -1.0)]
        entries += [(task_row[t], 1.0) for t in e.covered_tasks]
        problem.add_column(e.saving, entries, integer=True,
                           upper=1.0 if e.kind == RIDE else fleet)
    return EdgeModel(problem)


def _peel_routes(graph: TimeSpaceGraph, instance: Instance,
                 flow: list[int]) -> list[Route]:
    """Decompose the integral edge flow into one source-to-sink path per
    vehicle (the edge of lowest id with flow left is taken first, so ride
    edges before waiting edges)."""
    remaining = list(flow)
    sinks = set(graph.sink.values())
    routes = []
    for d in sorted(graph.source):
        for _ in range(instance.depot(d).vehicles_start):
            node = graph.source[d]
            rides = []
            while node not in sinks:
                eid = next((eid for eid in graph.out_edges[node]
                            if remaining[eid] > 0), None)
                if eid is None:
                    raise AssertionError("flow conservation violated in decode")
                remaining[eid] -= 1
                e = graph.edges[eid]
                if e.kind == RIDE:
                    rides.append(e)
                node = e.head
            routes.append(Route(
                d, graph.node_depot(node), tuple(r.variant_id for r in rides),
                tuple(sorted(t for r in rides for t in r.covered_tasks)),
                sum((r.saving for r in rides), 0.0)))
    return routes


def solve_edge(graph: TimeSpaceGraph, instance: Instance,
               time_limit_s: Optional[float] = None) -> EdgeResult:
    """Solve the direct formulation and decode the flow into vehicle routes;
    uncovered tasks get their cheapest-other fallback in the plan."""
    model = build_edge_model(graph, instance)
    res: IpResult = solve_ip(model.problem, time_limit_s=time_limit_s)
    if res.x is None:
        return EdgeResult(res.status, math.nan, res.bound, None, math.inf)
    flow = res.x.astype(int).tolist()
    routes = _peel_routes(graph, instance, flow)
    plan = build_plan(instance, graph.variants, routes)
    return EdgeResult(res.status, res.objective, res.bound, plan, res.gap)
