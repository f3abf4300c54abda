"""Output checks that do not rely on mmcrp's own solver.

HiGHS (through scipy) re-solves the edge formulation over the graph a solve
used: its LP relaxation must match a column-generation solve's `lp_bound`,
and its MILP optimum must match an edge solve's objective. The plan checks
recompute every property from the variants and the instance, not from the
totals the program reports.

`capture` copies what the checks need out of the program's objects into
plain arrays, so that a run can drop each solve's graph before the next
solve and check every solve only after the last one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

REL_TOL = 1e-6


@dataclass(frozen=True)
class Ride:
    variant_id: int
    start_depot: int
    end_depot: int
    depart_s: int
    arrive_s: int
    saving_eur: float
    covered: tuple[tuple[int, int], ...]


@dataclass
class Output:
    """One solve's result and the edge model over its graph."""

    integral: bool                    # edge MILP solve, else column generation
    status: str
    ip_value: float
    lp_bound: float
    relax_counts: list[tuple[int, int]]   # (relaxed, |E|) per pricing call
    routes: Optional[list[tuple[int, int, tuple[Ride, ...]]]]  # None: no plan
    depots: dict[int, tuple[int, int]]    # id -> (vehicles start, end)
    tails: np.ndarray
    heads: np.ndarray
    saving: np.ndarray                # per edge, 0 for waiting edges
    upper: np.ndarray                 # per edge: 1 for rides, fleet for waiting
    supply: np.ndarray                # per node: start count, minus end count
    cover_task: np.ndarray            # (task row, edge) pairs
    cover_edge: np.ndarray
    n_tasks: int


def capture(instance, graph, plan, status: str, ip_value: float,
            lp_bound: float, relax_counts, integral: bool) -> Output:
    variants = graph.variants
    routes = None if plan is None else []
    for r in (plan.routes if plan is not None else []):
        rides = tuple(Ride(v, variants[v].start_depot, variants[v].end_depot,
                           variants[v].depart_s, variants[v].arrive_s,
                           variants[v].saving_eur, variants[v].covered)
                      for v in r.variant_ids)
        routes.append((r.start_depot, r.end_depot, rides))

    edges = graph.edges
    supply = np.zeros(len(graph.nodes))
    for d in instance.depots:
        supply[graph.source[d.id]] += d.vehicles_start
        supply[graph.sink[d.id]] -= d.vehicles_end
    task_row = {t: i for i, t in enumerate(sorted(
        t.id for t in instance.all_tasks()))}
    pairs = np.array([(task_row[t], e.id) for e in edges
                      for t in e.covered_tasks], dtype=np.int64).reshape(-1, 2)
    ride = np.array([e.variant_id is not None for e in edges], dtype=bool)
    return Output(
        integral=integral, status=status, ip_value=ip_value,
        lp_bound=lp_bound, relax_counts=list(relax_counts), routes=routes,
        depots={d.id: (d.vehicles_start, d.vehicles_end)
                for d in instance.depots},
        tails=np.array([e.tail for e in edges], dtype=np.int64),
        heads=np.array([e.head for e in edges], dtype=np.int64),
        saving=np.array([e.saving for e in edges]),
        upper=np.where(ride, 1.0, float(instance.fleet_size)),
        supply=supply, cover_task=pairs[:, 0], cover_edge=pairs[:, 1],
        n_tasks=len(task_row),
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def highs_edge_optimum(out: Output) -> float:
    """Optimum of the edge formulation, solved by HiGHS: an MILP for edge
    solves, its LP relaxation for column-generation solves.

    Flow out minus flow in is each node's supply; every task is covered at
    most once.
    """
    from scipy.optimize import LinearConstraint, linprog, milp
    from scipy.sparse import coo_matrix

    n_edges = len(out.saving)
    cols = np.arange(n_edges)
    flow = coo_matrix(
        (np.r_[np.ones(n_edges), -np.ones(n_edges)],
         (np.r_[out.tails, out.heads], np.r_[cols, cols])),
        shape=(len(out.supply), n_edges)).tocsr()
    cover = coo_matrix((np.ones(len(out.cover_edge)),
                        (out.cover_task, out.cover_edge)),
                       shape=(out.n_tasks, n_edges)).tocsr()
    if out.integral:
        res = milp(-out.saving,
                   constraints=[LinearConstraint(flow, out.supply, out.supply),
                                LinearConstraint(cover, -np.inf, 1.0)],
                   integrality=np.ones(n_edges),
                   bounds=(np.zeros(n_edges), out.upper),
                   options={"mip_rel_gap": 1e-9})
    else:
        res = linprog(-out.saving, A_ub=cover, b_ub=np.ones(out.n_tasks),
                      A_eq=flow, b_eq=out.supply,
                      bounds=np.c_[np.zeros(n_edges), out.upper],
                      method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the edge model: {res.message}")
    return -float(res.fun)


def plan_problems(out: Output) -> list[str]:
    """Every property a decoded plan must have; an empty list means it
    passed."""
    problems = []
    if out.status != "optimal":
        problems.append(f"status is {out.status}, not optimal")
    if out.routes is None:
        return problems + ["no plan"]
    if not out.ip_value <= out.lp_bound + REL_TOL:
        problems.append(f"ip_value {out.ip_value} exceeds lp_bound "
                        f"{out.lp_bound}")

    rides = [ride for _, _, route in out.routes for ride in route]
    ride_saving = sum(ride.saving_eur for ride in rides)
    if not _close(out.ip_value, ride_saving):
        problems.append(f"ip_value {out.ip_value} != sum of ride savings "
                        f"{ride_saving}")

    sent = Counter(start for start, _, _ in out.routes)
    received = Counter(end for _, end, _ in out.routes)
    for d, (n_start, n_end) in sorted(out.depots.items()):
        if sent[d] != n_start or received[d] != n_end:
            problems.append(f"depot {d} sends {sent[d]} and receives "
                            f"{received[d]} vehicles, not {n_start} and "
                            f"{n_end}")

    covered = Counter(pair for ride in rides for pair in ride.covered)
    twice = sorted(pair for pair, n in covered.items() if n > 1)
    if twice:
        problems.append(f"(user, task) pairs covered more than once: {twice}")

    for start, end, route in out.routes:
        depot, free_at = start, None
        for ride in route:
            if ride.start_depot != depot or (free_at is not None
                                             and ride.depart_s < free_at):
                problems.append(f"route from depot {start}: variant "
                                f"{ride.variant_id} does not follow the "
                                f"previous ride")
            depot, free_at = ride.end_depot, ride.arrive_s
        if depot != end:
            problems.append(f"route from depot {start} ends at depot "
                            f"{depot}, not {end}")

    n_edges = len(out.saving)
    bad_calls = sum(1 for c in out.relax_counts if c != (n_edges, n_edges))
    if bad_calls:
        problems.append(f"{bad_calls} pricing calls did not relax exactly "
                        f"|E| = {n_edges} edges")
    return problems


def problems(out: Output) -> list[str]:
    """All checks of one solve, HiGHS included."""
    found = plan_problems(out)
    reference = highs_edge_optimum(out)
    own = out.ip_value if out.integral else out.lp_bound
    if not _close(reference, own):
        found.append(f"HiGHS edge {'MILP' if out.integral else 'LP'} "
                     f"optimum {reference} != {own}")
    return found
