"""Path formulation via delayed column generation.

The restricted master keeps one at-most-once row per task and one equality
row per depot for departures (W_d) and returns (W-bar_d). Pricing is a
longest-path pass over the topologically ordered time-space graph: one call
per start depot yields the best route to every end depot (and, on request,
every positive candidate). Four exact schemes control how many of those
candidates enter the master per iteration; a heuristic phase prices on a
reduced graph first and hands over to the exact graph once it dries up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import milp
from .milp import EQ, LE, MilpProblem, TOL_RC
from .model import Instance
from .ridegraph import (
    TimeSpaceGraph,
    drop_negative,
    reduce_prune,
    reduce_statespace,
)
from .solution import Plan, Route, build_plan

SCHEMES = ("best", "first", "firstdep", "multiple")
#: the graph reduction each heuristic pricing phase runs on
REDUCTIONS = {"heuredges": drop_negative, "heurprun": reduce_prune,
              "statespace": reduce_statespace}
HEURISTICS = ("none", *REDUCTIONS)

RELOCATION_PENALTY = 1e7


@dataclass
class DualPrices:
    alpha: dict[int, float]       # per task, >= 0
    beta: dict[int, float]        # per depot start row, free
    delta: dict[int, float]       # per depot end row, free


def reduced_saving(route: Route, duals: DualPrices) -> float:
    """Route saving minus its coverage duals and both depot-inventory duals."""
    total = route.saving_eur
    total -= sum(duals.alpha.get(task, 0.0) for task in route.covered)
    total -= duals.beta.get(route.start_depot, 0.0)
    total -= duals.delta.get(route.end_depot, 0.0)
    return total


class RestrictedMaster:
    """Incrementally grown master problem with warm-started LP resolves.

    It starts with one idle route per depot and one relocation column per
    ordered depot pair: an empty route between two different depots, worth
    -RELOCATION_PENALTY. No graph path has that shape, since waiting edges
    never change depot. These seed columns keep the depot equality rows
    feasible for any inventory, since an Instance has matching totals.

    Columns get no explicit upper bound: any task-covering route is capped at
    one by its coverage rows and idle/relocation columns are capped by the
    depot equality rows, so the LP is unchanged while the duals stay free of
    bound contributions (which pricing relies on).
    """

    def __init__(self, instance: Instance):
        depots = sorted(instance.depots, key=lambda d: d.id)
        task_ids = sorted(t.id for t in instance.all_tasks())
        n_tasks, n_depots = len(task_ids), len(depots)
        self.task_row = {t: i for i, t in enumerate(task_ids)}
        self.start_row = {d.id: n_tasks + i for i, d in enumerate(depots)}
        self.end_row = {d.id: n_tasks + n_depots + i
                        for i, d in enumerate(depots)}
        self.problem = MilpProblem(
            [(LE, 1.0)] * n_tasks
            + [(EQ, float(d.vehicles_start)) for d in depots]
            + [(EQ, float(d.vehicles_end)) for d in depots])
        self.routes: list[Route] = []
        self._identities: set = set()
        self._state = None
        depot_ids = list(self.start_row)
        for d in depot_ids:
            self.add_route(Route(d, d, (), (), 0.0))
        for d in depot_ids:
            for d2 in depot_ids:
                if d != d2:
                    self.add_route(Route(d, d2, (), (), -RELOCATION_PENALTY))

    def add_route(self, route: Route) -> bool:
        """Append route as a column; returns False for a duplicate (same
        coverage, depots and saving as an existing one).

        covered is a multiset: a task touched by two rides of the path gets
        coefficient 2, which keeps the column consistent with what pricing
        valued (its saving counts that leg twice) while the <=1 row makes it
        unusable in any integer solution."""
        covered = tuple(sorted(route.covered))
        identity = (route.start_depot, route.end_depot, covered,
                    round(route.saving_eur, 9))
        if identity in self._identities:
            return False
        self._identities.add(identity)
        entries = [(self.task_row[task], 1.0) for task in covered]
        entries.append((self.start_row[route.start_depot], 1.0))
        entries.append((self.end_row[route.end_depot], 1.0))
        self.problem.add_column(route.saving_eur, entries, integer=True)
        self.routes.append(route)
        return True

    def solve_lp(self) -> tuple[float, DualPrices]:
        sol = milp.solve_lp(self.problem, state=self._state)
        if sol.status != "optimal":
            raise milp.MilpError(f"restricted master LP is {sol.status}")
        self._state = sol.state
        y = sol.duals
        duals = DualPrices(
            alpha={t: float(y[r]) for t, r in self.task_row.items()},
            beta={d: float(y[r]) for d, r in self.start_row.items()},
            delta={d: float(y[r]) for d, r in self.end_row.items()},
        )
        return sol.objective, duals


# --- pricing ---------------------------------------------------------------


@dataclass
class Candidate:
    reduced_saving: float
    route: Route


@dataclass
class PricingResult:
    best_per_end: dict[int, Candidate]
    candidates: list[Candidate]
    edges_relaxed: int


def edge_weights(graph: TimeSpaceGraph, duals: DualPrices) -> np.ndarray:
    """Pricing weight per edge: saving minus coverage duals (0 for waiting)."""
    alpha = np.array([duals.alpha.get(t, 0.0) for t in graph.task_ids])
    return graph.saving - np.bincount(graph.cover_edge,
                                      weights=alpha[graph.cover_task],
                                      minlength=len(graph.edges))


def price(graph: TimeSpaceGraph, duals: DualPrices, start_depot: int,
          collect: str = "best",
          weights: Optional[np.ndarray] = None) -> PricingResult:
    """Label-setting longest path from (start_depot, sigma).

    It computes what one relaxation per edge in topological order computes,
    bit for bit: a head's in-edges are relaxed in (tail node, edge id)
    order, and a later edge replaces the head's label only if it wins by
    more than 1e-12. The exposed counter equals |E| on every call. Waiting
    edges must weigh 0, as edge_weights gives them.

    The pass runs window by window (see TimeSpaceGraph). First, every edge
    entering the window is relaxed at once: each head takes the largest
    candidate, and the first edge reaching it. That is what the scalar rule
    picks unless some candidate lies below the largest by at most 1e-12;
    such a head is resolved by the scalar rule over its candidates, in
    order. Then each depot's chain inside the window is a cumulative max:
    its waiting in-edge is a head's last candidate, since its tail is the
    latest node among them. The waiting edge wins where the label before it
    is larger, unless by at most 1e-12; where that happens, the chain's
    labels in this window are re-scanned with the scalar rule.

    A node's parent is the last ride on its label's path, or -1 if the
    path has none: a node won over a waiting edge repeats the label, ride
    set and depot of that edge's tail, and takes the tail's parent.

    Returns the best route per end depot; with collect='all' additionally
    every positive-reduced-saving candidate, one per distinct (ride set, end
    depot), extended to its sink along the waiting chain.

    Those candidates are the start node (the empty route) and every node
    that is the head of its own parent. That head is the earliest node with
    its ride set, so visiting nodes in time order and keeping the first node
    of each (ride set, end depot) keeps exactly these nodes, in that order.
    """
    w = weights if weights is not None else edge_weights(graph, duals)
    tail, head = graph.tail, graph.head
    n = len(graph.nodes)
    f = np.full(n, -math.inf)
    parent = np.full(n, -1, dtype=np.int64)
    start = graph.source[start_depot]
    f[start] = 0.0
    bounds = graph.window_bounds.tolist()
    n_rides = bounds[0][0]  # the first waiting edge: ride ids come first
    relaxed = 0
    for k, into in enumerate(graph.window_edges):
        if len(into):
            relaxed += len(into)
            _relax_entering(f, parent, into, tail[into], head[into], w[into],
                            n_rides)
        for s, e in zip(bounds[k], bounds[k + 1]):
            if e - s > 1:
                relaxed += e - s - 1
                _relax_chain(f, parent, head[s:e])

    edges = graph.edges
    beta = duals.beta.get(start_depot, 0.0)
    parents = parent.tolist()

    def reconstruct(node: int, reduced: float) -> Candidate:
        vids: list[int] = []
        saving = 0.0
        covered: list = []
        p = parents[node]
        while p >= 0:
            e = edges[p]
            vids.append(e.variant_id)
            saving += e.saving
            covered.extend(e.covered_tasks)
            p = parents[e.tail]
        vids.reverse()
        # multiset on purpose: pricing valued a twice-touched task twice
        return Candidate(reduced,
                         Route(start_depot, graph.node_depot(node),
                               tuple(vids), tuple(sorted(covered)), saving))

    best_per_end: dict[int, Candidate] = {}
    for d, sink in sorted(graph.sink.items()):
        if f[sink] > -math.inf:
            best_per_end[d] = reconstruct(
                sink, float(f[sink]) - beta - duals.delta.get(d, 0.0))

    if collect == "all":
        delta = np.empty(n)  # per node, its depot's end dual
        for j, (d, source) in enumerate(graph.source.items()):
            chain = head[bounds[0][j]:bounds[-1][j]]
            delta[source] = delta[chain] = duals.delta.get(d, 0.0)
        reduced = f - beta - delta
        keep = (parent >= 0) & (head[parent] == np.arange(n))
        keep[start] = True
        keep &= reduced > TOL_RC
        candidates = [reconstruct(v, rc) for v, rc in
                      zip(np.flatnonzero(keep).tolist(),
                          reduced[keep].tolist())]
    else:
        candidates = [c for c in best_per_end.values()
                      if c.reduced_saving > TOL_RC]

    return PricingResult(best_per_end, candidates, relaxed)


def _relax_entering(f: np.ndarray, parent: np.ndarray, into: np.ndarray,
                    tails: np.ndarray, heads: np.ndarray,
                    weights: np.ndarray, n_rides: int) -> None:
    """Label the heads of the edges into, sorted by (head, tail, edge id),
    whose tails are labelled already, as the scalar rule does. A head's
    parent is its winning edge if that is a ride (id below n_rides), else
    its tail's parent. A head that no edge reaches keeps -inf."""
    cand = f[tails] + weights
    via = np.where(into < n_rides, into, parent[tails])
    first = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
    best = np.maximum.reduceat(cand, first)
    sizes = np.empty_like(first)
    sizes[:-1] = first[1:] - first[:-1]
    sizes[-1] = len(into) - first[-1]
    top = np.repeat(best, sizes)
    hits = np.flatnonzero(cand == top)
    labelled = heads[first]
    f[labelled] = best
    parent[labelled] = via[hits[np.searchsorted(hits, first)]]
    if np.count_nonzero(cand + 1e-12 >= top) == len(hits):
        return
    # a candidate lies below its head's largest by at most 1e-12: the
    # scalar rule decides that head, over its candidates in order
    near = np.flatnonzero((cand != top) & (cand + 1e-12 >= top))
    groups = np.unique(np.searchsorted(first, near, side="right") - 1)
    for lo, size in zip(first[groups].tolist(), sizes[groups].tolist()):
        label, ride = -math.inf, -1
        for c, r in zip(cand[lo:lo + size].tolist(),
                        via[lo:lo + size].tolist()):
            if c > label + 1e-12:
                label, ride = c, r
        f[heads[lo]] = label
        parent[heads[lo]] = ride


def _relax_chain(f: np.ndarray, parent: np.ndarray, nodes: np.ndarray) -> None:
    """Relax the waiting edges along nodes, one depot's chain inside a
    window, as the scalar rule does; each node's label from the window's
    entering edges is set. A node the waiting edge wins takes the label and
    parent of the chain node the label came from."""
    own = f[nodes]
    run = np.maximum.accumulate(own)
    before, after = run[:-1], own[1:]
    wait = before > after
    if not (wait & (before <= after + 1e-12)).any():
        f[nodes] = run
        i = np.arange(len(nodes))
        i[1:][wait] = 0
        parent[nodes] = parent[nodes[np.maximum.accumulate(i)]]
        return
    # a waiting edge wins by at most 1e-12: the scalar rule along the chain
    label, ride = float(own[0]), int(parent[nodes[0]])
    for v, o in zip(nodes[1:].tolist(), after.tolist()):
        if label > o + 1e-12:
            f[v] = label
            parent[v] = ride
        else:
            label, ride = o, int(parent[v])


# --- the column-generation loop ---------------------------------------------


@dataclass
class IterationLog:
    iteration: int
    lp_objective: float
    columns_added: int
    pricing_ms: float
    master_ms: float
    phase: str


@dataclass
class CgResult:
    lp_bound: float
    ip_value: float
    gap_pct: float
    iterations: int
    columns_generated: int
    log: list[IterationLog]
    plan: Optional[Plan]
    converged: bool
    certified: bool
    ip_status: str
    pricing_s: float
    master_s: float
    ip_s: float
    total_s: float
    #: (edges relaxed, edge count of the graph priced) per pricing call
    edges_relaxed_per_call: list[tuple[int, int]] = field(default_factory=list)
    routes: list[Route] = field(default_factory=list)


def _chain_ok(variants, variant_ids: tuple[int, ...]) -> bool:
    """A route is real only if its variants chain in the original timeline:
    matching depots and non-decreasing depot times between consecutive rides.
    Reduced graphs can suggest chains that fail this; those are discarded."""
    prev = None
    for vid in variant_ids:
        v = variants[vid]
        if prev is not None and (prev.end_depot != v.start_depot
                                 or prev.arrive_s > v.depart_s):
            return False
        prev = v
    return True


def _price_iteration(pgraph: TimeSpaceGraph, duals: DualPrices, scheme: str,
                     depot_ids: list[int],
                     relax_counts: list[tuple[int, int]]) -> list[Candidate]:
    """Price from each start depot in turn and pick the columns to add.

    A start depot's candidates are its best routes to each end depot, in
    end-depot order, that price above TOL_RC ('multiple': every positive
    candidate of collect='all'). 'first' stops at the first start depot
    with a candidate and returns that candidate alone, so later depots are
    not priced; 'firstdep' keeps every candidate; 'best' keeps the one of
    highest reduced saving, a later one replacing it only if higher by more
    than 1e-12; 'multiple' keeps every candidate, sorted by reduced saving
    (highest first), then start depot, end depot and variant ids.
    """
    weights = edge_weights(pgraph, duals)
    n_edges = len(pgraph.edges)
    picked: list[Candidate] = []
    for d0 in depot_ids:
        res = price(pgraph, duals, d0,
                    collect="all" if scheme == "multiple" else "best",
                    weights=weights)
        relax_counts.append((res.edges_relaxed, n_edges))
        if scheme == "best":
            for c in res.candidates:
                if not picked or c.reduced_saving > picked[0].reduced_saving + 1e-12:
                    picked = [c]
            continue
        picked.extend(res.candidates)
        if scheme == "first" and picked:
            return picked[:1]
    if scheme == "multiple":
        picked.sort(key=lambda c: (-c.reduced_saving, c.route.start_depot,
                                   c.route.end_depot, c.route.variant_ids))
    return picked


def solve_restricted_ip(instance: Instance, graph: TimeSpaceGraph,
                        master: RestrictedMaster,
                        time_limit_s: Optional[float] = None
                        ) -> tuple[float, Optional[Plan], str]:
    """Integer-solve the master over the generated columns and decode the
    chosen routes into vehicle itineraries.

    A relocation column is an empty route between two different depots.
    RELOCATION_PENALTY dwarfs any route's saving, so the IP takes one only
    when no plan without one exists among the columns. Such a solution is
    no plan: it reports no plan and the status 'infeasible' ('time_limit'
    if the search was cut short)."""
    res = milp.solve_ip(master.problem, time_limit_s=time_limit_s)
    if res.x is None:
        return math.nan, None, res.status
    routes = [route for route, x in zip(master.routes, res.x)
              for _ in range(int(round(x)))]
    if any(r.start_depot != r.end_depot and not r.variant_ids
           for r in routes):
        return math.nan, None, \
            "infeasible" if res.status == "optimal" else res.status
    plan = build_plan(instance, graph.variants, routes)
    return float(res.objective), plan, res.status


def run(instance: Instance, graph: TimeSpaceGraph, scheme: str = "multiple",
        heuristic: str = "none", early_stop: Optional[int] = None,
        time_limit_s: Optional[float] = None,
        initial_routes: Optional[Iterable[Route]] = None) -> CgResult:
    """Delayed column generation followed by the restricted-master IP.

    Iterates: solve the restricted LP, price once per start depot on the
    current phase's graph, add columns according to the scheme, until no
    column prices above the threshold or a limit is hit. A heuristic phase
    never resumes once the exact phase has started.

    early_stop caps the pricing iterations. time_limit_s bounds the whole
    call: the loop stops after the first LP solve past it, and the IP gets
    what is left (possibly 0.0, which still evaluates its root). An LP that
    is running when the time runs out finishes.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'")
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic '{heuristic}'")
    if early_stop is not None and early_stop < 1:
        raise ValueError(f"early_stop must be >= 1 or None, got {early_stop}")
    if time_limit_s is not None and not time_limit_s >= 0:
        raise ValueError(f"time_limit_s must be >= 0 or None, got {time_limit_s}")
    t_start = time.perf_counter()

    # the graph being priced: the heuristic's reduction until the exact phase
    pgraph = REDUCTIONS[heuristic](graph) if heuristic != "none" else graph
    phase = "exact" if heuristic == "none" else "heuristic"

    master = RestrictedMaster(instance)
    for r in initial_routes or ():
        master.add_route(r)
    n_seed = len(master.routes)
    depot_ids = sorted(d.id for d in instance.depots)

    log: list[IterationLog] = []
    relax_counts: list[tuple[int, int]] = []
    pricing_s = 0.0
    master_s = 0.0
    iterations = 0
    converged = False
    certified = False
    # a limit stops the loop after its next LP solve, so lp_bound is the LP
    # value over the final column set and lp_bound >= ip_value holds
    limit_hit = False

    while True:
        t_m = time.perf_counter()
        lp_bound, duals = master.solve_lp()
        dt_master = time.perf_counter() - t_m
        master_s += dt_master
        if limit_hit:
            break
        iterations += 1

        t_p = time.perf_counter()
        picked = _price_iteration(pgraph, duals, scheme, depot_ids, relax_counts)
        if phase == "heuristic":
            picked = [c for c in picked
                      if _chain_ok(graph.variants, c.route.variant_ids)]
        dt_pricing = time.perf_counter() - t_p
        pricing_s += dt_pricing

        added = sum(master.add_route(c.route) for c in picked)
        log.append(IterationLog(iterations, lp_bound, added,
                                round(dt_pricing * 1000.0, 3),
                                round(dt_master * 1000.0, 3), phase))

        if added == 0:
            if phase == "heuristic":
                phase, pgraph = "exact", graph
                continue
            converged = True
            certified = not picked
            break
        limit_hit = ((early_stop is not None and iterations >= early_stop)
                     or (time_limit_s is not None
                         and time.perf_counter() - t_start > time_limit_s))

    t0 = time.perf_counter()
    ip_limit_s = None if time_limit_s is None else \
        max(0.0, time_limit_s - (t0 - t_start))
    ip_value, plan, ip_status = solve_restricted_ip(instance, graph, master,
                                                    ip_limit_s)
    ip_s = time.perf_counter() - t0

    if math.isnan(ip_value):
        gap_pct = math.nan
    elif abs(ip_value) > 1e-9:
        gap_pct = 100.0 * (lp_bound - ip_value) / abs(ip_value)
    else:
        gap_pct = 0.0 if abs(lp_bound - ip_value) <= 1e-6 else math.nan

    return CgResult(
        lp_bound=lp_bound,
        ip_value=ip_value,
        gap_pct=gap_pct,
        iterations=iterations,
        columns_generated=len(master.routes) - n_seed,
        log=log,
        plan=plan,
        converged=converged,
        certified=certified,
        ip_status=ip_status,
        pricing_s=pricing_s,
        master_s=master_s,
        ip_s=ip_s,
        total_s=time.perf_counter() - t_start,
        edges_relaxed_per_call=relax_counts,
        routes=list(master.routes),
    )


def solve_single_assignment(instance: Instance, graph: TimeSpaceGraph,
                            base_variants, time_limit_s: Optional[float] = None
                            ) -> tuple[float, Optional[Plan], str]:
    """User-dependent baseline: a car, if assigned, is bound to one user's
    whole day, so routes are restricted to a single share-free trip."""
    master = RestrictedMaster(instance)
    for v in base_variants:
        master.add_route(Route(v.start_depot, v.end_depot, (v.id,), v.covered,
                               v.saving_eur))
    return solve_restricted_ip(instance, graph, master, time_limit_s)
