"""Trip-variant enumeration and the time-space auxiliary graph.

Every depot-to-depot trip of a user, together with one optional co-rider
insertion per leg, becomes one ride edge between depot-time nodes. Waiting
edges chain consecutive times at each depot, so a path from some (d, sigma)
to some (d', tau) is exactly one vehicle's day. Three heuristic graph
reductions (time bucketing, per-user pruning, negative-edge removal) are
provided for heuristic pricing phases.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    CAR,
    Instance,
    Task,
    UserTrip,
    ValidationError,
    cheapest_other_mot,
    leg_cost,
    leg_saving_plain,
    leg_saving_share,
    travel_time,
    trip_legs,
)


class GraphConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class Caps:
    """Enumeration limits; None disables a cap."""

    max_shares_per_trip: Optional[int] = 3
    max_variants_per_user: Optional[int] = 200

    def __post_init__(self):
        for name, cap in vars(self).items():
            if cap is not None and cap < 0:
                raise ValidationError(f"{name} must be >= 0 or None, got {cap}")


@dataclass(slots=True)
class TripVariant:
    """One enumerated depot-to-depot trip with its ride-share insertions.

    covered lists the sorted ids of the tasks it reaches: all of the driver's
    tasks plus, for each share, the real tasks at the rider leg's endpoints
    (each id once). shares lists (driver_leg_index, rider_id,
    rider_leg_index) triples.

    Variants and edges are never changed once built, but are not frozen: a
    frozen dataclass sets each field through object.__setattr__, which made
    building one 2.2 us against 0.36 us, and a solve builds tens of
    thousands of them.
    """

    id: int
    driver: int
    start_depot: int
    end_depot: int
    depart_s: int
    arrive_s: int
    saving_eur: float
    covered: tuple[int, ...]
    shares: tuple[tuple[int, int, int], ...]


@dataclass
class EnumStats:
    """Counters of one enumeration.

    feasibility_checks counts the candidate (driver leg, rider leg) pairs:
    for every leg of every driver, each leg of every other user, depot legs
    included. Pairs dismissed without a timeline simulation, by the
    time-window bound or because the rider leg has a depot end, still count,
    so the figure depends on the instance alone. The legs of a driver who
    gets no variant, because the car cannot drive one of them on time, are
    not counted.
    """

    n_variants: int = 0
    truncated_users: tuple[int, ...] = ()
    feasibility_checks: int = 0


@dataclass
class VariantSet:
    by_user: dict[int, list[TripVariant]]
    stats: EnumStats

    @property
    def all(self) -> list[TripVariant]:
        return [v for vs in self.by_user.values() for v in vs]


def feasible_share(instance: Instance, driver: UserTrip, driver_leg: int,
                   rider: UserTrip, rider_leg: int) -> bool:
    """Can the driver cover the rider's leg inside their own leg by car?

    The rider's leg must connect two of their tasks (depot ends are not
    pick-up or drop-off points); any leg of the driver's trip may host it.
    See _share_times for the timeline.
    """
    if driver.user_id == rider.user_id:
        return False
    du, dv = trip_legs(instance, driver)[driver_leg]
    ru, rv = trip_legs(instance, rider)[rider_leg]
    if ru.is_depot_endpoint or rv.is_depot_endpoint:
        return False  # riders are served between two of their tasks only
    tt_r = travel_time(ru.loc, rv.loc, CAR, instance.mots)
    return _share_times(du, dv, ru, rv, tt_r, instance.mots) is not None


def _share_times(du: Task, dv: Task, ru: Task, rv: Task, tt_r: int,
                 mots) -> Optional[tuple[int, int]]:
    """The car timeline of the rider leg (ru, rv), whose car time is tt_r,
    inside the driver leg (du, dv): detour to the pickup (waiting for the
    rider if early), drop the rider off by their deadline, then reach the
    driver's own destination in time. Coincident pickup/drop-off locations
    skip their detour leg. Returns the arrival at dv after leaving du at its
    earliest departure, and the latest departure from du that still meets
    every deadline; None if leaving at the earliest departure misses one."""
    to_pickup = 0 if du.loc == ru.loc else travel_time(du.loc, ru.loc, CAR, mots)
    t = max(du.earliest_departure_s + to_pickup, ru.earliest_departure_s) + tt_r
    if t > rv.latest_arrival_s:
        return None
    to_dest = 0 if rv.loc == dv.loc else travel_time(rv.loc, dv.loc, CAR, mots)
    if t + to_dest > dv.latest_arrival_s:
        return None
    depart = min(dv.latest_arrival_s - to_dest, rv.latest_arrival_s) - tt_r - to_pickup
    return t + to_dest, depart


class _Leg(NamedTuple):
    """A leg of a user's depot-extended sequence, with what depends on the
    leg alone, for when the user drives it and when they ride it."""

    user: UserTrip
    idx: int  # position in trip_legs
    u: Task
    v: Task
    tt_s: int  # car time
    car_cost: float  # leg_cost by car
    fallback: float  # cheapest_other_mot cost
    ready_s: int  # earliest arrival by car: earliest departure plus car time


class _LegOption(NamedTuple):
    """One way to drive a driver leg: alone (rider None), or with a rider
    leg on board. arrive_s: arrival at the leg's end after its earliest
    departure. depart_s: latest departure from the leg's origin; set on every
    leg, but only the first leg's value, the trip's depot departure, is read."""

    saving: float
    arrive_s: int
    depart_s: int
    rider: Optional[_Leg] = None


def enumerate_variants(instance: Instance, caps: Caps = None,
                       joint_k: bool = False) -> VariantSet:
    """Enumerate, per user, the share-free base trip plus every capped
    combination of feasible one-rider-per-leg insertions. A user with a leg
    the car cannot drive on time, leaving at the leg's earliest departure,
    gets no variant: their tasks fall back to other modes.

    Each leg's options are the plain leg, then its shares by falling saving
    (ties broken by rider id, then rider leg). One loop, with no depth limit,
    walks one option per leg depth first in itertools.product order, so the
    base variant comes first. It does not extend a prefix that takes a rider
    leg twice or carries more than max_shares_per_trip riders, and it adds
    the savings left to right from 0, as trip_saving does. At the variant
    after max_variants_per_user it stops and records the user as truncated
    in the stats, never an error.

    Each leg is measured once (car time, car cost, cheapest other mode) and
    serves its own driver and every driver who might take its user along.

    A share needs ru.earliest + tt_r <= min(rv.latest, dv.latest) and
    du.earliest <= rv.latest - tt_r for rider leg (ru, rv) with car time tt_r
    and driver leg (du, dv), since the car reaches the pickup no earlier than
    either party is ready there. Rider legs kept sorted by ru.earliest + tt_r
    let a bisection drop those that miss a driver leg's deadline; only the
    rest get the exact timeline simulation. The bound rejects no pair the
    simulation accepts, so the output is that of simulating every pair.
    """
    caps = caps or Caps()
    mots, costs = instance.mots, instance.costs
    stats = EnumStats()
    truncated: list[int] = []
    by_user: dict[int, list[TripVariant]] = {}
    next_id = 0

    legs_of: dict[int, list[_Leg]] = {}
    for user in instance.users:
        legs_of[user.user_id] = legs = []
        for idx, (u, v) in enumerate(trip_legs(instance, user)):
            tt = travel_time(u.loc, v.loc, CAR, mots)
            legs.append(_Leg(
                user, idx, u, v, tt, leg_cost(u.loc, v.loc, CAR, mots, costs),
                cheapest_other_mot(user, u.loc, v.loc, u.earliest_departure_s,
                                   v.latest_arrival_s, mots, costs)[1],
                u.earliest_departure_s + tt))
    n_legs = sum(len(legs) for legs in legs_of.values())
    # riders are served between two of their tasks only, and on time
    riders = sorted((r for legs in legs_of.values() for r in legs
                     if not (r.u.is_depot_endpoint or r.v.is_depot_endpoint)
                     and r.ready_s <= r.v.latest_arrival_s),
                    key=lambda r: r.ready_s)
    ready = [r.ready_s for r in riders]

    for driver in instance.users:
        legs = legs_of[driver.user_id]
        if any(leg.ready_s > leg.v.latest_arrival_s for leg in legs):
            by_user[driver.user_id] = []
            continue
        options: list[list[_LegOption]] = []
        for leg in legs:
            du, dv = leg.u, leg.v
            base = _LegOption(leg.fallback - leg.car_cost, leg.ready_s,
                              dv.latest_arrival_s - leg.tt_s)
            share_options: list[_LegOption] = []
            stats.feasibility_checks += n_legs - len(legs)
            fits_by = bisect_right(ready, dv.latest_arrival_s)
            for r in riders[:fits_by]:
                if (r.user.user_id == driver.user_id
                        or du.earliest_departure_s + r.tt_s > r.v.latest_arrival_s):
                    continue
                times = _share_times(du, dv, r.u, r.v, r.tt_s, mots)
                if times is None:
                    continue
                sav = leg_saving_share(
                    driver, du, dv, r.user, r.u, r.v, mots, costs,
                    joint_k=joint_k,
                    leg_costs=(leg.fallback, r.fallback, r.car_cost))
                share_options.append(_LegOption(sav, *times, r))
            share_options.sort(
                key=lambda o: (-o.saving, o.rider.user.user_id, o.rider.idx))
            options.append([base] + share_options)

        own_tasks = {t.id for t in driver.tasks}
        variants: list[TripVariant] = []
        max_v, max_s = caps.max_variants_per_user, caps.max_shares_per_trip
        # Prefixes to extend, the next on top: (legs chosen, first leg's
        # option, last option, saving, shares, rider legs taken, rider task
        # ids). Options go on in reverse, so they come off in list order.
        stack = [(0, None, None, 0, (), frozenset(), ())]
        while stack:
            leg, first, last, saving, shares, taken, rider_tasks = stack.pop()
            if leg == len(options):
                if max_v is not None and len(variants) >= max_v:
                    truncated.append(driver.user_id)
                    break
                variants.append(TripVariant(
                    next_id, driver.user_id, driver.start_depot, driver.end_depot,
                    first.depart_s, last.arrive_s, float(saving),
                    tuple(sorted(own_tasks.union(rider_tasks))), shares))
                next_id += 1
                continue
            for o in reversed(options[leg]):
                grown = shares, taken, rider_tasks
                if o.rider is not None:
                    key = (o.rider.user.user_id, o.rider.idx)
                    if key in taken or (max_s is not None and len(shares) >= max_s):
                        continue
                    # no rider leg has a depot end
                    grown = (shares + ((leg, *key),), taken | {key},
                             rider_tasks + (o.rider.u.id, o.rider.v.id))
                stack.append((leg + 1, first if leg else o, o, saving + o.saving,
                              *grown))
        by_user[driver.user_id] = variants

    stats.n_variants = next_id
    stats.truncated_users = tuple(truncated)
    return VariantSet(by_user, stats)


def variant_leg_savings(instance: Instance, variant: TripVariant) -> list[float]:
    """Recompute the per-leg savings of a variant from scratch (for checks)."""
    driver = instance.user(variant.driver)
    legs = trip_legs(instance, driver)
    share_by_leg = {leg: (rid, rleg) for leg, rid, rleg in variant.shares}
    out = []
    for idx, (du, dv) in enumerate(legs):
        if idx in share_by_leg:
            rid, rleg = share_by_leg[idx]
            rider = instance.user(rid)
            ru, rv = trip_legs(instance, rider)[rleg]
            out.append(leg_saving_share(driver, du, dv, rider, ru, rv,
                                        instance.mots, instance.costs))
        else:
            out.append(leg_saving_plain(driver, du, dv,
                                        instance.mots, instance.costs))
    return out


# --- time-space graph -------------------------------------------------------

RIDE = "ride"
WAIT = "wait"


@dataclass(slots=True)
class Edge:
    id: int
    tail: int
    head: int
    kind: str
    saving: float = 0.0
    variant_id: Optional[int] = None
    covered_tasks: tuple[int, ...] = ()


@dataclass
class TimeSpaceGraph:
    """DAG over depot-time nodes: ride edges (one per variant) plus the
    waiting chain of every depot.

    Every ride edge has a lower id than every waiting edge. Nodes are sorted
    by time, then depot, and every edge strictly increases time, so visiting
    the nodes in order and each node's out_edges in edge-id order relaxes
    every edge after all edges into its tail. Per edge, indexed by edge id:
    tail and head (node indices) and saving (the ride saving, 0 for waiting
    edges). task_ids lists every task some ride edge covers, sorted; the
    cover pairs (cover_edge[k], cover_task[k]) say that edge cover_edge[k]
    covers task task_ids[cover_task[k]], listed edge by edge in
    covered_tasks order.

    The nodes also fall into windows, runs of consecutive node indices: a
    window starts at node v when some ride into v has its tail in the
    current window, so every ride's tail lies in an earlier window than its
    head. The waiting edges of each depot's chain are consecutive ids, the
    depots in `source` order. window_bounds[k, j] is the id of the first
    waiting edge of the j-th chain whose head lies in window k or a later
    one, and row K (the window count) holds one past each chain's last edge.
    So the heads of edges window_bounds[k, j] to window_bounds[k + 1, j] - 1
    are the chain's nodes in window k. The first of those edges enters the
    window from an earlier one (in window 0, from the depot's source); the
    others link two nodes of window k. window_edges[k] lists the edges that
    enter window k: its ride in-edges and the entering waiting edge of each
    chain, sorted by (head, tail, edge id).
    """

    nodes: list[tuple[int, int]]
    edges: list[Edge]
    source: dict[int, int]
    sink: dict[int, int]
    out_edges: list[list[int]]
    variants: dict[int, TripVariant]
    sigma_s: int
    tau_s: int
    tail: np.ndarray
    head: np.ndarray
    saving: np.ndarray
    task_ids: list[int]
    cover_edge: np.ndarray
    cover_task: np.ndarray
    window_bounds: np.ndarray
    window_edges: list[np.ndarray]

    @property
    def ride_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == RIDE]

    @property
    def waiting_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == WAIT]

    def node_depot(self, idx: int) -> int:
        return self.nodes[idx][0]

    def node_time(self, idx: int) -> int:
        return self.nodes[idx][1]


def _assemble(depot_ids: Sequence[int], sigma: int, tau: int,
              rides: list[tuple[tuple[int, int], tuple[int, int], TripVariant]],
              extra_nodes: Iterable[tuple[int, int]] = ()) -> TimeSpaceGraph:
    """Graph of one ride edge per (tail, head, variant) triple, in the given
    order, from node key tail to node key head with the variant's saving,
    then the waiting chain of each depot in depot_ids order over every node
    key: both horizon ends, the ride endpoints and extra_nodes."""
    keys = {(d, sigma) for d in depot_ids} | {(d, tau) for d in depot_ids}
    keys.update(extra_nodes)
    for tail, head, _ in rides:
        keys.add(tail)
        keys.add(head)
    nodes = sorted(keys, key=lambda k: (k[1], k[0]))
    index = {k: i for i, k in enumerate(nodes)}

    edges: list[Edge] = []
    for tail, head, var in rides:
        edges.append(Edge(len(edges), index[tail], index[head], RIDE,
                          var.saving_eur, var.id, var.covered))
    chain_starts = []
    for d in depot_ids:
        chain_starts.append(len(edges))
        times = sorted({t for dd, t in keys if dd == d})
        for t0, t1 in zip(times[:-1], times[1:]):
            edges.append(Edge(len(edges), index[(d, t0)], index[(d, t1)], WAIT))
    chain_starts.append(len(edges))

    out_edges = [[] for _ in nodes]
    for e in edges:
        out_edges[e.tail].append(e.id)
    task_ids = sorted({t for e in edges for t in e.covered_tasks})
    task_pos = {t: i for i, t in enumerate(task_ids)}
    cover_edge = [e.id for e in edges for _ in e.covered_tasks]
    cover_task = [task_pos[t] for e in edges for t in e.covered_tasks]
    tail_of = np.array([e.tail for e in edges], dtype=np.int64)
    head_of = np.array([e.head for e in edges], dtype=np.int64)
    window_bounds, window_edges = _windows(len(nodes), len(rides), tail_of,
                                           head_of, chain_starts)
    return TimeSpaceGraph(
        nodes=nodes,
        edges=edges,
        source={d: index[(d, sigma)] for d in depot_ids},
        sink={d: index[(d, tau)] for d in depot_ids},
        out_edges=out_edges,
        variants={var.id: var for _, _, var in rides},
        sigma_s=sigma,
        tau_s=tau,
        tail=tail_of,
        head=head_of,
        saving=np.array([e.saving for e in edges], dtype=float),
        task_ids=task_ids,
        cover_edge=np.array(cover_edge, dtype=np.int64),
        cover_task=np.array(cover_task, dtype=np.int64),
        window_bounds=window_bounds,
        window_edges=window_edges,
    )


def _windows(n_nodes: int, n_rides: int, tail: np.ndarray, head: np.ndarray,
             chain_starts: list[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """window_bounds and window_edges (see TimeSpaceGraph) of a graph whose
    first n_rides edges are its rides and whose j-th waiting chain is edges
    chain_starts[j] to chain_starts[j + 1] - 1."""
    latest_tail = np.full(n_nodes, -1, dtype=np.int64)
    np.maximum.at(latest_tail, head[:n_rides], tail[:n_rides])
    starts = [0]
    for v, t in enumerate(latest_tail.tolist()):
        if t >= starts[-1]:
            starts.append(v)
    bounds = np.array(
        [[*(lo + np.searchsorted(head[lo:hi], starts)), hi]
         for lo, hi in zip(chain_starts[:-1], chain_starts[1:])],
        dtype=np.int64).reshape(-1, len(starts) + 1).T
    entering = bounds[:-1][bounds[:-1] < bounds[1:]]
    into = np.concatenate([np.arange(n_rides), entering])
    into = into[np.lexsort((into, tail[into], head[into]))]
    cuts = np.searchsorted(head[into], starts[1:])
    return bounds, np.split(into, cuts)


def build_graph(instance: Instance,
                variants: VariantSet | Iterable[TripVariant]) -> TimeSpaceGraph:
    """Assemble the auxiliary graph from enumerated variants.

    One ride edge per variant between (start_depot, depart) and
    (end_depot, arrive); parallel edges are kept (it is a multigraph), and a
    variant whose times leave [sigma, tau], that does not arrive after it
    departs, or whose saving is not finite is a construction error.
    """
    flat = variants.all if isinstance(variants, VariantSet) else list(variants)
    sigma, tau = instance.sigma_s, instance.tau_s
    rides = []
    for v in flat:
        if not (sigma <= v.depart_s and v.arrive_s <= tau):
            raise GraphConstructionError(
                f"variant {v.id} times [{v.depart_s}, {v.arrive_s}] leave the "
                f"horizon [{sigma}, {tau}]"
            )
        if v.depart_s >= v.arrive_s:
            raise GraphConstructionError(f"variant {v.id} arrives at {v.arrive_s}, "
                                         f"not after it departs at {v.depart_s}")
        if not math.isfinite(v.saving_eur):
            raise GraphConstructionError(f"variant {v.id} saving is {v.saving_eur}")
        rides.append(((v.start_depot, v.depart_s), (v.end_depot, v.arrive_s), v))
    return _assemble([d.id for d in instance.depots], sigma, tau, rides)


def reduce_statespace(graph: TimeSpaceGraph, bucket_s: int = 600) -> TimeSpaceGraph:
    """Merge same-depot nodes falling in one time bucket; the merged node
    takes the latest original time in the bucket. Among parallel edges that
    collapse onto the same endpoints only the highest-saving one survives."""
    depot_ids = sorted(graph.source)
    merged_time: dict[tuple[int, int], int] = {}
    buckets: dict[tuple[int, int], int] = {}
    for d, t in graph.nodes:
        if t in (graph.sigma_s, graph.tau_s):
            continue
        key = (d, t // bucket_s)
        buckets[key] = max(buckets.get(key, t), t)
    for d, t in graph.nodes:
        if t in (graph.sigma_s, graph.tau_s):
            merged_time[(d, t)] = t
        else:
            merged_time[(d, t)] = buckets[(d, t // bucket_s)]

    best: dict[tuple, tuple] = {}
    for e in graph.ride_edges:
        td, tt = graph.nodes[e.tail]
        hd, ht = graph.nodes[e.head]
        tail = (td, merged_time[(td, tt)])
        head = (hd, merged_time[(hd, ht)])
        if tail[1] >= head[1]:
            continue  # would no longer strictly increase in time
        key = (tail, head)
        var = graph.variants[e.variant_id]
        if key not in best or (e.saving, -var.id) > (best[key][2].saving_eur,
                                                      -best[key][2].id):
            best[key] = (tail, head, var)

    rides = sorted(best.values(), key=lambda r: r[2].id)
    return _assemble(depot_ids, graph.sigma_s, graph.tau_s, rides)


def reduce_prune(graph: TimeSpaceGraph) -> TimeSpaceGraph:
    """Keep, per user, only the highest-saving ride edge and collapse that
    user's departure/arrival times onto the times of their first variant."""
    depot_ids = sorted(graph.source)
    by_driver: dict[int, list[Edge]] = {}
    for e in graph.ride_edges:
        by_driver.setdefault(graph.variants[e.variant_id].driver, []).append(e)

    rides = []
    for driver in sorted(by_driver):
        edges = by_driver[driver]
        first = min(edges, key=lambda e: e.variant_id)
        kept = max(edges, key=lambda e: (e.saving, -e.variant_id))
        rides.append((graph.nodes[first.tail], graph.nodes[first.head],
                      graph.variants[kept.variant_id]))
    return _assemble(depot_ids, graph.sigma_s, graph.tau_s, rides)


def drop_negative(graph: TimeSpaceGraph) -> TimeSpaceGraph:
    """Remove ride edges with negative saving; waiting chain stays intact."""
    depot_ids = sorted(graph.source)
    rides = [(graph.nodes[e.tail], graph.nodes[e.head],
              graph.variants[e.variant_id])
             for e in graph.ride_edges if e.saving >= 0]
    return _assemble(depot_ids, graph.sigma_s, graph.tau_s, rides,
                     extra_nodes=graph.nodes)


def dump_edges(graph: TimeSpaceGraph, path):
    """Debug CSV of the edge list (ride edges first, then waiting edges)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tail_depot", "tail_s", "head_depot", "head_s",
                    "variant_id", "saving_eur"])
        for e in graph.edges:
            td, tt = graph.nodes[e.tail]
            hd, ht = graph.nodes[e.head]
            if e.kind == RIDE:
                w.writerow([td, tt, hd, ht, e.variant_id, f"{e.saving:.6f}"])
            else:
                w.writerow([td, tt, hd, ht, "", "0.000000"])
