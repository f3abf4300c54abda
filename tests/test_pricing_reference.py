"""Differential test of colgen.price against the label pass it replaced.

The reference below prices from the Edge objects alone: it builds the
weights edge by edge, relaxes the edges in (tail time, tail depot, edge id)
order, and for collect='all' rebuilds the path of every node with a positive
reduced saving, keeping the first node of each (ride set, end depot). The
production code must return the same weights, the same best route per end
depot and the same candidate list (every field, floats bit for bit, same
order), under duals recorded from real column-generation runs and under
random duals, on the exact graph and on all three reductions.
"""

from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

from conftest import SIGMA, TAU, make_instance
from mmcrp import colgen
from mmcrp.cli import split_fleet
from mmcrp.colgen import (
    Candidate,
    DualPrices,
    PricingResult,
    Route,
    edge_weights,
    price,
)
from mmcrp.instgen import GenParams, generate
from mmcrp.milp import TOL_RC
from mmcrp.ridegraph import (
    RIDE,
    TripVariant,
    build_graph,
    drop_negative,
    enumerate_variants,
    reduce_prune,
    reduce_statespace,
)


def ref_topo_edges(graph):
    return sorted((e.id for e in graph.edges),
                  key=lambda eid: (graph.nodes[graph.edges[eid].tail][1],
                                   graph.nodes[graph.edges[eid].tail][0], eid))


def ref_edge_weights(graph, duals):
    edges = graph.edges
    base = np.array([e.saving if e.kind == RIDE else 0.0 for e in edges])
    task_ids = sorted({t for e in edges for t in e.covered_tasks})
    task_pos = {t: i for i, t in enumerate(task_ids)}
    flat_edge = [e.id for e in edges for _ in e.covered_tasks]
    flat_task = [task_pos[t] for e in edges for t in e.covered_tasks]
    if not flat_edge:
        return base.copy()
    alpha_vec = np.array([duals.alpha.get(t, 0.0) for t in task_ids])
    sums = np.bincount(np.array(flat_edge, dtype=np.int64),
                       weights=alpha_vec[np.array(flat_task, dtype=np.int64)],
                       minlength=len(edges))
    return base - sums


def ref_price(graph, duals, start_depot, collect, w):
    edges = graph.edges
    n = len(graph.nodes)
    f = [-math.inf] * n
    parent = [-1] * n
    f[graph.source[start_depot]] = 0.0
    relaxed = 0
    for eid in ref_topo_edges(graph):
        relaxed += 1
        e = edges[eid]
        if f[e.tail] == -math.inf:
            continue
        cand = f[e.tail] + w[eid]
        if cand > f[e.head] + 1e-12:
            f[e.head] = cand
            parent[e.head] = eid

    beta = duals.beta.get(start_depot, 0.0)

    def reconstruct(node):
        vids, saving, covered = [], 0.0, []
        v = node
        while parent[v] >= 0:
            e = edges[parent[v]]
            if e.kind == RIDE:
                vids.append(e.variant_id)
                saving += e.saving
                covered.extend(graph.variants[e.variant_id].covered)
            v = e.tail
        vids.reverse()
        end_d = graph.nodes[node][0]
        rc = f[node] - beta - duals.delta.get(end_d, 0.0)
        return Candidate(rc, Route(start_depot, end_d, tuple(vids),
                                   tuple(sorted(covered)), saving))

    best_per_end = {d: reconstruct(sink)
                    for d, sink in sorted(graph.sink.items())
                    if f[sink] > -math.inf}
    candidates = []
    if collect == "all":
        seen = set()
        for v in range(n):
            if f[v] == -math.inf:
                continue
            d = graph.nodes[v][0]
            if f[v] - beta - duals.delta.get(d, 0.0) <= TOL_RC:
                continue
            cand = reconstruct(v)
            key = (frozenset(cand.route.variant_ids), d)
            if key not in seen:
                seen.add(key)
                candidates.append(cand)
    else:
        candidates = [c for c in best_per_end.values()
                      if c.reduced_saving > TOL_RC]
    return PricingResult(best_per_end, candidates, relaxed)


def recorded_duals(instance, graph) -> list[DualPrices]:
    """The duals of every iteration of a default column-generation run."""
    with mock.patch.object(colgen, "_price_iteration",
                           wraps=colgen._price_iteration) as spy:
        colgen.run(instance, graph=graph)
    return [call.args[1] for call in spy.call_args_list]


def random_duals(instance, rng) -> DualPrices:
    return DualPrices(
        alpha={t.id: abs(rng.gauss(0, 40.0)) for t in instance.all_tasks()},
        beta={d.id: rng.gauss(0, 20.0) for d in instance.depots},
        delta={d.id: rng.gauss(0, 20.0) for d in instance.depots},
    )


def assert_same_pricing(instance, graph, duals_list) -> int:
    """Compare every start depot and both collect modes; return the number
    of collect='all' candidates compared."""
    graphs = [graph, reduce_statespace(graph), reduce_prune(graph),
              drop_negative(graph)]
    compared = 0
    for g in graphs:
        assert [eid for out in g.out_edges for eid in out] == ref_topo_edges(g)
        for duals in duals_list:
            w = edge_weights(g, duals)
            assert np.array_equal(w, ref_edge_weights(g, duals))
            for d0 in sorted(g.source):
                for collect in ("all", "best"):
                    got = price(g, duals, d0, collect=collect, weights=w)
                    want = ref_price(g, duals, d0, collect, w)
                    assert got.candidates == want.candidates
                    assert got.best_per_end == want.best_per_end
                    assert got.edges_relaxed == want.edges_relaxed == len(g.edges)
                    compared += len(got.candidates) if collect == "all" else 0
    return compared


@pytest.mark.parametrize("n_users,seed", [(8, s) for s in range(12)]
                         + [(20, s) for s in range(12)])
def test_price_matches_reference(n_users, seed):
    instance = generate(GenParams(n_users=n_users, seed=seed,
                                  vehicles_per_depot=1 + seed % 3))
    graph = build_graph(instance, enumerate_variants(instance))
    rng = random.Random(1000 * n_users + seed)
    duals = recorded_duals(instance, graph)
    duals += [random_duals(instance, rng) for _ in range(3)]
    assert assert_same_pricing(instance, graph, duals) > 0


def test_price_matches_reference_u80():
    instance = generate(GenParams(n_users=80, seed=0,
                                  vehicles_per_depot=split_fleet(11, 2)))
    graph = build_graph(instance, enumerate_variants(instance))
    rng = random.Random(80)
    duals = recorded_duals(instance, graph)
    duals += [random_duals(instance, rng) for _ in range(2)]
    assert assert_same_pricing(instance, graph, duals) > 100


# --- the exact rule on hand-built graphs ------------------------------------
#
# price relaxes whole windows at once, yet must keep the label pass's rule:
# a head's in-edges are relaxed in (tail node, edge id) order, and a later
# edge replaces the label only if it wins by more than 1e-12. These graphs
# put candidates exactly equal, or within 1e-12 of each other, where a plain
# first argmax would pick another edge. Each ride has its own variant, so
# the edge a label came from shows in the routes priced.


def ride_graph(rides, n_depots=1):
    """Graph of one ride per (tail depot, tail offset, head depot, head
    offset), with offsets in seconds after SIGMA; variant i is rides[i]."""
    inst = make_instance([(0.0, 0.0), (10.0, 10.0)][:n_depots], [],
                         vehicles=(1,) * n_depots)
    variants = [TripVariant(i, 0, td, hd, SIGMA + t0, SIGMA + t1, 0.0, (), ())
                for i, (td, t0, hd, t1) in enumerate(rides)]
    return build_graph(inst, variants)


def assert_exact(graph, ride_weights):
    """price equals the reference label pass under these ride weights."""
    w = np.zeros(len(graph.edges))
    w[:len(ride_weights)] = ride_weights
    duals = DualPrices({}, {}, {})
    for d0 in sorted(graph.source):
        for collect in ("all", "best"):
            got = price(graph, duals, d0, collect=collect, weights=w)
            want = ref_price(graph, duals, d0, collect, w)
            assert got.candidates == want.candidates
            assert got.best_per_end == want.best_per_end
            assert got.edges_relaxed == want.edges_relaxed == len(graph.edges)
    return ref_price(graph, duals, sorted(graph.source)[0], "best", w)


def best_rides(result, depot=0):
    return result.best_per_end[depot].route.variant_ids


# Three rides into (0, 300): ride 0 from (0, 100), rides 1 and 2 from the
# source. They are relaxed in the order 1, 2, 0.
THREE_INTO_ONE = [(0, 100, 0, 300), (0, 0, 0, 300), (0, 0, 0, 300)]


def test_exactly_equal_candidates_keep_the_first_in_tail_order():
    res = assert_exact(ride_graph(THREE_INTO_ONE), [5.0, 5.0, 5.0])
    assert best_rides(res) == (1,)
    # the same tail: the lower edge id first
    res = assert_exact(ride_graph(THREE_INTO_ONE[1:]), [5.0, 5.0])
    assert best_rides(res) == (0,)


@pytest.mark.parametrize("larger", [0, 1, 2])
def test_candidates_3e_13_apart_keep_the_first(larger):
    w = [5.0, 5.0, 5.0]
    w[larger] += 3e-13
    assert best_rides(assert_exact(ride_graph(THREE_INTO_ONE), w)) == (1,)


@pytest.mark.parametrize("steps", list(itertools.permutations((0, 1, 2))))
def test_three_candidates_in_0_6e_12_steps(steps):
    # relaxed in the order 1, 2, 0; step i adds i * 0.6e-12
    w = [7.0 + 0.6e-12 * s for s in steps]
    res = assert_exact(ride_graph(THREE_INTO_ONE), w)
    if steps[1] == 1:
        # ride 1, relaxed first, holds the middle value and the largest is
        # only 0.6e-12 above it: ride 1 keeps the label
        assert best_rides(res) == (1,)


@pytest.mark.parametrize("sign", [-1, 1])
def test_waiting_chain_of_three_in_0_6e_12_steps(sign):
    # rides from the source into (0, 100), (0, 200) and (0, 300): one
    # window, linked by waiting edges that each node relaxes last
    rides = [(0, 0, 0, 100), (0, 0, 0, 200), (0, 0, 0, 300)]
    w = [3.0 + sign * 0.6e-12 * i for i in range(3)]
    res = assert_exact(ride_graph(rides), w)
    # falling labels: no waiting edge wins by more than 1e-12, so each
    # node keeps its own ride; rising ones: each ride wins outright
    assert best_rides(res) == (2,)


@pytest.mark.parametrize("ride_off", [-1.5e-12, -1e-12, -0.5e-12, 0.0,
                                      0.5e-12, 1e-12, 1.5e-12])
def test_waiting_label_within_1e_12_of_a_ride(ride_off):
    # (0, 100) gets 3.0 over ride 0; ride 1 brings 3.0 + ride_off into
    # (0, 200), whose waiting edge from (0, 100) is its last candidate
    rides = [(0, 0, 0, 100), (0, 0, 0, 200)]
    res = assert_exact(ride_graph(rides), [3.0, 3.0 + ride_off])
    if ride_off in (-0.5e-12, 0.0):
        assert best_rides(res) == (1,)


@pytest.mark.parametrize("before_off", [-1.5e-12, -0.5e-12, 0.0, 0.5e-12,
                                        1.5e-12])
@pytest.mark.parametrize("same_tail_off", [-1.5e-12, -0.5e-12, 0.0, 0.5e-12,
                                           1.5e-12])
def test_entering_waiting_edge_among_ride_tails(before_off, same_tail_off):
    # Ride 0 opens a window at (0, 100), ride 1 from there opens the next
    # at (0, 200). Into (0, 200), in order: ride 2 from the source, ride 1
    # and then the waiting edge, both from (0, 100), an earlier window.
    rides = [(0, 0, 0, 100), (0, 100, 0, 200), (0, 0, 0, 200)]
    graph = ride_graph(rides)
    assert len(graph.window_edges) == 3
    assert_exact(graph, [4.0, same_tail_off, 4.0 + before_off])


@pytest.mark.parametrize("seed", range(8))
def test_every_node_its_own_window(seed):
    # two parallel rides along every waiting edge: each node opens a
    # window, and all three of its in-edges enter from the window before,
    # with weights within 1.5e-12 of the waiting edge's 0
    times = [0, 3600, 7200, 10800, 14400, 18000, 21600, 25200, TAU - SIGMA]
    rides = [(0, t0, 0, t1) for t0, t1 in zip(times[:-1], times[1:])
             for _ in range(2)]
    graph = ride_graph(rides)
    assert len(graph.window_edges) == len(graph.nodes)
    rng = np.random.default_rng(seed)
    assert_exact(graph, rng.choice([-1.5e-12, -1e-12, -0.5e-12, 0.0,
                                    0.5e-12, 1e-12], len(rides)))


@pytest.mark.parametrize("n_users,seed", [(8, s) for s in range(6)]
                         + [(20, s) for s in range(3)])
def test_near_ties_on_generated_graphs(n_users, seed):
    """Ride weights on a coarse grid plus offsets within a few 1e-12, so
    that many labels tie or nearly tie, on the exact graph and on all three
    reductions."""
    instance = generate(GenParams(n_users=n_users, seed=seed,
                                  vehicles_per_depot=1 + seed % 3))
    graph = build_graph(instance, enumerate_variants(instance))
    rng = np.random.default_rng(seed)
    offsets = [0.0, 3e-13, -3e-13, 6e-13, -6e-13, 1e-12, -1e-12, 1.5e-12]
    for g in (graph, reduce_statespace(graph), reduce_prune(graph),
              drop_negative(graph)):
        for _ in range(3):
            n_rides = len(g.ride_edges)
            assert_exact(g, rng.choice([-1.0, 0.0, 0.5, 1.0], n_rides)
                         + rng.choice(offsets, n_rides))
