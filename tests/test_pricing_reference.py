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

import math
import random
from unittest import mock

import numpy as np
import pytest

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
