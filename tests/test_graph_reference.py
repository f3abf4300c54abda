"""Differential test of the time-space graph against the assembly it replaced.

The reference below builds the graph from (tail, head, variant, saving) ride
specs and an explicit variant map, as every caller used to, and writes the
edge CSV in two filtered passes, ride edges then waiting edges. build_graph,
the three reductions and dump_edges must give the same Edge rows (every
field, in order), nodes, sources and sinks, out-edge lists, variant keys,
pricing arrays and a byte-equal edge CSV.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import pytest

from conftest import TAU
from mmcrp.instgen import GenParams, generate
from mmcrp.ridegraph import (
    Caps,
    GraphConstructionError,
    build_graph,
    drop_negative,
    dump_edges,
    enumerate_variants,
    reduce_prune,
    reduce_statespace,
)
from test_ridegraph import five_user_instance, two_user_instance

REF_RIDE = "ride"
REF_WAIT = "wait"


class RefEdge(NamedTuple):
    id: int
    tail: int
    head: int
    kind: str
    saving: float = 0.0
    variant_id: Optional[int] = None
    covered_tasks: tuple = ()


@dataclass
class RefGraph:
    nodes: list
    edges: list
    source: dict
    sink: dict
    out_edges: list
    variants: dict
    sigma_s: int
    tau_s: int
    head: np.ndarray
    saving: np.ndarray
    task_ids: list
    cover_edge: np.ndarray
    cover_task: np.ndarray

    @property
    def ride_edges(self):
        return [e for e in self.edges if e.kind == REF_RIDE]


def ref_assemble(depot_ids, sigma, tau, ride_specs, variants, extra_nodes=()):
    keys = {(d, sigma) for d in depot_ids} | {(d, tau) for d in depot_ids}
    keys.update(extra_nodes)
    for tail, head, _, _ in ride_specs:
        keys.add(tail)
        keys.add(head)
    nodes = sorted(keys, key=lambda k: (k[1], k[0]))
    index = {k: i for i, k in enumerate(nodes)}

    edges = []
    for tail, head, var, saving in ride_specs:
        covered = tuple(sorted(set(var.covered)))
        edges.append(RefEdge(len(edges), index[tail], index[head], REF_RIDE,
                             saving, var.id, covered))
    for d in depot_ids:
        times = sorted({t for dd, t in keys if dd == d})
        for t0, t1 in zip(times[:-1], times[1:]):
            edges.append(RefEdge(len(edges), index[(d, t0)], index[(d, t1)],
                                 REF_WAIT))

    out_edges = [[] for _ in nodes]
    for e in edges:
        out_edges[e.tail].append(e.id)
    task_ids = sorted({t for e in edges for t in e.covered_tasks})
    task_pos = {t: i for i, t in enumerate(task_ids)}
    cover_edge = [e.id for e in edges for _ in e.covered_tasks]
    cover_task = [task_pos[t] for e in edges for t in e.covered_tasks]
    return RefGraph(
        nodes=nodes,
        edges=edges,
        source={d: index[(d, sigma)] for d in depot_ids},
        sink={d: index[(d, tau)] for d in depot_ids},
        out_edges=out_edges,
        variants=variants,
        sigma_s=sigma,
        tau_s=tau,
        head=np.array([e.head for e in edges], dtype=np.int64),
        saving=np.array([e.saving for e in edges], dtype=float),
        task_ids=task_ids,
        cover_edge=np.array(cover_edge, dtype=np.int64),
        cover_task=np.array(cover_task, dtype=np.int64),
    )


def ref_build_graph(instance, variants):
    sigma, tau = instance.sigma_s, instance.tau_s
    specs = []
    vmap = {}
    for v in variants:
        if not (sigma <= v.depart_s < v.arrive_s <= tau):
            raise GraphConstructionError(f"variant {v.id} leaves the horizon")
        specs.append(((v.start_depot, v.depart_s), (v.end_depot, v.arrive_s),
                      v, v.saving_eur))
        vmap[v.id] = v
    return ref_assemble([d.id for d in instance.depots], sigma, tau, specs, vmap)


def ref_reduce_statespace(graph, bucket_s=600):
    depot_ids = sorted(graph.source)
    merged_time = {}
    buckets = {}
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

    best = {}
    for e in graph.ride_edges:
        td, tt = graph.nodes[e.tail]
        hd, ht = graph.nodes[e.head]
        tail = (td, merged_time[(td, tt)])
        head = (hd, merged_time[(hd, ht)])
        if tail[1] >= head[1]:
            continue
        key = (tail, head)
        var = graph.variants[e.variant_id]
        if key not in best or (e.saving, -var.id) > (best[key][3], -best[key][2].id):
            best[key] = (tail, head, var, e.saving)

    specs = sorted(best.values(), key=lambda s: s[2].id)
    vmap = {var.id: var for _, _, var, _ in specs}
    return ref_assemble(depot_ids, graph.sigma_s, graph.tau_s, specs, vmap)


def ref_reduce_prune(graph):
    depot_ids = sorted(graph.source)
    by_driver = {}
    for e in graph.ride_edges:
        by_driver.setdefault(graph.variants[e.variant_id].driver, []).append(e)

    specs = []
    vmap = {}
    for driver in sorted(by_driver):
        edges = by_driver[driver]
        first = min(edges, key=lambda e: e.variant_id)
        kept = max(edges, key=lambda e: (e.saving, -e.variant_id))
        var = graph.variants[kept.variant_id]
        specs.append((graph.nodes[first.tail], graph.nodes[first.head], var,
                      kept.saving))
        vmap[var.id] = var
    return ref_assemble(depot_ids, graph.sigma_s, graph.tau_s, specs, vmap)


def ref_drop_negative(graph):
    depot_ids = sorted(graph.source)
    specs = []
    vmap = {}
    for e in graph.ride_edges:
        if e.saving < 0:
            continue
        var = graph.variants[e.variant_id]
        specs.append((graph.nodes[e.tail], graph.nodes[e.head], var, e.saving))
        vmap[var.id] = var
    return ref_assemble(depot_ids, graph.sigma_s, graph.tau_s, specs, vmap,
                        extra_nodes=graph.nodes)


def ref_dump_edges(graph, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tail_depot", "tail_s", "head_depot", "head_s",
                    "variant_id", "saving_eur"])
        for e in graph.edges:
            if e.kind != REF_RIDE:
                continue
            td, tt = graph.nodes[e.tail]
            hd, ht = graph.nodes[e.head]
            w.writerow([td, tt, hd, ht, e.variant_id, f"{e.saving:.6f}"])
        for e in graph.edges:
            if e.kind != REF_WAIT:
                continue
            td, tt = graph.nodes[e.tail]
            hd, ht = graph.nodes[e.head]
            w.writerow([td, tt, hd, ht, "", "0.000000"])


def assert_same_graph(got, want, tmp_path):
    assert [dataclasses.astuple(e) for e in got.edges] == \
        [tuple(e) for e in want.edges]
    assert got.nodes == want.nodes
    assert got.source == want.source and got.sink == want.sink
    assert got.out_edges == want.out_edges
    assert list(got.variants) == list(want.variants)
    assert all(got.variants[k] is want.variants[k] for k in want.variants)
    assert (got.sigma_s, got.tau_s) == (want.sigma_s, want.tau_s)
    assert got.task_ids == want.task_ids
    for name in ("head", "saving", "cover_edge", "cover_task"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    dump_edges(got, tmp_path / "got.csv")
    ref_dump_edges(want, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def assert_same_graphs(instance, variants, tmp_path):
    got = build_graph(instance, variants)
    want = ref_build_graph(instance, variants)
    assert_same_graph(got, want, tmp_path)
    for bucket_s in (1, 600, TAU):
        assert_same_graph(reduce_statespace(got, bucket_s),
                          ref_reduce_statespace(want, bucket_s), tmp_path)
    assert_same_graph(reduce_prune(got), ref_reduce_prune(want), tmp_path)
    assert_same_graph(drop_negative(got), ref_drop_negative(want), tmp_path)


@pytest.mark.parametrize("n_users,seed", [(5, 0), (8, 1), (12, 2), (20, 3),
                                          (20, 7), (40, 0), (40, 5), (80, 2)])
def test_graph_matches_reference(n_users, seed, tmp_path):
    instance = generate(GenParams(n_users=n_users, seed=seed))
    assert_same_graphs(instance, enumerate_variants(instance).all, tmp_path)


@pytest.mark.parametrize("n_users,seed", [(5, 1), (8, 4), (12, 5)])
def test_uncapped_graph_matches_reference(n_users, seed, tmp_path):
    instance = generate(GenParams(n_users=n_users, seed=seed))
    caps = Caps(max_shares_per_trip=None, max_variants_per_user=None)
    assert_same_graphs(instance, enumerate_variants(instance, caps).all,
                       tmp_path)


@pytest.mark.parametrize("make", [five_user_instance, two_user_instance])
def test_hand_built_graph_matches_reference(make, tmp_path):
    instance = make()
    assert_same_graphs(instance, enumerate_variants(instance).all, tmp_path)
