"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from mmcrp import colgen
from mmcrp.cli import _with_fleet, compare_baselines
from mmcrp.colgen import DualPrices, price, run
from mmcrp.edgeform import solve_edge
from mmcrp.instgen import GenParams, generate
from mmcrp.milp import LE, MilpProblem, solve_ip, solve_lp
from mmcrp.oracle import brute_force
from mmcrp.ridegraph import Caps, build_graph, enumerate_variants, variant_leg_savings


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def pool_u20():
    """Ten u=20, m=4 instances with their default-caps graphs."""
    pool = []
    for seed in range(10):
        inst = generate(GenParams(n_users=20, n_depots=2,
                                  vehicles_per_depot=2, seed=seed))
        graph = build_graph(inst, enumerate_variants(inst))
        pool.append((inst, graph))
    return pool


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    worst_edge = 0.0
    while checked < 30:
        seed += 1
        n_users = 2 + seed % 3
        inst = generate(GenParams(n_users=n_users, n_depots=2,
                                  vehicles_per_depot=[1, seed % 2],
                                  seed=seed, tasks_max=2))
        vs = enumerate_variants(inst, Caps(max_shares_per_trip=1,
                                           max_variants_per_user=3))
        graph = build_graph(inst, vs)
        if len(graph.ride_edges) > 25:
            continue
        oracle_value = brute_force(inst, graph)
        edge_value = solve_edge(graph, inst).objective
        cg = run(inst, graph=graph)
        worst_edge = max(worst_edge, abs(edge_value - oracle_value))
        assert abs(edge_value - oracle_value) <= 1e-9
        assert cg.lp_bound >= oracle_value - 1e-6
        assert cg.ip_value <= oracle_value + 1e-6
        checked += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (oracle equivalence)",
            checked == 30 and elapsed < 60,
            f"30 tiny instances, max |edge - oracle| = {worst_edge:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_scheme_invariance(pool_u20):
    t0 = time.perf_counter()
    worst = 0.0
    for inst, graph in pool_u20:
        bounds = []
        for scheme in colgen.SCHEMES:
            for heuristic in colgen.HEURISTICS:
                r = run(inst, scheme=scheme, heuristic=heuristic, graph=graph)
                bounds.append(r.lp_bound)
                assert all(n == size for n, size in r.edges_relaxed_per_call)
        worst = max(worst, max(bounds) - min(bounds))
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (scheme invariance)",
            worst <= 1e-6 and elapsed < 600,
            f"10 instances x 16 scheme/heuristic combos, worst LP spread "
            f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_gap_quality():
    gaps = {2: [], 4: [], 10: []}
    for seed in range(10):
        inst = generate(GenParams(n_users=50, seed=seed))
        vs = enumerate_variants(inst)
        for m in gaps:
            inst_m = _with_fleet(inst, m)
            r = run(inst_m, graph=build_graph(inst_m, vs))
            gaps[m].append(r.gap_pct)
    avg = {m: sum(v) / len(v) for m, v in gaps.items()}
    zeros_m2 = sum(1 for x in gaps[2] if abs(x) <= 1e-4)
    ok = all(a <= 2.0 for a in avg.values()) and zeros_m2 >= 8
    _report("criterion 3 (gap quality u=50)", ok,
            f"avg gap% by m: { {m: round(a, 4) for m, a in avg.items()} }, "
            f"zero-gap at m=2 on {zeros_m2}/10")


def test_criterion_4_edge_vs_cg(pool_u20):
    rel = []
    for inst, graph in pool_u20:
        edge = solve_edge(graph, inst, time_limit_s=300)
        cg = run(inst, graph=graph)
        assert edge.status == "optimal"
        rel.append(100.0 * (edge.objective - cg.ip_value) / cg.ip_value)
        # relaxation ordering: CG LP bound >= exact edge IP >= restricted IP
        assert cg.lp_bound >= edge.objective - 1e-6
        assert edge.objective >= cg.ip_value - 1e-6
    avg = sum(rel) / len(rel)
    _report("criterion 4 (edge vs CG gap)", avg <= 3.0,
            f"avg (edge - CG-IP)/CG-IP = {avg:.3f}% over 10 u=20 instances")


def test_criterion_5_early_termination():
    details = []
    ok = True
    for seed in range(3):
        inst = generate(GenParams(n_users=150, seed=seed))
        inst = _with_fleet(inst, 20)
        graph = build_graph(inst, enumerate_variants(inst))
        full = run(inst, scheme="best", graph=graph)
        early = run(inst, scheme="best", graph=graph, early_stop=50)
        rel = 100.0 * (full.lp_bound - early.ip_value) / full.lp_bound
        speedup = full.total_s / max(early.total_s, 1e-9)
        ok &= rel <= 10.0 and speedup >= 2.0
        details.append(f"seed {seed}: {full.iterations} iters full, "
                       f"gap-to-full-LP {rel:.2f}%, speedup {speedup:.1f}x")
    _report("criterion 5 (early termination u=150 m=20)", ok,
            "; ".join(details))


def test_criterion_6_pricing_relaxation_counter():
    calls = 0
    for seed in range(8):
        inst = generate(GenParams(n_users=5 + seed, seed=seed))
        graph = build_graph(inst, enumerate_variants(inst))
        r = run(inst, scheme="multiple", graph=graph)
        assert r.edges_relaxed_per_call
        for n, size in r.edges_relaxed_per_call:
            assert n == size == len(graph.edges)
            calls += 1
        duals = DualPrices({}, {}, {})
        for d in sorted(graph.source):
            res = price(graph, duals, d, collect="all")
            assert res.edges_relaxed == len(graph.edges)
            calls += 1
    _report("criterion 6 (one relaxation per edge per call)", True,
            f"counter == |E| on every one of {calls} pricing calls")


def test_criterion_7_structural_invariants():
    n_checked = 0
    for seed in range(100):
        inst = generate(GenParams(n_users=2 + seed % 5, seed=seed,
                                  vehicles_per_depot=1 + seed % 2))
        graph = build_graph(inst, enumerate_variants(inst))
        # DAG: every edge strictly increases time, topo order is consistent
        pos = {eid: i for i, eid in enumerate(
            [eid for out in graph.out_edges for eid in out])}
        for e in graph.edges:
            assert graph.node_time(e.tail) < graph.node_time(e.head)
            for out in graph.out_edges[e.head]:
                assert pos[e.id] < pos[out]
        r = run(inst, graph=graph)
        assert r.lp_bound >= r.ip_value - 1e-6
        # LP monotone over iterations
        objs = [row.lp_objective for row in r.log]
        assert all(b >= a - 1e-7 for a, b in zip(objs[:-1], objs[1:]))
        # dual-feasibility certificate at termination
        assert r.converged and r.certified
        plan = r.plan
        # depot balance of the decoded plan
        starts = {d.id: 0 for d in inst.depots}
        ends = {d.id: 0 for d in inst.depots}
        for route in plan.routes:
            starts[route.start_depot] += 1
            ends[route.end_depot] += 1
        for d in inst.depots:
            assert starts[d.id] == d.vehicles_start
            assert ends[d.id] == d.vehicles_end
        # no double coverage; chains are time-feasible
        seen = []
        for route in plan.routes:
            vs = [graph.variants[v] for v in route.variant_ids]
            for a, b in zip(vs[:-1], vs[1:]):
                assert a.end_depot == b.start_depot
                assert a.arrive_s <= b.depart_s
            for v in vs:
                seen.extend(v.covered)
        assert len(seen) == len(set(seen))
        # route saving recomputed from scratch
        for route in plan.routes:
            recomputed = sum(sum(variant_leg_savings(inst, graph.variants[v]))
                             for v in route.variant_ids)
            assert abs(recomputed - route.saving_eur) <= 1e-9
        n_checked += 1
    _report("criterion 7 (structural invariants)", n_checked == 100,
            f"all green on {n_checked} randomized instances")


def test_criterion_8_monotone_fleet(pool_u20):
    ok = True
    for inst, _ in pool_u20:
        vs = enumerate_variants(inst)
        values = []
        for m in (0, 1, 2, 4, 8):
            inst_m = _with_fleet(inst, m)
            r = run(inst_m, graph=build_graph(inst_m, vs))
            values.append(r.ip_value)
        ok &= all(b >= a - 1e-6 for a, b in zip(values[:-1], values[1:]))
        ok &= abs(values[0]) <= 1e-9
    _report("criterion 8 (fleet monotonicity)", ok,
            "ip_value non-decreasing in m over 10 instances, m in {0,1,2,4,8}")


def test_criterion_9_baseline_ratios(pool_u20):
    ok = True
    details = []
    for inst, _ in pool_u20[:10]:
        doc = compare_baselines(inst, Caps())
        r1, r2 = doc["ratio_car_sharing"], doc["ratio_user_dependent"]
        ok &= r1 >= 1.0 - 1e-9
        ok &= r2 >= r1 - 1e-6
        details.append(f"({r1:.3f},{r2:.3f})")
    _report("criterion 9 (baseline ratio ordering)", ok,
            "ratios (carshare, user-dependent): " + " ".join(details))


def test_criterion_10_lp_kernel():
    rng = np.random.default_rng(2024)
    worst_duality = 0.0
    for _ in range(200):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.1, 2.0, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        p = MilpProblem([(LE, float(v)) for v in b] + [(LE, 10.0)] * n)
        for j in range(n):
            entries = [(i, float(A[i, j])) for i in range(m)]
            entries.append((m + j, 1.0))
            p.add_column(float(c[j]), entries)
        s = solve_lp(p)
        assert s.status == "optimal"
        rhs = np.array([r for _, r in p.rows])
        worst_duality = max(worst_duality, abs(s.objective - s.duals @ rhs))
        assert abs(s.objective - s.duals @ rhs) <= 1e-6

    for k in range(50):
        m, n = 4, 12
        A = rng.uniform(0, 3, size=(m, n))
        b = rng.uniform(3, 10, size=m)
        c = rng.normal(size=n) + 0.3
        p = MilpProblem([(LE, float(v)) for v in b])
        for j in range(n):
            p.add_column(float(c[j]), [(i, float(A[i, j])) for i in range(m)],
                         upper=1.0, integer=True)
        r = solve_ip(p)
        best = -math.inf
        for mask in range(1 << n):
            x = np.array([(mask >> j) & 1 for j in range(n)], dtype=float)
            if (A @ x <= b + 1e-12).all():
                best = max(best, float(c @ x))
        assert r.objective == pytest.approx(best, abs=1e-7)
    _report("criterion 10 (LP kernel)", True,
            f"strong duality <= {worst_duality:.2e} on 200 LPs; "
            f"50 binary programs match exhaustive enumeration")
