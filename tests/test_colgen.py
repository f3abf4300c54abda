import dataclasses
import math
import random

import pytest

from conftest import SIGMA, make_instance, make_task
from mmcrp import colgen, milp, oracle
from mmcrp.colgen import (
    DualPrices,
    RestrictedMaster,
    Route,
    price,
    reduced_saving,
    run,
    solve_restricted_ip,
    solve_single_assignment,
)
from mmcrp.edgeform import solve_edge
from mmcrp.instgen import GenParams, generate
from mmcrp.model import ALL_MOTS, ValidationError
from mmcrp.ridegraph import Caps, RIDE, build_graph, enumerate_variants


def small_graph(seed=0, n_users=4, vehicles=1):
    inst = generate(GenParams(n_users=n_users, seed=seed,
                              vehicles_per_depot=vehicles))
    g = build_graph(inst, enumerate_variants(
        inst, Caps(max_shares_per_trip=1, max_variants_per_user=4)))
    return inst, g


def is_relocation(route):
    return route.start_depot != route.end_depot and not route.variant_ids


def random_duals(inst, rng, scale=5.0):
    return DualPrices(
        alpha={t.id: abs(rng.gauss(0, scale)) for t in inst.all_tasks()},
        beta={d.id: rng.gauss(0, scale) for d in inst.depots},
        delta={d.id: rng.gauss(0, scale) for d in inst.depots},
    )


# --- master initialisation ----------------------------------------------------

def test_init_master_columns():
    inst, _ = small_graph()
    master = RestrictedMaster(inst)
    idle = [r for r in master.routes if not is_relocation(r)]
    relocations = [r for r in master.routes if is_relocation(r)]
    assert len(idle) == 2 and len(relocations) == 2
    assert all(r.covered == () for r in master.routes)
    # idle routes in depot order, then one relocation per ordered pair
    assert master.routes == [
        Route(0, 0, (), (), 0.0), Route(1, 1, (), (), 0.0),
        Route(0, 1, (), (), -colgen.RELOCATION_PENALTY),
        Route(1, 0, (), (), -colgen.RELOCATION_PENALTY)]
    obj, duals = master.solve_lp()
    assert obj <= 1e-9  # nothing positive to select yet


def test_init_master_feasible_for_any_matching_inventory():
    inst = generate(GenParams(n_users=3, n_depots=3,
                              vehicles_per_depot=[3, 0, 1], seed=2))
    master = RestrictedMaster(inst)
    obj, _ = master.solve_lp()
    assert math.isfinite(obj)


def test_add_route_skips_duplicate_columns():
    from dataclasses import replace
    inst, g = small_graph()
    master = RestrictedMaster(inst)
    v = max(g.variants.values(), key=lambda v: len(v.covered))
    route = Route(v.start_depot, v.end_depot, (v.id,), v.covered, v.saving_eur)
    assert master.add_route(route)
    n_cols, routes = master.problem.n_cols, list(master.routes)
    # same depots, covered multiset and saving, other variant ids
    twin = replace(route, variant_ids=(), covered=route.covered[::-1])
    assert not master.add_route(twin)
    assert master.problem.n_cols == n_cols and master.routes == routes
    assert master.add_route(replace(route, saving_eur=v.saving_eur + 1e-8))
    assert master.problem.n_cols == n_cols + 1


def _depots_7_and_3(inst):
    """inst with depot 0 renamed 3 and depot 1 renamed 7, listed as 7, 3."""
    new_id = {0: 3, 1: 7}
    return dataclasses.replace(
        inst,
        depots=tuple(dataclasses.replace(d, id=new_id[d.id])
                     for d in reversed(inst.depots)),
        users=tuple(dataclasses.replace(u, start_depot=new_id[u.start_depot],
                                        end_depot=new_id[u.end_depot])
                    for u in inst.users))


def test_depots_listed_out_of_id_order():
    # depot 7 has one vehicle and depot 3 two; the sorted labelling 0/1
    # is the generated instance itself
    for seed in range(6):
        base = generate(GenParams(n_users=3, vehicles_per_depot=[2, 1],
                                  seed=seed, tasks_max=2))
        values = []
        for inst in (base, _depots_7_and_3(base)):
            g = build_graph(inst, enumerate_variants(inst, Caps(1, 4)))
            r = run(inst, g)
            values.append((r.lp_bound, r.ip_value, solve_edge(g, inst).objective,
                           oracle.brute_force(inst, g)))
        assert all(v == pytest.approx(values[0][0], rel=1e-9, abs=1e-9)
                   for v in values[0] + values[1])
    for seed in range(3):
        base = generate(GenParams(n_users=30, vehicles_per_depot=[2, 1],
                                  seed=seed))
        want, got = (run(inst, build_graph(inst, enumerate_variants(inst)),
                         scheme="best")
                     for inst in (base, _depots_7_and_3(base)))
        assert got.lp_bound == pytest.approx(want.lp_bound, rel=1e-9)
        assert got.ip_value == pytest.approx(want.ip_value, rel=1e-9)
    inst = _depots_7_and_3(base)
    master = RestrictedMaster(inst)
    assert list(master.start_row) == list(master.end_row) == [3, 7]
    for d in (3, 7):
        fleet = (milp.EQ, float(inst.depot(d).vehicles_start))
        assert master.problem.rows[master.start_row[d]] == fleet
        assert master.problem.rows[master.end_row[d]] == fleet


def test_mismatched_inventories_detected():
    from dataclasses import replace
    inst, _ = small_graph()
    with pytest.raises(ValidationError, match="start and end"):
        replace(inst, depots=(replace(inst.depots[0], vehicles_end=5),)
                + inst.depots[1:])


# --- reduced saving -------------------------------------------------------------

def test_reduced_saving_zero_duals_is_route_saving():
    inst, g = small_graph()
    zero = DualPrices({}, {}, {})
    r = Route(0, 1, (), (0, 1), 12.5)
    assert reduced_saving(r, zero) == 12.5
    idle = Route(0, 0, (), (), 0.0)
    assert reduced_saving(idle, zero) == 0.0


def test_reduced_saving_matches_dot_product():
    inst, g = small_graph(seed=3)
    rng = random.Random(9)
    duals = random_duals(inst, rng)
    res = price(g, duals, 0, collect="all")
    for cand in res.candidates[:20]:
        route = cand.route
        want = route.saving_eur
        want -= sum(duals.alpha.get(t, 0.0) for t in route.covered)
        want -= duals.beta.get(route.start_depot, 0.0)
        want -= duals.delta.get(route.end_depot, 0.0)
        assert reduced_saving(route, duals) == pytest.approx(want, abs=1e-9)
        assert cand.reduced_saving == pytest.approx(want, abs=1e-6)


# --- pricing -------------------------------------------------------------------

def test_price_on_chains_only_graph():
    inst = make_instance([(0.0, 0.0), (10.0, 10.0)], [], vehicles=(1, 1))
    g = build_graph(inst, [])
    duals = DualPrices({}, {0: 0.5, 1: -0.25}, {0: 0.125, 1: 2.0})
    res = price(g, duals, 0, collect="best")
    assert set(res.best_per_end) == {0}  # no cross-depot path without rides
    assert res.best_per_end[0].reduced_saving == pytest.approx(
        -0.5 - 0.125, abs=1e-12)
    assert res.best_per_end[0].route.variant_ids == ()


def test_price_single_positive_edge():
    inst = make_instance(
        [(0.0, 0.0)],
        [(0, 0, ALL_MOTS, [make_task(0, 6.0, 6.0, SIGMA + 3600)])],
        vehicles=(1,),
    )
    g = build_graph(inst, enumerate_variants(inst))
    duals = DualPrices({}, {0: 0.0}, {0: 0.0})
    res = price(g, duals, 0, collect="best")
    cand = res.best_per_end[0]
    edge = g.ride_edges[0]
    if edge.saving > 0:
        assert cand.route.variant_ids == (edge.variant_id,)
        assert cand.reduced_saving == pytest.approx(edge.saving, abs=1e-9)


def all_paths_oracle(g, duals, start_depot):
    """Exhaustive DFS route enumeration with reduced savings per end depot."""
    best = {}

    def walk(node, saving, alpha_sum):
        d = g.node_depot(node)
        if g.node_time(node) == g.tau_s:
            rc = saving - alpha_sum - duals.beta.get(start_depot, 0.0) \
                - duals.delta.get(d, 0.0)
            if d not in best or rc > best[d]:
                best[d] = rc
        for eid in g.out_edges[node]:
            e = g.edges[eid]
            if e.kind == RIDE:
                walk(e.head, saving + e.saving,
                     alpha_sum + sum(duals.alpha.get(t, 0.0)
                                     for t in e.covered_tasks))
            else:
                walk(e.head, saving, alpha_sum)

    walk(g.source[start_depot], 0.0, 0.0)
    return best


def test_price_matches_all_paths_enumeration():
    rng = random.Random(21)
    for seed in range(6):
        inst, g = small_graph(seed=seed, n_users=3)
        if len(g.ride_edges) > 18:
            continue
        duals = random_duals(inst, rng)
        for d0 in sorted(g.source):
            res = price(g, duals, d0, collect="best")
            want = all_paths_oracle(g, duals, d0)
            assert set(res.best_per_end) == set(want)
            for d, cand in res.best_per_end.items():
                assert cand.reduced_saving == pytest.approx(want[d], abs=1e-9)


class _Unreadable:
    def __getattribute__(self, name):
        raise AssertionError(f"price read {name} of a waiting edge")


def test_price_reads_only_ride_records():
    rng = random.Random(5)
    for seed in range(3):
        inst, g = small_graph(seed=seed, n_users=8, vehicles=2)
        duals = random_duals(inst, rng)
        weights = colgen.edge_weights(g, duals)
        guarded = dataclasses.replace(g, edges=[
            e if e.kind == RIDE else _Unreadable() for e in g.edges])
        for d0 in sorted(g.source):
            for collect in ("all", "best"):
                assert price(guarded, duals, d0, collect, weights) == \
                    price(g, duals, d0, collect, weights)


def test_edge_relaxation_counter_equals_edge_count():
    inst, g = small_graph(seed=5)
    duals = DualPrices({}, {}, {})
    for d0 in sorted(g.source):
        res = price(g, duals, d0, collect="all")
        assert res.edges_relaxed == len(g.edges)


# --- the full loop ---------------------------------------------------------------

def test_all_schemes_and_heuristics_same_lp_bound():
    inst = generate(GenParams(n_users=12, seed=8))
    g = build_graph(inst, enumerate_variants(inst))
    bounds = []
    for scheme in colgen.SCHEMES:
        for heuristic in colgen.HEURISTICS:
            r = run(inst, scheme=scheme, heuristic=heuristic, graph=g)
            bounds.append(r.lp_bound)
            assert r.converged and r.certified
    assert max(bounds) - min(bounds) <= 1e-6


def test_lp_monotone_over_iterations():
    inst = generate(GenParams(n_users=15, seed=2))
    r = run(inst, build_graph(inst, enumerate_variants(inst)), scheme="best")
    objs = [row.lp_objective for row in r.log]
    assert all(b >= a - 1e-7 for a, b in zip(objs[:-1], objs[1:]))


def test_termination_certificate():
    inst, g = small_graph(seed=7, n_users=5)
    r = run(inst, graph=g)
    assert r.certified
    # rebuild the master, resolve, and confirm no route prices positive
    master = RestrictedMaster(inst)
    for route in r.routes[len(master.routes):]:
        master.add_route(route)
    _, duals = master.solve_lp()
    for d0 in sorted(g.source):
        res = price(g, duals, d0, collect="all")
        assert not res.candidates


def test_early_stop_limits_iterations():
    inst = generate(GenParams(n_users=15, seed=4))
    g = build_graph(inst, enumerate_variants(inst))
    r = run(inst, g, scheme="first", early_stop=5)
    assert r.iterations == 5
    assert not r.converged
    full = run(inst, g, scheme="first")
    assert full.lp_bound >= r.lp_bound - 1e-9
    assert r.lp_bound >= r.ip_value - 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_time_limit_stops_like_one_iteration(seed):
    # a limit this small is hit after the first pricing round; 0.0 is a
    # limit too, not "no limit"
    inst, g = small_graph(seed=seed)
    one = run(inst, graph=g, early_stop=1)
    for limit in (1e-9, 0.0):
        r = run(inst, graph=g, time_limit_s=limit)
        assert r.iterations == 1
        assert not r.converged
        assert (r.lp_bound, r.ip_value, r.routes) == \
            (one.lp_bound, one.ip_value, one.routes)
        assert r.lp_bound >= r.ip_value - 1e-6


@pytest.mark.parametrize("limit", [1e-9, 0.5, 60.0])
def test_time_limit_bounds_the_ip_too(monkeypatch, limit):
    # the restricted IP runs on what is left of the one budget
    inst, g = small_graph(seed=1)
    handed = []
    solve_ip = milp.solve_ip

    def spy(problem, time_limit_s=None):
        handed.append(time_limit_s)
        return solve_ip(problem, time_limit_s=time_limit_s)

    monkeypatch.setattr(milp, "solve_ip", spy)
    run(inst, graph=g, time_limit_s=limit)
    # the clock started before the IP, so less than the limit is left
    assert len(handed) == 1 and 0.0 <= handed[0] < limit
    run(inst, graph=g)
    assert handed[1] is None


@pytest.mark.parametrize("kwargs", [
    {"early_stop": 0}, {"early_stop": -1}, {"time_limit_s": -1.0},
    {"time_limit_s": math.nan}])
def test_bad_limit_is_rejected(kwargs):
    inst, g = small_graph(seed=1)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        run(inst, graph=g, **kwargs)


def test_relaxation_counter_exposed_per_call():
    inst, g = small_graph(seed=1)
    r = run(inst, graph=g)
    assert r.edges_relaxed_per_call
    assert all(n == size for n, size in r.edges_relaxed_per_call)
    assert all(size == len(g.edges) for _, size in r.edges_relaxed_per_call)


def test_no_dummy_in_final_plan():
    for seed in range(5):
        inst = generate(GenParams(n_users=8, seed=seed))
        r = run(inst, build_graph(inst, enumerate_variants(inst)))
        assert not any(is_relocation(route) for route in r.plan.routes)


def test_columns_generated_leaves_out_initial_routes():
    inst, g = small_graph(seed=7, n_users=5)
    full = run(inst, g)
    assert full.columns_generated > 0
    seeded = run(inst, g, initial_routes=full.routes)
    assert seeded.columns_generated == \
        sum(row.columns_added for row in seeded.log)
    assert len(seeded.routes) == len(full.routes) + seeded.columns_generated


def test_plan_stats_recompute_from_routes():
    inst = generate(GenParams(n_users=10, seed=6))
    g = build_graph(inst, enumerate_variants(inst))
    r = run(inst, graph=g)
    plan = r.plan
    n_rides = sum(len(rt.variant_ids) for rt in plan.routes)
    n_shares = sum(len(g.variants[v].shares)
                   for rt in plan.routes for v in rt.variant_ids)
    assert plan.rides_per_car == pytest.approx(n_rides / inst.fleet_size)
    if n_rides:
        assert plan.shares_per_ride == pytest.approx(n_shares / n_rides)
    assert plan.total_saving == pytest.approx(r.ip_value, abs=1e-6)
    # covered/uncovered partition the task set
    assert plan.covered.isdisjoint(plan.uncovered)
    assert plan.covered | set(plan.uncovered) == {t.id for t in inst.all_tasks()}


def test_restricted_ip_keeps_integral_lp():
    inst, g = small_graph(seed=9, n_users=3)
    r = run(inst, graph=g)
    if abs(r.lp_bound - r.ip_value) <= 1e-9:
        master = RestrictedMaster(inst)
        for route in r.routes[len(master.routes):]:
            master.add_route(route)
        ip_value, plan, status = solve_restricted_ip(inst, g, master)
        assert status == "optimal"
        assert ip_value == pytest.approx(r.ip_value, abs=1e-9)


def test_single_assignment_is_dominated():
    inst = generate(GenParams(n_users=10, seed=3))
    vs = enumerate_variants(inst)
    g = build_graph(inst, vs)
    base = [v for v in vs.all if not v.shares]
    ud_value, _, _ = solve_single_assignment(inst, g, base)
    carshare = run(inst, graph=build_graph(inst, base))
    full = run(inst, graph=g)
    assert ud_value <= carshare.ip_value + 1e-6
    assert carshare.ip_value <= full.lp_bound + 1e-6
