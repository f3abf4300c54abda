import numpy as np
import pytest

from conftest import make_instance
from mmcrp import colgen, edgeform
from mmcrp.cli import split_fleet
from mmcrp.edgeform import EdgeModelSizeError, build_edge_model, solve_edge
from mmcrp.instgen import GenParams, generate
from mmcrp.milp import EQ, LE, solve_lp
from mmcrp.oracle import brute_force
from mmcrp.ridegraph import Caps, build_graph, enumerate_variants


def tiny_instance(seed, n_users=3, vehicles=(1, 1)):
    inst = generate(GenParams(n_users=n_users, n_depots=2,
                              vehicles_per_depot=list(vehicles),
                              seed=seed, tasks_max=2))
    vs = enumerate_variants(inst, Caps(max_shares_per_trip=1,
                                       max_variants_per_user=3))
    return inst, build_graph(inst, vs)


def test_row_count_formula():
    for seed in (0, 1, 2):
        inst, g = tiny_instance(seed)
        model = build_edge_model(g, inst)
        specials = set(g.source.values()) | set(g.sink.values())
        n_interior = len(g.nodes) - len(specials)
        n_tasks = len(inst.all_tasks())
        assert model.problem.n_rows == n_interior + 2 * len(inst.depots) + n_tasks
        # row v is node v: out - in = supply
        n = len(g.nodes)
        supply = np.zeros(n)
        for d in inst.depots:
            supply[g.source[d.id]] = d.vehicles_start
            supply[g.sink[d.id]] = -d.vehicles_end
        assert model.problem.rows[:n] == [(EQ, v) for v in supply]
        assert all(sense == LE for sense, _ in model.problem.rows[n:])
        incidence = np.zeros((n, len(g.edges)))
        for e in g.edges:
            incidence[e.tail, e.id] += 1.0
            incidence[e.head, e.id] -= 1.0
        assert (model.problem.dense()[:n] == incidence).all()


@pytest.mark.parametrize("users,vehicles,seed", [
    (8, 2, 0), (8, 2, 1), (12, 2, 2), (12, 3, 3), (16, 2, 4), (16, 3, 5),
    (20, 3, 6), (20, 4, 7), (25, 3, 8), (25, 4, 9)])
def test_lp_relaxation_equals_the_path_lp_bound(users, vehicles, seed):
    inst = generate(GenParams(n_users=users, n_depots=2,
                              vehicles_per_depot=split_fleet(vehicles, 2),
                              seed=seed))
    g = build_graph(inst, enumerate_variants(inst, Caps()))
    lp = solve_lp(build_edge_model(g, inst).problem)
    want = colgen.run(inst, g).lp_bound
    assert abs(lp.objective - want) <= 1e-9 * max(1.0, abs(want))


def test_zero_users_graph_solves_to_zero():
    inst = make_instance([(0.0, 0.0), (10.0, 10.0)], [], vehicles=(1, 1))
    g = build_graph(inst, [])
    res = solve_edge(g, inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert all(r.variant_ids == () for r in res.plan.routes)


def test_zero_fleet_empty_plan():
    inst = generate(GenParams(n_users=3, vehicles_per_depot=0, seed=0))
    g = build_graph(inst, enumerate_variants(inst))
    res = solve_edge(g, inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.plan.routes == []
    # every task falls back to its cheapest other mode
    assert set(res.plan.uncovered) == {t.id for t in inst.all_tasks()}


def test_micro_instance_matches_oracle():
    for seed in range(6):
        inst, g = tiny_instance(seed, n_users=2)
        want = brute_force(inst, g)
        res = solve_edge(g, inst)
        assert res.objective == pytest.approx(want, abs=1e-9)


def test_decoded_plan_is_consistent():
    inst, g = tiny_instance(4)
    res = solve_edge(g, inst)
    plan = res.plan
    starts = {}
    ends = {}
    for r in plan.routes:
        starts[r.start_depot] = starts.get(r.start_depot, 0) + 1
        ends[r.end_depot] = ends.get(r.end_depot, 0) + 1
    for d in inst.depots:
        assert starts.get(d.id, 0) == d.vehicles_start
        assert ends.get(d.id, 0) == d.vehicles_end
    # no task double-covered across selected rides
    seen = []
    for r in plan.routes:
        for vid in r.variant_ids:
            seen.extend(g.variants[vid].covered)
    assert len(seen) == len(set(seen))
    # a route's rides chain in time
    for r in plan.routes:
        vs = [g.variants[v] for v in r.variant_ids]
        for a, b in zip(vs[:-1], vs[1:]):
            assert a.end_depot == b.start_depot
            assert a.arrive_s <= b.depart_s


def test_edge_optimum_dominates_cg_ip():
    for seed in (0, 3):
        inst = generate(GenParams(n_users=10, seed=seed))
        g = build_graph(inst, enumerate_variants(inst))
        res = solve_edge(g, inst)
        cg = colgen.run(inst, graph=g)
        assert res.objective >= cg.ip_value - 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_routes_carry_their_coverage(seed):
    inst = generate(GenParams(n_users=10, seed=seed))
    g = build_graph(inst, enumerate_variants(inst))
    for plan in (solve_edge(g, inst).plan, colgen.run(inst, graph=g).plan):
        assert any(r.variant_ids for r in plan.routes)
        for r in plan.routes:
            assert r.covered == tuple(sorted(
                t for vid in r.variant_ids for t in g.variants[vid].covered))
        assert plan.covered == {t for r in plan.routes for t in r.covered}


def test_size_guard(monkeypatch):
    inst, g = tiny_instance(0)
    monkeypatch.setattr(edgeform, "MAX_CELLS", 10)
    with pytest.raises(EdgeModelSizeError, match="column-generation"):
        build_edge_model(g, inst)
