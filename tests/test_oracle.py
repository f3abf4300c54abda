from dataclasses import replace

import pytest

from conftest import SIGMA, make_instance, make_task
from mmcrp.colgen import HEURISTICS, SCHEMES, run
from mmcrp.edgeform import solve_edge
from mmcrp.instgen import GenParams, generate
from mmcrp.model import ALL_MOTS, CAR
from mmcrp.oracle import OracleSizeError, brute_force
from mmcrp.ridegraph import Caps, build_graph, enumerate_variants


def test_zero_vehicles_zero_saving():
    inst = generate(GenParams(n_users=2, vehicles_per_depot=0, seed=0))
    g = build_graph(inst, enumerate_variants(inst))
    assert brute_force(inst, g) == pytest.approx(0.0, abs=1e-12)


def test_single_vehicle_single_positive_edge():
    inst = make_instance(
        [(0.0, 0.0)],
        [(0, 0, ALL_MOTS, [make_task(0, 6.0, 6.0, SIGMA + 3600)])],
        vehicles=(1,),
    )
    vs = enumerate_variants(inst)
    g = build_graph(inst, vs)
    assert len(g.ride_edges) == 1
    saving = g.ride_edges[0].saving
    want = max(saving, 0.0)  # idling is allowed if the trip loses money
    assert brute_force(inst, g) == pytest.approx(want, abs=1e-12)


def test_random_tiny_instances_match_edge_formulation():
    checked = 0
    for seed in range(12):
        inst = generate(GenParams(n_users=3, seed=seed, tasks_max=2,
                                  vehicles_per_depot=1))
        vs = enumerate_variants(inst, Caps(max_shares_per_trip=1,
                                           max_variants_per_user=3))
        g = build_graph(inst, vs)
        if len(g.ride_edges) > 25:
            continue
        want = solve_edge(g, inst).objective
        assert brute_force(inst, g) == pytest.approx(want, abs=1e-9)
        checked += 1
    assert checked >= 8


def _tiny_instance(seed):
    """One depot on even seeds and two on odd ones, one vehicle each."""
    n_depots = 1 + seed % 2
    return generate(GenParams(n_users=2 + seed % 3, n_depots=n_depots,
                              vehicles_per_depot=[1] * n_depots,
                              seed=seed, tasks_max=2))


def _edge_cases(inst):
    """The instance and its edge cases, each with its caps: five, and on two
    depots a sixth where depot 0 returns one vehicle fewer and depot 1 one
    more."""
    caps = Caps(max_shares_per_trip=1, max_variants_per_user=3)

    def tasks_at(loc):
        return replace(inst, users=tuple(
            replace(u, tasks=tuple(replace(t, loc=loc) for t in u.tasks))
            for u in inst.users))

    yield "unchanged", inst, caps
    yield "zero fleet", replace(inst, depots=tuple(
        replace(d, vehicles_start=0, vehicles_end=0) for d in inst.depots)), caps
    yield "car only", replace(inst, users=tuple(
        replace(u, allowed_mots=frozenset({CAR})) for u in inst.users)), caps
    # coincident locations skip the detours of a share
    yield "tasks at depot 0", tasks_at(inst.depots[0].loc), caps
    yield "tasks at one task", tasks_at(inst.users[0].tasks[0].loc), caps
    yield "no variants", inst, Caps(max_variants_per_user=0)
    if len(inst.depots) == 2:
        d0, d1 = inst.depots
        yield "one return moved", replace(inst, depots=(
            replace(d0, vehicles_end=d0.vehicles_end - 1),
            replace(d1, vehicles_end=d1.vehicles_end + 1))), caps


def test_edge_cases_agree_with_the_oracle():
    """Criterion 1's check, on one- and two-depot instances and their edge
    cases: the edge MILP equals the oracle, column generation's LP bound is
    at least and its IP value at most the oracle's. Where the oracle finds
    no assignment, both solvers report 'infeasible' and no plan."""
    checked = 0
    for seed in range(24):
        for case, edge_case, caps in _edge_cases(_tiny_instance(seed)):
            graph = build_graph(edge_case, enumerate_variants(edge_case, caps))
            if len(graph.ride_edges) > 25:
                continue
            oracle_value = brute_force(edge_case, graph)
            where = f"seed {seed}, {case}"
            edge = solve_edge(graph, edge_case)
            cg = run(edge_case, graph=graph)
            checked += 1
            if oracle_value is None:
                assert (edge.status, edge.plan, cg.ip_status, cg.plan) == \
                    ("infeasible", None, "infeasible", None), where
                continue
            assert edge.objective == pytest.approx(oracle_value, abs=1e-9), where
            assert cg.lp_bound >= oracle_value - 1e-6, where
            assert cg.ip_value <= oracle_value + 1e-6, where
    assert checked >= 120


def test_unmet_return_is_infeasible_on_every_pricing_path():
    """Where the oracle finds no assignment for the moved return, every
    scheme and heuristic reports 'infeasible' and no plan: the restricted IP
    can then only meet the depot rows with a relocation column."""
    checked = 0
    for seed in range(1, 24, 2):
        case, edge_case, caps = list(_edge_cases(_tiny_instance(seed)))[-1]
        assert case == "one return moved"
        graph = build_graph(edge_case, enumerate_variants(edge_case, caps))
        if len(graph.ride_edges) > 25 or \
                brute_force(edge_case, graph) is not None:
            continue
        for scheme in SCHEMES:
            for heuristic in HEURISTICS:
                cg = run(edge_case, graph, scheme=scheme, heuristic=heuristic)
                assert (cg.ip_status, cg.plan) == ("infeasible", None), \
                    f"seed {seed}, {scheme}/{heuristic}"
        checked += 1
    assert checked == 9


def test_size_guard_reports_dimensions():
    inst = generate(GenParams(n_users=10, seed=0))
    g = build_graph(inst, enumerate_variants(inst))
    with pytest.raises(OracleSizeError, match="ride edges"):
        brute_force(inst, g)
