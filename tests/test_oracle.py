import pytest

from conftest import SIGMA, make_instance, make_task
from mmcrp.edgeform import solve_edge
from mmcrp.instgen import GenParams, generate
from mmcrp.model import ALL_MOTS
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


def test_size_guard_reports_dimensions():
    inst = generate(GenParams(n_users=10, seed=0))
    g = build_graph(inst, enumerate_variants(inst))
    with pytest.raises(OracleSizeError, match="ride edges"):
        brute_force(inst, g)
