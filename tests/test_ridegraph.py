import csv
import dataclasses
import itertools
import random

import numpy as np
import pytest

from conftest import SIGMA, TAU, make_instance, make_task
from test_enumeration_reference import assert_same, reference_enumerate_variants
from mmcrp.instgen import GenParams, generate
from mmcrp.model import ALL_MOTS, CAR, default_mots, travel_time, trip_legs
from mmcrp.ridegraph import (
    Caps,
    GraphConstructionError,
    build_graph,
    drop_negative,
    dump_edges,
    enumerate_variants,
    feasible_share,
    reduce_prune,
    reduce_statespace,
    variant_leg_savings,
)


def timeline_oracle(inst, driver, driver_leg, rider, rider_leg):
    """Independent event-by-event simulation of the detour timeline."""
    if driver.user_id == rider.user_id:
        return False
    du, dv = trip_legs(inst, driver)[driver_leg]
    ru, rv = trip_legs(inst, rider)[rider_leg]
    if ru.is_depot_endpoint or rv.is_depot_endpoint:
        return False
    clock = du.earliest_departure_s
    pos = du.loc
    if pos != ru.loc:
        clock += travel_time(pos, ru.loc, CAR, inst.mots)
        pos = ru.loc
    clock = max(clock, ru.earliest_departure_s)
    clock += travel_time(pos, rv.loc, CAR, inst.mots)
    pos = rv.loc
    if clock > rv.latest_arrival_s:
        return False
    if pos != dv.loc:
        clock += travel_time(pos, dv.loc, CAR, inst.mots)
    return clock <= dv.latest_arrival_s


def two_user_instance(offset_km=0.0, rider_shift_s=0):
    """Driver 0 and rider 1 with two tasks each; rider tasks sit offset_km
    east of the driver's and rider windows shift by rider_shift_s."""
    return make_instance(
        [(0.0, 0.0), (15.0, 15.0)],
        [
            (0, 0, ALL_MOTS, [
                make_task(0, 2.0, 2.0, SIGMA + 3600),
                make_task(1, 8.0, 8.0, SIGMA + 4 * 3600),
            ]),
            (0, 0, ALL_MOTS, [
                make_task(2, 2.0 + offset_km, 2.0, SIGMA + 3600 + rider_shift_s),
                make_task(3, 8.0 + offset_km, 8.0, SIGMA + 4 * 3600 + rider_shift_s),
            ]),
        ],
    )


def test_identical_legs_are_shareable():
    inst = two_user_instance()
    assert feasible_share(inst, inst.users[0], 1, inst.users[1], 1)


def test_rider_deadline_before_possible_arrival_is_infeasible():
    inst = make_instance(
        [(0.0, 0.0), (15.0, 15.0)],
        [
            (0, 0, ALL_MOTS, [
                make_task(0, 2.0, 2.0, SIGMA + 3600),
                make_task(1, 8.0, 8.0, SIGMA + 6 * 3600),
            ]),
            (0, 0, ALL_MOTS, [
                make_task(2, 9.0, 2.0, SIGMA + 3600),
                # 9 km away but due a minute after the rider may depart
                make_task(3, 18.0, 2.0, SIGMA + 3660 + 1800),
            ]),
        ],
    )
    assert not feasible_share(inst, inst.users[0], 1, inst.users[1], 1)


def test_depot_legs_cannot_be_rider_legs():
    inst = two_user_instance()
    assert not feasible_share(inst, inst.users[0], 1, inst.users[1], 0)
    assert not feasible_share(inst, inst.users[0], 1, inst.users[1], 2)


def test_feasible_share_matches_timeline_oracle():
    rng = random.Random(17)
    for seed in range(12):
        inst = generate(GenParams(n_users=4, seed=seed))
        for d in inst.users:
            for r in inst.users:
                nd = len(trip_legs(inst, d))
                nr = len(trip_legs(inst, r))
                for li, rj in itertools.product(range(nd), range(nr)):
                    assert feasible_share(inst, d, li, r, rj) == \
                        timeline_oracle(inst, d, li, r, rj)


# --- enumeration ------------------------------------------------------------

def test_single_user_yields_base_variant_only():
    inst = make_instance(
        [(0.0, 0.0)],
        [(0, 0, ALL_MOTS, [make_task(0, 5.0, 5.0, SIGMA + 3600)])],
        vehicles=(1,),
    )
    vs = enumerate_variants(inst)
    assert len(vs.all) == 1
    v = vs.all[0]
    assert v.shares == ()
    assert v.covered == (0,)


def test_identical_legs_create_joint_variant():
    inst = two_user_instance()
    vs = enumerate_variants(inst)
    joint = [v for v in vs.by_user[0] if v.shares]
    assert joint, "driver should gain a ride-share variant"
    covered = {c for v in joint for c in v.covered}
    assert 2 in covered and 3 in covered


def exhaustive_enumerator(inst, caps):
    """Independent recursion over per-leg insertion patterns."""
    out = {}
    for driver in inst.users:
        legs = trip_legs(inst, driver)
        options = []
        for li in range(len(legs)):
            opts = [None]
            for rider in inst.users:
                for rj in range(len(trip_legs(inst, rider))):
                    if timeline_oracle(inst, driver, li, rider, rj):
                        opts.append((rider.user_id, rj))
            options.append(opts)
        combos = set()
        for combo in itertools.product(*options):
            shares = [(i, r, j) for i, rj in enumerate(combo) if rj
                      for r, j in [rj]]
            if caps.max_shares_per_trip is not None and \
                    len(shares) > caps.max_shares_per_trip:
                continue
            if len({(r, j) for _, r, j in shares}) != len(shares):
                continue
            combos.add(tuple(shares))
        out[driver.user_id] = combos
    return out


def test_enumeration_matches_exhaustive_recursion():
    for seed in (0, 5, 9):
        inst = generate(GenParams(n_users=3, seed=seed))
        caps = Caps(max_shares_per_trip=2, max_variants_per_user=None)
        vs = enumerate_variants(inst, caps)
        want = exhaustive_enumerator(inst, caps)
        for uid, variants in vs.by_user.items():
            got = {v.shares for v in variants}
            assert got == want[uid]


def test_variant_fields_and_saving_identity():
    inst = generate(GenParams(n_users=6, seed=4))
    vs = enumerate_variants(inst)
    for v in vs.all:
        assert inst.sigma_s <= v.depart_s < v.arrive_s <= inst.tau_s
        driver = inst.user(v.driver)
        assert {t.id for t in driver.tasks} <= set(v.covered)
        recomputed = sum(variant_leg_savings(inst, v))
        assert abs(recomputed - v.saving_eur) <= 1e-9


def test_variant_cap_truncates_deterministically():
    inst = generate(GenParams(n_users=10, seed=1))
    a = enumerate_variants(inst, Caps(max_variants_per_user=5))
    b = enumerate_variants(inst, Caps(max_variants_per_user=5))
    assert [v.shares for v in a.all] == [v.shares for v in b.all]
    assert all(len(vs) <= 5 for vs in a.by_user.values())
    full = enumerate_variants(inst, Caps(max_variants_per_user=None))
    assert len(full.all) >= len(a.all)
    if len(full.all) > len(a.all):
        assert a.stats.truncated_users


def long_day_instance():
    """Users of at least 40 tasks each, with no car overhead. Users 0-2 keep
    one schedule on four points, user 2 a little off them, so each of
    their task-to-task legs can take the other two along. User 3 spends the
    day far away and then comes back for leg 40, a short leg with a window
    wide enough for several of the others' last legs."""
    mots = default_mots()
    mots[CAR] = dataclasses.replace(mots[CAR], extra_time_s=0)
    users, next_task = [], 0
    for uid in range(3):
        tasks = []
        for k in range(42):
            x = 1.0 + 0.5 * (k % 4) + (0.1 if uid == 2 else 0.0)
            tasks.append(make_task(next_task, x, 1.0, SIGMA + 900 + 1000 * k,
                                   duration=300))
            next_task += 1
        users.append((0, 0, ALL_MOTS, tasks))
    tasks = [make_task(next_task + k, 9.0 + 0.5 * (k % 2), 9.0,
                       SIGMA + 900 + 900 * k, duration=300) for k in range(39)]
    tasks += [make_task(next_task + 39, 1.0, 1.0, SIGMA + 38000, duration=0),
              make_task(next_task + 40, 1.5, 1.0, SIGMA + 49000, duration=0)]
    users.append((1, 0, ALL_MOTS, tasks))
    return make_instance([(0.0, 0.0), (10.0, 10.0)], users, mots=mots)


def test_long_days_match_the_full_scan():
    inst = long_day_instance()
    assert min(len(u.tasks) for u in inst.users) >= 40
    legs_of = {u.user_id: trip_legs(inst, u) for u in inst.users}

    def riders(driver, d_leg):
        return [(r.user_id, r_leg) for r in inst.users
                for r_leg in range(len(legs_of[r.user_id]))
                if feasible_share(inst, inst.user(driver), d_leg, r, r_leg)]

    # most legs of users 0-2 admit two or more riders, and user 3's leg 40
    # fits several of their last legs, which the walk varies first
    for driver in range(3):
        assert sum(len(riders(driver, leg)) >= 2 for leg in range(43)) >= 40
        assert sum((3, 40) in riders(driver, leg) for leg in range(38, 43)) >= 2
    assert len(riders(3, 40)) >= 2
    for caps in (Caps(), Caps(max_variants_per_user=20)):
        for joint_k in (False, True):
            assert_same(enumerate_variants(inst, caps, joint_k=joint_k),
                        reference_enumerate_variants(inst, caps, joint_k=joint_k))


def test_negative_cap_is_rejected():
    # -1 means "unlimited" only on the command line; the library spells it None
    with pytest.raises(ValueError, match="max_shares_per_trip"):
        Caps(-1)
    with pytest.raises(ValueError, match="max_variants_per_user"):
        Caps(max_variants_per_user=-1)
    # nor can a valid one be made negative afterwards
    caps = Caps()
    with pytest.raises(dataclasses.FrozenInstanceError):
        caps.max_variants_per_user = -1


# --- graph assembly ----------------------------------------------------------

def test_zero_users_graph_is_waiting_chains():
    inst = make_instance([(0.0, 0.0), (10.0, 10.0)], [], vehicles=(1, 1))
    g = build_graph(inst, [])
    assert len(g.ride_edges) == 0
    assert len(g.waiting_edges) == 2  # one chain per depot, sigma -> tau
    assert len(g.nodes) == 4


def five_user_instance():
    """Five users far apart with one task each, so no share is feasible."""
    users = []
    for i in range(5):
        x = 2.0 + 3.5 * i
        users.append((i % 2, i % 2, ALL_MOTS,
                      [make_task(i, x, 0.5 + 2.9 * i,
                                 SIGMA + 3600 + 900 * i, 1800)]))
    return make_instance([(0.0, 0.0), (18.0, 18.0)], users)


def test_five_base_variants_two_chains():
    # no feasible shares: one ride edge each
    inst = five_user_instance()
    vs = enumerate_variants(inst)
    g = build_graph(inst, vs)
    assert len(g.ride_edges) == 5
    for d in (0, 1):
        chain = [e for e in g.waiting_edges
                 if g.node_depot(e.tail) == d]
        times = sorted({g.node_time(v) for v in range(len(g.nodes))
                        if g.node_depot(v) == d})
        assert len(chain) == len(times) - 1


def test_u50_caps_off_edge_count_band():
    inst = generate(GenParams(n_users=50, seed=0))
    vs = enumerate_variants(inst, Caps(max_shares_per_trip=None,
                                       max_variants_per_user=None))
    g = build_graph(inst, vs)
    assert 7403 / 3 <= len(g.ride_edges) <= 7403 * 3


def test_graph_is_a_dag_with_monotone_edges():
    inst = generate(GenParams(n_users=8, seed=2))
    g = build_graph(inst, enumerate_variants(inst))
    for e in g.edges:
        assert g.node_time(e.tail) < g.node_time(e.head)
    # relaxation order: every edge into a node precedes the node's out-edges
    position = {eid: i for i, eid in enumerate(
        [eid for out in g.out_edges for eid in out])}
    for e in g.edges:
        for out in g.out_edges[e.head]:
            assert position[e.id] < position[out]


def test_source_sink_degrees():
    inst = generate(GenParams(n_users=6, seed=3))
    g = build_graph(inst, enumerate_variants(inst))
    sources = set(g.source.values())
    assert not any(e.head in sources for e in g.edges)
    for d, v in g.sink.items():
        assert g.out_edges[v] == []


def test_variant_outside_horizon_is_rejected():
    inst = two_user_instance()
    vs = enumerate_variants(inst)
    from dataclasses import replace
    bad = replace(vs.all[0], arrive_s=TAU + 1)
    with pytest.raises(GraphConstructionError):
        build_graph(inst, [bad])


def test_variant_that_takes_no_time_is_rejected_as_such():
    inst = two_user_instance()
    v = enumerate_variants(inst).all[0]
    bad = dataclasses.replace(v, arrive_s=v.depart_s)
    with pytest.raises(GraphConstructionError,
                       match=f"arrives at {v.depart_s}, not after it departs"):
        build_graph(inst, [bad])


# --- reductions ---------------------------------------------------------------

def test_statespace_bucket_aligned_graph_unchanged():
    inst = generate(GenParams(n_users=5, seed=6))
    g = build_graph(inst, enumerate_variants(inst))
    aligned = reduce_statespace(g, bucket_s=1)  # every time its own bucket
    assert len(aligned.nodes) == len(g.nodes)
    assert len(aligned.ride_edges) == len(g.ride_edges)


def test_statespace_merges_parallel_to_best():
    inst = two_user_instance()
    vs = enumerate_variants(inst)
    g = build_graph(inst, vs)
    reduced = reduce_statespace(g, bucket_s=TAU)  # one interior bucket
    by_pair = {}
    for e in g.ride_edges:
        key = (g.node_depot(e.tail), g.node_depot(e.head))
        by_pair.setdefault(key, []).append(e.saving)
    for e in reduced.ride_edges:
        key = (reduced.node_depot(e.tail), reduced.node_depot(e.head))
        assert e.saving == pytest.approx(max(by_pair[key]), abs=1e-12)
    for e in reduced.edges:
        assert reduced.node_time(e.tail) < reduced.node_time(e.head)


def test_prune_keeps_one_best_edge_per_user():
    inst = two_user_instance()
    g = build_graph(inst, enumerate_variants(inst))
    reduced = reduce_prune(g)
    by_driver = {}
    for e in g.ride_edges:
        d = g.variants[e.variant_id].driver
        by_driver.setdefault(d, []).append(e)
    assert len(reduced.ride_edges) == len(by_driver)
    for e in reduced.ride_edges:
        d = reduced.variants[e.variant_id].driver
        assert e.saving == pytest.approx(
            max(x.saving for x in by_driver[d]), abs=1e-12)
        first = min(by_driver[d], key=lambda x: x.variant_id)
        assert reduced.node_time(e.tail) == g.node_time(first.tail)
        assert reduced.node_time(e.head) == g.node_time(first.head)


def test_drop_negative_removes_exactly_negatives():
    inst = generate(GenParams(n_users=8, seed=5))
    g = build_graph(inst, enumerate_variants(inst))
    n_neg = sum(1 for e in g.ride_edges if e.saving < 0)
    reduced = drop_negative(g)
    assert len(reduced.ride_edges) == len(g.ride_edges) - n_neg
    assert all(e.saving >= 0 for e in reduced.ride_edges)
    assert len(reduced.waiting_edges) == len(g.waiting_edges)
    if n_neg == 0:
        assert len(reduced.ride_edges) == len(g.ride_edges)


def test_pricing_never_uses_dropped_edges():
    from mmcrp.colgen import DualPrices, price
    inst = generate(GenParams(n_users=8, seed=5))
    g = build_graph(inst, enumerate_variants(inst))
    reduced = drop_negative(g)
    duals = DualPrices({}, {}, {})
    kept = {e.variant_id for e in reduced.ride_edges}
    for d in sorted(reduced.source):
        res = price(reduced, duals, d, collect="all")
        for cand in res.candidates:
            assert set(cand.route.variant_ids) <= kept
            for vid in cand.route.variant_ids:
                assert g.variants[vid].saving_eur >= 0


def test_dump_edges_format(tmp_path):
    inst = two_user_instance()
    g = build_graph(inst, enumerate_variants(inst))
    out = tmp_path / "edges.csv"
    dump_edges(g, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tail_depot", "tail_s", "head_depot", "head_s",
                       "variant_id", "saving_eur"]
    assert len(rows) == 1 + len(g.edges)


def node_windows(g):
    """The window of every node, read off g.window_bounds: a source is in
    window 0, and the heads of a chain's waiting edges window_bounds[k, j]
    to window_bounds[k + 1, j] - 1 are in window k."""
    win = np.full(len(g.nodes), -1)
    win[list(g.source.values())] = 0
    b = g.window_bounds
    for k in range(len(b) - 1):
        for j in range(b.shape[1]):
            win[g.head[b[k, j]:b[k + 1, j]]] = k
    return win


@pytest.mark.parametrize("n_users,seed", [(5, 0), (8, 1), (20, 2), (40, 3)])
def test_ride_tails_lie_in_earlier_windows(n_users, seed):
    inst = generate(GenParams(n_users=n_users, seed=seed))
    g = build_graph(inst, enumerate_variants(inst))
    for graph in (g, reduce_statespace(g), reduce_prune(g), drop_negative(g)):
        assert np.array_equal(graph.tail, [e.tail for e in graph.edges])
        # each depot's waiting chain is a run of edge ids, in source order
        b = graph.window_bounds
        assert [e.id for e in graph.waiting_edges] == \
            list(range(b[0, 0], b[-1, -1]))
        assert list(b[0, 1:]) == list(b[-1, :-1])
        for j, source in enumerate(graph.source.values()):
            assert graph.tail[b[0, j]] == source
        win = node_windows(graph)
        assert (win >= 0).all()
        assert (np.diff(win) >= 0).all()  # windows are runs of nodes
        rides = graph.ride_edges
        assert all(win[e.tail] < win[e.head] for e in rides)
        # a window starts only at a node some ride from the window before
        # reaches
        for v in np.flatnonzero(np.diff(win)) + 1:
            assert any(e.head == v and win[e.tail] == win[v] - 1
                       for e in rides)
        assert len(graph.window_edges) == len(b) - 1
        for k, into in enumerate(graph.window_edges):
            entering = {e.id for e in rides if win[e.head] == k}
            entering |= {lo for lo, hi in zip(b[k], b[k + 1]) if lo < hi}
            assert sorted(into.tolist()) == sorted(entering)
            keys = [(graph.head[e], graph.tail[e], e) for e in into]
            assert keys == sorted(keys)
            # the other waiting edges of the window link two of its nodes
            for lo, hi in zip(b[k], b[k + 1]):
                assert lo == hi or win[graph.tail[lo]] < k or k == 0
                assert all(win[graph.tail[e]] == k for e in range(lo + 1, hi))
