import math
import random

import pytest

from conftest import SIGMA, TAU, make_task
from mmcrp.model import (
    ALL_MOTS,
    CAR,
    NO_MOT,
    OTHER_MOTS,
    CostParams,
    Depot,
    Instance,
    Location,
    MotParams,
    Task,
    UserTrip,
    ValidationError,
    cheapest_other_mot,
    default_mots,
    leg_cost,
    leg_saving_plain,
    leg_saving_share,
    travel_time,
    trip_saving,
)

O = Location(0.0, 0.0)
P34 = Location(3.0, 4.0)  # 5 km from the origin


def user(allowed=ALL_MOTS, uid=0):
    t = make_task(0, 0.0, 0.0, SIGMA + 3600)
    return UserTrip(uid, 0, 0, (t,), frozenset(allowed))


# --- travel_time ------------------------------------------------------------

def test_travel_time_same_location_car_is_overhead_only(mots):
    assert travel_time(O, O, CAR, mots) == 600


def test_travel_time_zero_distance_walk(mots):
    assert travel_time(O, O, "walk", mots) == 0


def test_travel_time_car_five_km(mots):
    # direct evaluation: sloping 1.3, speed 30 km/h, overhead 600 s
    expected = 600 + round(1.3 * 5.0 / 30.0 * 3600.0)
    assert expected == 1380
    assert travel_time(O, P34, CAR, mots) == expected


def test_travel_time_symmetric(mots):
    rng = random.Random(7)
    for _ in range(50):
        a = Location(rng.uniform(0, 20), rng.uniform(0, 20))
        b = Location(rng.uniform(0, 20), rng.uniform(0, 20))
        for k in ALL_MOTS:
            assert travel_time(a, b, k, mots) == travel_time(b, a, k, mots)


# --- leg_cost ---------------------------------------------------------------

def test_leg_cost_zero_distance_walk_is_free(mots, costs):
    assert leg_cost(O, O, "walk", mots, costs) == 0.0


def test_leg_cost_car_five_km(mots, costs):
    expected = (1.3 * 5 * 0.188
                + 1380 / 3600 * 19.42
                + 1.3 * 5 * 0.0002 * 5.0)
    got = leg_cost(O, P34, CAR, mots, costs)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(8.67, abs=0.01)


def test_leg_cost_taxi_five_km(mots, costs):
    tt = travel_time(O, P34, "taxi", mots)
    assert tt == round(1.3 * 5 / 30 * 3600) + 300
    expected = 1.3 * 5 * 1.2 + tt / 3600 * 19.42
    assert leg_cost(O, P34, "taxi", mots, costs) == pytest.approx(expected, abs=1e-12)


def test_leg_cost_symmetric(mots, costs):
    rng = random.Random(13)
    for _ in range(50):
        a = Location(rng.uniform(0, 20), rng.uniform(0, 20))
        b = Location(rng.uniform(0, 20), rng.uniform(0, 20))
        for k in ALL_MOTS:
            assert leg_cost(a, b, k, mots, costs) == leg_cost(b, a, k, mots, costs)


# --- cheapest_other_mot -----------------------------------------------------

def test_cheapest_other_adjacent_generous_is_walk(mots, costs):
    near = Location(0.05, 0.0)
    mot, cost = cheapest_other_mot(user(), O, near, SIGMA, TAU, mots, costs)
    assert mot == "walk"
    assert 0 < cost < 0.5


def test_cheapest_other_tight_deadline_prefers_taxi(mots, costs):
    far = Location(10.0, 10.0)
    # only the two 30 km/h modes can make it; taxi has less overhead headroom
    depart = SIGMA
    deadline = SIGMA + travel_time(O, far, "taxi", mots)
    mot, cost = cheapest_other_mot(user(), O, far, depart, deadline, mots, costs)
    assert mot == "taxi"
    assert cost < costs.penalty_eur  # no penalty on the winner


def test_cheapest_other_car_only_user_gets_sentinel(mots, costs):
    mot, cost = cheapest_other_mot(user([CAR]), O, P34, SIGMA, TAU, mots, costs)
    assert (mot, cost) == (NO_MOT, costs.penalty_eur)


def test_cheapest_other_is_min_over_penalized_candidates(mots, costs):
    # independent recomputation: min over the four non-car modes with
    # membership and lateness penalties added
    rng = random.Random(3)
    for _ in range(100):
        a = Location(rng.uniform(0, 20), rng.uniform(0, 20))
        b = Location(rng.uniform(0, 20), rng.uniform(0, 20))
        allowed = frozenset([CAR] + [k for k in OTHER_MOTS if rng.random() < 0.6])
        u = UserTrip(0, 0, 0, (make_task(0, 1, 1, SIGMA + 3600),),
                     allowed)
        t0 = rng.randrange(SIGMA, TAU - 3600)
        t1 = t0 + rng.randrange(300, 7200)
        got_mot, got_cost = cheapest_other_mot(u, a, b, t0, t1, mots, costs)
        if not any(k in allowed for k in OTHER_MOTS):
            assert (got_mot, got_cost) == (NO_MOT, costs.penalty_eur)
            continue
        best = None
        for k in OTHER_MOTS:
            c = leg_cost(a, b, k, mots, costs)
            if k not in allowed:
                c += costs.penalty_eur
            if t0 + travel_time(a, b, k, mots) > t1:
                c += costs.penalty_eur
            if best is None or c < best[1]:
                best = (k, c)
        assert got_mot == best[0]
        assert got_cost == pytest.approx(best[1], abs=1e-12)


def test_ties_break_in_fixed_mode_order(costs):
    # force all modes identical: equal speed, overhead, sloping, no cost
    flat = {k: MotParams(k, 10.0, 0, 1.0, 0.0) for k in ALL_MOTS}
    mot, _ = cheapest_other_mot(user(), O, P34, SIGMA, TAU, flat, costs)
    assert mot == "walk"


def test_mode_table_without_some_modes(mots, costs):
    # bike would win this leg; without it in the table, public does
    partial = {k: mots[k] for k in ("car", "walk", "public")}
    assert cheapest_other_mot(user(), O, P34, 25000, 40000, mots, costs) == \
        ("bike", pytest.approx(8.54, abs=5e-3))
    mot, cost = cheapest_other_mot(user(), O, P34, 25000, 40000, partial, costs)
    assert (mot, cost) == ("public", pytest.approx(8.90, abs=5e-3))
    # coincident driver and rider legs: no detour, one common mode
    di, dj = make_task(0, 0.0, 0.0, 23200), make_task(1, 3.0, 4.0, 40000)
    ri, rj = make_task(2, 0.0, 0.0, 23200), make_task(3, 3.0, 4.0, 40000)
    u = user()
    joint = leg_saving_share(u, di, dj, u, ri, rj, partial, costs, joint_k=True)
    assert joint == cost + cost - leg_cost(O, P34, CAR, partial, costs)


# --- savings ----------------------------------------------------------------

def test_plain_saving_zero_length_leg_is_negative(mots, costs):
    u = user()
    a = make_task(0, 0.0, 0.0, SIGMA + 3600)
    b = make_task(1, 0.0, 0.0, SIGMA + 7200)
    got = leg_saving_plain(u, a, b, mots, costs)
    # walking 0 km is free; the car still pays its 600 s overhead as wages
    assert got == pytest.approx(-(600 / 3600 * 19.42), abs=1e-12)
    assert got < 0


def test_plain_saving_with_missed_walk_deadline(mots, costs):
    u = user([CAR, "walk"])
    a = make_task(0, 0.0, 0.0, SIGMA)
    b = make_task(1, 3.0, 4.0, SIGMA + 1500)  # walk needs ~4000 s
    got = leg_saving_plain(u, a, b, mots, costs)
    walk = leg_cost(a.loc, b.loc, "walk", mots, costs)
    car = leg_cost(a.loc, b.loc, CAR, mots, costs)
    assert got == pytest.approx(costs.penalty_eur + walk - car, abs=1e-9)


def test_plain_saving_matches_brute_force_min(mots, costs):
    rng = random.Random(5)
    for _ in range(100):
        a = make_task(0, rng.uniform(0, 20), rng.uniform(0, 20),
                      rng.randrange(SIGMA, TAU - 7200))
        b = make_task(1, rng.uniform(0, 20), rng.uniform(0, 20),
                      rng.randrange(SIGMA, TAU - 3600))
        u = user()
        _, other = cheapest_other_mot(u, a.loc, b.loc, a.earliest_departure_s,
                                      b.latest_arrival_s, mots, costs)
        want = other - leg_cost(a.loc, b.loc, CAR, mots, costs)
        assert leg_saving_plain(u, a, b, mots, costs) == pytest.approx(want, abs=1e-12)


def test_share_saving_identical_legs_reduces_to_other_minus_car(mots, costs):
    driver, rider = user(uid=0), user(ALL_MOTS, uid=1)
    di = make_task(0, 2.0, 2.0, SIGMA + 3600)
    dj = make_task(1, 8.0, 8.0, SIGMA + 9000)
    ri = make_task(2, 2.0, 2.0, SIGMA + 3600)
    rj = make_task(3, 8.0, 8.0, SIGMA + 9000)
    got = leg_saving_share(driver, di, dj, rider, ri, rj, mots, costs)
    _, other_d = cheapest_other_mot(driver, di.loc, dj.loc,
                                    di.earliest_departure_s, dj.latest_arrival_s,
                                    mots, costs)
    _, other_r = cheapest_other_mot(rider, ri.loc, rj.loc,
                                    ri.earliest_departure_s, rj.latest_arrival_s,
                                    mots, costs)
    want = other_d + other_r - leg_cost(ri.loc, rj.loc, CAR, mots, costs)
    assert got == pytest.approx(want, abs=1e-9)


def test_share_saving_shared_destination_has_pickup_detour_only(mots, costs):
    driver, rider = user(uid=0), user(ALL_MOTS, uid=1)
    di = make_task(0, 0.0, 0.0, SIGMA + 3600)
    dj = make_task(1, 8.0, 8.0, SIGMA + 12000)
    ri = make_task(2, 2.0, 0.0, SIGMA + 4800)
    rj = make_task(3, 8.0, 8.0, SIGMA + 12000)  # same spot as dj
    got = leg_saving_share(driver, di, dj, rider, ri, rj, mots, costs)
    _, other_d = cheapest_other_mot(driver, di.loc, dj.loc,
                                    di.earliest_departure_s, dj.latest_arrival_s,
                                    mots, costs)
    _, other_r = cheapest_other_mot(rider, ri.loc, rj.loc,
                                    ri.earliest_departure_s, rj.latest_arrival_s,
                                    mots, costs)
    want = (other_d + other_r
            - leg_cost(ri.loc, rj.loc, CAR, mots, costs)
            - leg_cost(di.loc, ri.loc, CAR, mots, costs))  # no drop-off leg
    assert got == pytest.approx(want, abs=1e-9)


def test_share_saving_distinct_endpoints_term_by_term(mots, costs):
    rng = random.Random(11)
    for _ in range(60):
        pts = [Location(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(4)]
        di = Task(0, pts[0], SIGMA + 1000, SIGMA + 3000)
        dj = Task(1, pts[1], SIGMA + 20000, SIGMA + 22000)
        ri = Task(2, pts[2], SIGMA + 2000, SIGMA + 4000)
        rj = Task(3, pts[3], SIGMA + 15000, SIGMA + 17000)
        driver, rider = user(uid=0), user(ALL_MOTS, uid=1)
        got = leg_saving_share(driver, di, dj, rider, ri, rj, mots, costs)
        _, od = cheapest_other_mot(driver, di.loc, dj.loc, di.earliest_departure_s,
                                   dj.latest_arrival_s, mots, costs)
        _, orr = cheapest_other_mot(rider, ri.loc, rj.loc, ri.earliest_departure_s,
                                    rj.latest_arrival_s, mots, costs)
        want = od + orr - (
            leg_cost(ri.loc, rj.loc, CAR, mots, costs)
            + leg_cost(di.loc, ri.loc, CAR, mots, costs)
            + leg_cost(rj.loc, dj.loc, CAR, mots, costs)
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_share_saving_joint_mode_flag(mots, costs):
    driver, rider = user([CAR, "walk", "taxi"], 0), user([CAR, "bike"], 1)
    di = make_task(0, 0.0, 0.0, SIGMA + 3600)
    dj = make_task(1, 6.0, 0.0, SIGMA + 12000)
    ri = make_task(2, 1.0, 1.0, SIGMA + 4800)
    rj = make_task(3, 5.0, 1.0, SIGMA + 10000)
    per_leg = leg_saving_share(driver, di, dj, rider, ri, rj, mots, costs)
    joint = leg_saving_share(driver, di, dj, rider, ri, rj, mots, costs,
                             joint_k=True)
    # the joint counterfactual is never cheaper than per-leg minima
    assert joint >= per_leg - 1e-9


def test_penalty_monotonicity(mots):
    rng = random.Random(23)
    lo, hi = CostParams(penalty_eur=100.0), CostParams(penalty_eur=10000.0)
    for _ in range(60):
        a = make_task(0, rng.uniform(0, 20), rng.uniform(0, 20),
                      rng.randrange(SIGMA, TAU - 9000))
        b = make_task(1, rng.uniform(0, 20), rng.uniform(0, 20),
                      rng.randrange(SIGMA, TAU - 5000))
        allowed = frozenset([CAR] + [k for k in OTHER_MOTS if rng.random() < 0.5])
        u = UserTrip(0, 0, 0, (make_task(9, 1, 1, SIGMA + 3600),), allowed)
        assert leg_saving_plain(u, a, b, mots, hi) >= \
            leg_saving_plain(u, a, b, mots, lo) - 1e-9
        ri = make_task(2, rng.uniform(0, 20), rng.uniform(0, 20),
                       rng.randrange(SIGMA, TAU - 9000))
        rj = make_task(3, rng.uniform(0, 20), rng.uniform(0, 20),
                       rng.randrange(SIGMA, TAU - 5000))
        r = UserTrip(1, 0, 0, (make_task(8, 1, 1, SIGMA + 3600),), allowed)
        assert leg_saving_share(u, a, b, r, ri, rj, mots, hi) >= \
            leg_saving_share(u, a, b, r, ri, rj, mots, lo) - 1e-9


def test_trip_saving_sums():
    assert trip_saving([2.0, -1.0, 3.0]) == 4.0
    assert trip_saving([]) == 0.0


def test_trip_saving_concatenation_is_additive():
    rng = random.Random(31)
    xs = [rng.uniform(-5, 5) for _ in range(7)]
    ys = [rng.uniform(-5, 5) for _ in range(4)]
    assert trip_saving(xs + ys) == pytest.approx(
        trip_saving(xs) + trip_saving(ys), abs=1e-12)


# --- parameter validation -----------------------------------------------------

def test_mot_params_invariants():
    with pytest.raises(ValidationError):
        MotParams("car", 0.0, 600, 1.3, 0.188)
    with pytest.raises(ValidationError):
        MotParams("car", 30.0, 600, 0.9, 0.188)
    with pytest.raises(ValidationError):
        MotParams("car", 30.0, -1, 1.3, 0.188)
    with pytest.raises(ValidationError):
        MotParams("car", math.nan, 600, 1.3, 0.188)
    with pytest.raises(ValidationError):
        MotParams("car", 30.0, math.inf, 1.3, 0.188)
    with pytest.raises(ValidationError):
        CostParams(wage_eur_per_h=math.nan)


def test_negative_emission_factor_is_rejected():
    with pytest.raises(ValidationError,
                       match="mot 'car': emission_t_per_km must be >= 0"):
        MotParams("car", 30.0, 600, 1.3, 0.188, -5.0)
    assert MotParams("car", 30.0, 600, 1.3, 0.188, 0.0).emission_t_per_km == 0.0


def test_task_validation():
    with pytest.raises(ValidationError, match="earliest_departure_s"):
        Task(0, O, SIGMA + 100, SIGMA + 50)
    # a depot pseudo-task leaves at sigma and may arrive until tau
    assert Task(-1, O, TAU, SIGMA).is_depot_endpoint


def test_invalid_objects_raise_at_construction():
    with pytest.raises(ValidationError, match="has no tasks"):
        UserTrip(0, 0, 0, (), frozenset(ALL_MOTS))
    with pytest.raises(ValidationError, match="vehicle counts must be >= 0"):
        Depot(0, O, -1, 0)
    u = user()
    with pytest.raises(ValidationError, match="start and end vehicle counts"):
        Instance((Depot(0, O, 1, 2),), (u,), default_mots(), CostParams(),
                 SIGMA, TAU)
    with pytest.raises(ValidationError, match="sigma_s must be < tau_s"):
        Instance((Depot(0, O, 1, 1),), (u,), default_mots(), CostParams(),
                 TAU, TAU)
    # a negative id marks a depot pseudo-task, never a user's task
    neg = UserTrip(0, 0, 0, (Task(-3, O, SIGMA + 3600, SIGMA + 1800),),
                   frozenset(ALL_MOTS))
    with pytest.raises(ValidationError, match="task -3 of user 0: id must be"):
        Instance((Depot(0, O, 1, 1),), (neg,), default_mots(), CostParams(),
                 SIGMA, TAU)
