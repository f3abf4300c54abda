"""Differential test of enumerate_variants against the full pairwise scan.

The reference below is the straightforward enumeration: every driver leg is
checked against every leg of every other user by rebuilding both users'
legs and simulating the timeline, and every saving and trip time is computed
from scratch per variant. The production code must produce exactly the same
variants (every field, floats bit for bit) and the same stats.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from conftest import SIGMA, make_instance, make_task
from mmcrp.instgen import GenParams, generate
from mmcrp.model import (
    CAR,
    Location,
    Task,
    default_mots,
    leg_saving_plain,
    leg_saving_share,
    travel_time,
    trip_legs,
    trip_saving,
)
from mmcrp.ridegraph import (
    Caps,
    EnumStats,
    TripVariant,
    VariantSet,
    enumerate_variants,
)


def ref_feasible_share(instance, driver, driver_leg, rider, rider_leg):
    if driver.user_id == rider.user_id:
        return False
    mots = instance.mots
    du, dv = trip_legs(instance, driver)[driver_leg]
    ru, rv = trip_legs(instance, rider)[rider_leg]
    if ru.is_depot_endpoint or rv.is_depot_endpoint:
        return False
    t = du.earliest_departure_s
    if du.loc != ru.loc:
        t += travel_time(du.loc, ru.loc, CAR, mots)
    t = max(t, ru.earliest_departure_s)
    t += travel_time(ru.loc, rv.loc, CAR, mots)
    if t > rv.latest_arrival_s:
        return False
    if rv.loc != dv.loc:
        t += travel_time(rv.loc, dv.loc, CAR, mots)
    return t <= dv.latest_arrival_s


@dataclass(frozen=True)
class RefOption:
    saving: float
    rider_id: int = -1
    rider_leg: int = -1
    rider_u: Optional[Task] = None
    rider_v: Optional[Task] = None

    @property
    def is_share(self):
        return self.rider_id >= 0


def ref_first_leg_departure(instance, du, dv, opt):
    mots = instance.mots
    if not opt.is_share:
        return dv.latest_arrival_s - travel_time(du.loc, dv.loc, CAR, mots)
    ru, rv = opt.rider_u, opt.rider_v
    t = dv.latest_arrival_s
    if rv.loc != dv.loc:
        t -= travel_time(rv.loc, dv.loc, CAR, mots)
    t = min(t, rv.latest_arrival_s)
    t -= travel_time(ru.loc, rv.loc, CAR, mots)
    if du.loc != ru.loc:
        t -= travel_time(du.loc, ru.loc, CAR, mots)
    return t


def ref_last_leg_arrival(instance, du, dv, opt):
    mots = instance.mots
    t = du.earliest_departure_s
    if not opt.is_share:
        return t + travel_time(du.loc, dv.loc, CAR, mots)
    ru, rv = opt.rider_u, opt.rider_v
    if du.loc != ru.loc:
        t += travel_time(du.loc, ru.loc, CAR, mots)
    t = max(t, ru.earliest_departure_s)
    t += travel_time(ru.loc, rv.loc, CAR, mots)
    if rv.loc != dv.loc:
        t += travel_time(rv.loc, dv.loc, CAR, mots)
    return t


def ref_make_variant(instance, driver, legs, combo, variant_id):
    depart = ref_first_leg_departure(instance, *legs[0], combo[0])
    arrive = ref_last_leg_arrival(instance, *legs[-1], combo[-1])
    covered = {t.id for t in driver.tasks}
    shares = []
    for leg_idx, opt in enumerate(combo):
        if not opt.is_share:
            continue
        shares.append((leg_idx, opt.rider_id, opt.rider_leg))
        for t in (opt.rider_u, opt.rider_v):
            if not t.is_depot_endpoint:
                covered.add(t.id)
    return TripVariant(
        id=variant_id,
        driver=driver.user_id,
        start_depot=driver.start_depot,
        end_depot=driver.end_depot,
        depart_s=depart,
        arrive_s=arrive,
        saving_eur=trip_saving(o.saving for o in combo),
        covered=tuple(sorted(covered)),
        shares=tuple(shares),
    )


def reference_enumerate_variants(instance, caps=None, joint_k=False):
    caps = caps or Caps()
    stats = EnumStats()
    truncated = []
    by_user = {}
    next_id = 0

    legs_of = {u.user_id: trip_legs(instance, u) for u in instance.users}

    for driver in instance.users:
        legs = legs_of[driver.user_id]
        options = []
        for leg_idx, (du, dv) in enumerate(legs):
            base = RefOption(leg_saving_plain(driver, du, dv,
                                              instance.mots, instance.costs))
            shares = []
            for rider in instance.users:
                if rider.user_id == driver.user_id:
                    continue
                for r_idx, (ru, rv) in enumerate(legs_of[rider.user_id]):
                    stats.feasibility_checks += 1
                    if not ref_feasible_share(instance, driver, leg_idx,
                                              rider, r_idx):
                        continue
                    sav = leg_saving_share(driver, du, dv, rider, ru, rv,
                                           instance.mots, instance.costs,
                                           joint_k=joint_k)
                    shares.append(RefOption(sav, rider.user_id, r_idx, ru, rv))
            shares.sort(key=lambda o: (-o.saving, o.rider_id, o.rider_leg))
            options.append([base] + shares)

        variants = []
        max_v = caps.max_variants_per_user
        max_s = caps.max_shares_per_trip
        was_truncated = False
        for combo in itertools.product(*options):
            n_shares = sum(1 for o in combo if o.is_share)
            if max_s is not None and n_shares > max_s:
                continue
            if n_shares > 0:
                riders_used = {(o.rider_id, o.rider_leg) for o in combo if o.is_share}
                if len(riders_used) != n_shares:
                    continue
            if max_v is not None and len(variants) >= max_v:
                was_truncated = True
                break
            variants.append(ref_make_variant(instance, driver, legs, combo, next_id))
            next_id += 1
        if was_truncated:
            truncated.append(driver.user_id)
        by_user[driver.user_id] = variants

    stats.n_variants = next_id
    stats.truncated_users = tuple(truncated)
    return VariantSet(by_user, stats)


UNCAPPED = Caps(max_shares_per_trip=None, max_variants_per_user=None)
CAP20 = Caps(max_variants_per_user=20)

# (users, seed): 50 generated instances
INSTANCES = ([(5, s) for s in range(15)] + [(12, s) for s in range(15)]
             + [(25, s) for s in range(12)] + [(40, s) for s in range(7)]
             + [(80, 0)])


def configs(n_users):
    """(caps, joint_k) settings checked on an instance."""
    out = [(Caps(), False), (CAP20, True)]
    if n_users <= 12:
        out += [(UNCAPPED, False), (Caps(), True)]
    if n_users >= 80:
        out = out[:1]
    return out


def assert_same(got: VariantSet, want: VariantSet):
    assert list(got.by_user) == list(want.by_user)
    for uid, variants in want.by_user.items():
        assert got.by_user[uid] == variants, f"user {uid}"
    assert got.stats == want.stats


@pytest.mark.parametrize("n_users,seed", INSTANCES)
def test_enumeration_equals_full_scan(n_users, seed):
    inst = generate(GenParams(n_users=n_users, seed=seed))
    for caps, joint_k in configs(n_users):
        assert_same(enumerate_variants(inst, caps, joint_k=joint_k),
                    reference_enumerate_variants(inst, caps, joint_k=joint_k))


def test_reference_counts_every_candidate_pair():
    inst = generate(GenParams(n_users=12, seed=3))
    n_legs = [len(trip_legs(inst, u)) for u in inst.users]
    pairs = sum(n * (sum(n_legs) - n) for n in n_legs)
    assert enumerate_variants(inst).stats.feasibility_checks == pairs
    assert reference_enumerate_variants(inst).stats.feasibility_checks == pairs


def tight_instance(seed):
    """Users on a three-point grid whose legs have zero, small or no slack
    over the car time, so that pickups, drop-offs and deadlines coincide
    and the window bound is met with equality."""
    rng = random.Random(seed)
    mots = default_mots()
    points = [(2.0, 2.0), (8.0, 8.0), (2.0, 8.0)]
    users, next_task = [], 0
    for uid in range(6):
        tasks, loc = [], rng.choice(points)
        latest = SIGMA + 3600 * rng.choice([1, 2])
        for seq in range(1, rng.choice([2, 3]) + 1):
            if seq > 1:
                nxt = rng.choice(points)
                latest = (tasks[-1].earliest_departure_s + rng.choice([0, 0, 600, 1800])
                          + travel_time(tasks[-1].loc, Location(*nxt), CAR, mots))
                loc = nxt
            tasks.append(make_task(next_task, *loc, latest,
                                   duration=rng.choice([0, 1800])))
            next_task += 1
        users.append((rng.choice([0, 1]), rng.choice([0, 1]),
                      ("walk", "public", "taxi"), tasks))
    return make_instance([(0.0, 0.0), (10.0, 10.0)], users, mots=mots)


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_equals_full_scan_on_tight_windows(seed):
    inst = tight_instance(seed)
    for caps in (Caps(), UNCAPPED):
        assert_same(enumerate_variants(inst, caps),
                    reference_enumerate_variants(inst, caps))


def test_tight_windows_have_zero_slack_shares():
    """Some share of the tight instances uses its whole window: the rider is
    dropped off exactly at their deadline and the driver arrives exactly at
    theirs."""
    zero_slack = 0
    for seed in range(40):
        inst = tight_instance(seed)
        legs_of = {u.user_id: trip_legs(inst, u) for u in inst.users}
        for v in enumerate_variants(inst, UNCAPPED).all:
            for d_leg, rid, r_leg in v.shares:
                du, dv = legs_of[v.driver][d_leg]
                ru, rv = legs_of[rid][r_leg]
                tt_r = travel_time(ru.loc, rv.loc, CAR, inst.mots)
                zero_slack += (du.loc == ru.loc and rv.loc == dv.loc
                               and du.earliest_departure_s + tt_r
                               == ru.earliest_departure_s + tt_r
                               == rv.latest_arrival_s == dv.latest_arrival_s)
    assert zero_slack > 0
