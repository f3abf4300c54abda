from dataclasses import replace

import pytest

from mmcrp.model import (
    CAR,
    CostParams,
    Depot,
    Instance,
    Location,
    Task,
    UserTrip,
    default_mots,
)

SIGMA = 6 * 3600
TAU = 20 * 3600


def make_task(task_id, x, y, latest_arrival, duration=1800):
    return Task(task_id, Location(x, y), latest_arrival,
                latest_arrival + duration)


def make_instance(depot_locs, users, vehicles=(1, 1), mots=None, costs=None,
                  sigma=SIGMA, tau=TAU):
    """Hand-built instance; users is a list of (start_depot, end_depot,
    allowed_mots, [task tuples from make_task])."""
    depots = tuple(
        Depot(i, Location(*loc), vehicles[i], vehicles[i])
        for i, loc in enumerate(depot_locs)
    )
    trips = tuple(
        UserTrip(uid, a, b, tuple(tasks), frozenset(allowed))
        for uid, (a, b, allowed, tasks) in enumerate(users)
    )
    return Instance(depots, trips, mots or default_mots(),
                    costs or CostParams(), sigma, tau)


def car_only(instance):
    """The instance with the car as its only mode, in the table and for
    every user."""
    return replace(instance, mots={CAR: instance.mots[CAR]},
                   users=tuple(replace(u, allowed_mots=frozenset({CAR}))
                               for u in instance.users))


@pytest.fixture(scope="session")
def mots():
    return default_mots()


@pytest.fixture(scope="session")
def costs():
    return CostParams()
