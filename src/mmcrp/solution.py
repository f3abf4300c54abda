"""The route record and decoded plans: vehicle itineraries, fallback
assignments and usage metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import Instance, cheapest_other_mot, extended_sequence
from .ridegraph import TripVariant


@dataclass(frozen=True)
class Route:
    """One vehicle's day: depot-to-depot rides in time order (may be empty).

    The same record serves as a priced candidate, a master column and a plan
    route. covered is the sorted multiset of the task ids its variants
    cover: a task touched by two rides appears twice. An empty route
    between two different depots is the master's relocation column: no
    graph path has that shape, since waiting edges never change depot."""

    start_depot: int
    end_depot: int
    variant_ids: tuple[int, ...]
    covered: tuple[int, ...]
    saving_eur: float


@dataclass
class Plan:
    """A decoded solution: its routes, the ids of the tasks they cover, and
    the cheapest-other fallback of every task they leave uncovered."""

    routes: list[Route]
    total_saving: float
    covered: frozenset[int]
    uncovered: dict[int, tuple[str, float]]
    rides_per_car: float
    shares_per_ride: float


def fallback_assignment(instance: Instance,
                        covered_tasks: frozenset[int]) -> dict[int, tuple[str, float]]:
    """Cheapest-other annotation for every task not reached by a car: the mode
    and cost of the leg arriving at the task from its predecessor."""
    out: dict[int, tuple[str, float]] = {}
    for user in instance.users:
        seq = extended_sequence(instance, user)
        for prev, task in zip(seq[:-1], seq[1:]):
            if task.is_depot_endpoint or task.id in covered_tasks:
                continue
            out[task.id] = cheapest_other_mot(
                user, prev.loc, task.loc,
                prev.earliest_departure_s, task.latest_arrival_s,
                instance.mots, instance.costs,
            )
    return out


def build_plan(instance: Instance, variants: Mapping[int, TripVariant],
               routes: Iterable[Route]) -> Plan:
    routes = list(routes)
    covered = frozenset(t for r in routes for t in r.covered)
    n_rides = sum(len(r.variant_ids) for r in routes)
    n_shares = sum(len(variants[vid].shares)
                   for r in routes for vid in r.variant_ids)
    fleet = instance.fleet_size
    return Plan(
        routes=routes,
        total_saving=sum(r.saving_eur for r in routes),
        covered=covered,
        uncovered=fallback_assignment(instance, covered),
        rides_per_car=n_rides / fleet if fleet else 0.0,
        shares_per_ride=n_shares / n_rides if n_rides else 0.0,
    )
