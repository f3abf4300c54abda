"""Domain types plus the travel-time, cost and savings calculus.

All times are integer seconds from midnight (rounding happens once, at the
travel-time boundary); all costs are real-valued euros. Every type checks
its invariants when built (raising ValidationError) and is immutable after
construction, and every operation is a pure function, so the whole module is
safe for concurrent read access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

CAR = "car"
WALK = "walk"
BIKE = "bike"
PUBLIC = "public"
TAXI = "taxi"

#: Sentinel returned when a user has no non-car mode at all.
NO_MOT = "none"

ALL_MOTS = (CAR, WALK, BIKE, PUBLIC, TAXI)
#: Non-car candidates in the fixed tie-break order walk < bike < public < taxi.
OTHER_MOTS = (WALK, BIKE, PUBLIC, TAXI)


class ValidationError(ValueError):
    """A parameter set or instance violates a structural invariant."""


@dataclass(frozen=True)
class MotParams:
    """Per-mode constants: speed, fixed overhead, detour factor, unit costs."""

    mot: str
    speed_kmh: float
    extra_time_s: int
    sloping: float
    per_km_cost_eur: float
    emission_t_per_km: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.speed_kmh, self.extra_time_s, self.sloping,
                                       self.per_km_cost_eur, self.emission_t_per_km))):
            raise ValidationError(f"mot '{self.mot}': parameters must be finite")
        if self.speed_kmh <= 0:
            raise ValidationError(f"mot '{self.mot}': speed_kmh must be > 0")
        if self.sloping < 1.0:
            raise ValidationError(f"mot '{self.mot}': sloping must be >= 1.0")
        if self.extra_time_s < 0:
            raise ValidationError(f"mot '{self.mot}': extra_time_s must be >= 0")
        if self.per_km_cost_eur < 0:
            raise ValidationError(f"mot '{self.mot}': per_km_cost_eur must be >= 0")
        if self.emission_t_per_km < 0:
            raise ValidationError(f"mot '{self.mot}': emission_t_per_km must be >= 0")


@dataclass(frozen=True)
class CostParams:
    wage_eur_per_h: float = 19.42
    co2_eur_per_t: float = 5.0
    penalty_eur: float = 10000.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in
                   (self.wage_eur_per_h, self.co2_eur_per_t, self.penalty_eur)):
            raise ValidationError("cost parameters must be finite and nonnegative")


def default_mots() -> dict[str, MotParams]:
    """The standard five-mode parameter table.

    Speeds (km/h), fixed overheads (s) and sloping factors follow the usual
    urban calibration: car 30/600/1.3, walk 5/0/1.1, bike 16/120/1.3,
    public 20/300/1.5, taxi 30/300/1.3. Distance cost is 0.188 EUR/km for the
    car, 1.2 EUR/km for taxi and zero otherwise; only the car emits, 0.0002 t
    of CO2 per km.
    """
    return {
        CAR: MotParams(CAR, 30.0, 600, 1.3, 0.188, 0.0002),
        WALK: MotParams(WALK, 5.0, 0, 1.1, 0.0),
        BIKE: MotParams(BIKE, 16.0, 120, 1.3, 0.0),
        PUBLIC: MotParams(PUBLIC, 20.0, 300, 1.5, 0.0),
        TAXI: MotParams(TAXI, 30.0, 300, 1.3, 1.2),
    }


@dataclass(frozen=True)
class Location:
    x_km: float
    y_km: float

    def __post_init__(self):
        if not (math.isfinite(self.x_km) and math.isfinite(self.y_km)):
            raise ValidationError("location coordinates must be finite")


@dataclass(frozen=True)
class Task:
    """One meeting: fixed latest arrival and (service-shifted) earliest departure.

    Depot endpoints of a trip are pseudo-tasks (negative id), built only by
    extended_sequence, with latest_arrival = tau and earliest_departure =
    sigma; construction exempts them from the earliest >= latest check that
    every real task passes, and an Instance rejects a user task with a
    negative id.
    """

    id: int
    loc: Location
    latest_arrival_s: int
    earliest_departure_s: int

    @property
    def is_depot_endpoint(self) -> bool:
        return self.id < 0

    def __post_init__(self):
        if not self.is_depot_endpoint and \
                self.earliest_departure_s < self.latest_arrival_s:
            raise ValidationError(
                f"task {self.id}: earliest_departure_s "
                f"({self.earliest_departure_s}) < latest_arrival_s ({self.latest_arrival_s})"
            )


@dataclass(frozen=True)
class UserTrip:
    """A user's fixed day: ordered tasks between a start and an end depot."""

    user_id: int
    start_depot: int
    end_depot: int
    tasks: tuple[Task, ...]
    allowed_mots: frozenset[str]

    def __post_init__(self):
        if not self.tasks:
            raise ValidationError(f"user {self.user_id} has no tasks")


@dataclass(frozen=True)
class Depot:
    id: int
    loc: Location
    vehicles_start: int
    vehicles_end: int

    def __post_init__(self):
        if self.vehicles_start < 0 or self.vehicles_end < 0:
            raise ValidationError(f"depot {self.id}: vehicle counts must be >= 0")


@dataclass(frozen=True)
class Instance:
    depots: tuple[Depot, ...]
    users: tuple[UserTrip, ...]
    mots: Mapping[str, MotParams]
    costs: CostParams
    sigma_s: int
    tau_s: int

    @property
    def fleet_size(self) -> int:
        return sum(d.vehicles_start for d in self.depots)

    def depot(self, depot_id: int) -> Depot:
        for d in self.depots:
            if d.id == depot_id:
                return d
        raise KeyError(f"unknown depot id {depot_id}")

    def user(self, user_id: int) -> UserTrip:
        for u in self.users:
            if u.user_id == user_id:
                return u
        raise KeyError(f"unknown user id {user_id}")

    def all_tasks(self) -> list[Task]:
        return [t for u in self.users for t in u.tasks]

    def __post_init__(self):
        if self.sigma_s >= self.tau_s:
            raise ValidationError("horizon: sigma_s must be < tau_s")
        if CAR not in self.mots:
            raise ValidationError("mot table must contain 'car'")
        if not self.depots:
            raise ValidationError("at least one depot is required")
        depot_ids = {d.id for d in self.depots}
        if len(depot_ids) != len(self.depots):
            raise ValidationError("duplicate depot ids")
        if len({u.user_id for u in self.users}) != len(self.users):
            raise ValidationError("duplicate user ids")
        if sum(d.vehicles_start for d in self.depots) != sum(
            d.vehicles_end for d in self.depots
        ):
            raise ValidationError("total start and end vehicle counts must match")
        seen_tasks: set[int] = set()
        for u in self.users:
            if u.start_depot not in depot_ids or u.end_depot not in depot_ids:
                raise ValidationError(f"user {u.user_id}: unknown depot reference")
            if not u.allowed_mots <= set(self.mots):
                raise ValidationError(f"user {u.user_id}: unknown mode in allowed_mots")
            for t in u.tasks:
                if t.id < 0:
                    raise ValidationError(
                        f"task {t.id} of user {u.user_id}: id must be >= 0")
                if t.id in seen_tasks:
                    raise ValidationError(f"duplicate task id {t.id}")
                seen_tasks.add(t.id)
                if not (self.sigma_s <= t.latest_arrival_s
                        and t.earliest_departure_s <= self.tau_s):
                    raise ValidationError(
                        f"task {t.id} of user {u.user_id}: window outside horizon"
                    )
        # no travel time exceeds the one across the bounding box
        locs = [d.loc for d in self.depots] + [t.loc for t in self.all_tasks()]
        xs, ys = [p.x_km for p in locs], [p.y_km for p in locs]
        low, high = Location(min(xs), min(ys)), Location(max(xs), max(ys))
        for mot in self.mots:
            try:
                travel_time(low, high, mot, self.mots)
            except OverflowError:
                raise ValidationError(f"mot '{mot}': travel time across the "
                                      f"instance is not finite") from None


def extended_sequence(instance: Instance, user: UserTrip) -> list[Task]:
    """User's task sequence with the depot endpoints prepended/appended, as
    pseudo-tasks: arriving is free until tau, leaving possible from sigma."""
    start = Task(-1, instance.depot(user.start_depot).loc,
                 instance.tau_s, instance.sigma_s)
    end = Task(-2, instance.depot(user.end_depot).loc,
               instance.tau_s, instance.sigma_s)
    return [start, *user.tasks, end]


def trip_legs(instance: Instance, user: UserTrip) -> list[tuple[Task, Task]]:
    """Consecutive (origin, destination) pairs of the depot-extended sequence."""
    seq = extended_sequence(instance, user)
    return list(zip(seq[:-1], seq[1:]))


def euclid_km(a: Location, b: Location) -> float:
    return math.hypot(a.x_km - b.x_km, a.y_km - b.y_km)


def travel_time(frm: Location, to: Location, mot: str,
                mots: Mapping[str, MotParams]) -> int:
    """Door-to-door seconds: sloped aerial distance at mode speed plus overhead.

    Rounded half-up to whole seconds; this is the only rounding point of the
    cost engine, so node times in the trip graph stay on an integer grid.
    """
    p = mots[mot]
    raw = p.sloping * euclid_km(frm, to) / p.speed_kmh * 3600.0 + p.extra_time_s
    return int(math.floor(raw + 0.5))


def leg_cost(frm: Location, to: Location, mot: str,
             mots: Mapping[str, MotParams], costs: CostParams) -> float:
    """Euros for one leg: distance cost + wage for the travel time + CO2 cost."""
    p = mots[mot]
    dist = p.sloping * euclid_km(frm, to)
    seconds = travel_time(frm, to, mot, mots)
    return (dist * p.per_km_cost_eur
            + seconds / 3600.0 * costs.wage_eur_per_h
            + dist * p.emission_t_per_km * costs.co2_eur_per_t)


def _penalized_cost(allowed: frozenset[str], frm: Location, to: Location,
                    depart_not_before: int, arrive_not_after: int, mot: str,
                    mots: Mapping[str, MotParams], costs: CostParams) -> float:
    # Penalties are additive, not replacements: among infeasible options the
    # least-bad candidate still ranks first.
    cost = leg_cost(frm, to, mot, mots, costs)
    if mot not in allowed:
        cost += costs.penalty_eur
    if depart_not_before + travel_time(frm, to, mot, mots) > arrive_not_after:
        cost += costs.penalty_eur
    return cost


def cheapest_other_mot(user: UserTrip, frm: Location, to: Location,
                       depart_not_before: int, arrive_not_after: int,
                       mots: Mapping[str, MotParams],
                       costs: CostParams) -> tuple[str, float]:
    """Cheapest non-car mode for a leg, with membership/lateness penalties.

    Returns (mot, euros). If the user has no non-car mode at all the sentinel
    ('none', penalty_eur) is returned. Ties break on the fixed order
    walk < bike < public < taxi.
    """
    if not any(k in user.allowed_mots for k in OTHER_MOTS):
        return (NO_MOT, costs.penalty_eur)
    best_mot = None
    best_cost = math.inf
    for k in OTHER_MOTS:
        if k not in mots:
            continue
        c = _penalized_cost(user.allowed_mots, frm, to, depart_not_before,
                            arrive_not_after, k, mots, costs)
        if c < best_cost:
            best_mot, best_cost = k, c
    return (best_mot, best_cost)


def leg_saving_plain(user: UserTrip, q_i: Task, q_j: Task,
                     mots: Mapping[str, MotParams], costs: CostParams) -> float:
    """Saving of serving the leg q_i -> q_j by car instead of the cheapest
    other mode. May be negative when the car is not the cheapest option."""
    _, other = cheapest_other_mot(user, q_i.loc, q_j.loc,
                                  q_i.earliest_departure_s, q_j.latest_arrival_s,
                                  mots, costs)
    return other - leg_cost(q_i.loc, q_j.loc, CAR, mots, costs)


def leg_saving_share(driver: UserTrip, d_i: Task, d_j: Task,
                     rider: UserTrip, r_i: Task, r_j: Task,
                     mots: Mapping[str, MotParams], costs: CostParams,
                     joint_k: bool = False,
                     leg_costs: tuple[float, float, float] | None = None) -> float:
    """Saving of covering the driver leg (d_i,d_j) and the rider leg (r_i,r_j)
    with one car, including the pickup/drop-off detours.

    Coincident pickup (d_i at r_i) or drop-off (r_j at d_j) locations skip the
    corresponding detour term. With joint_k=True the counterfactual picks one
    common non-car mode for both legs instead of each leg's own cheapest; a
    mode table without non-car modes has none, so each leg keeps its own.

    leg_costs holds the driver and rider legs' cheapest_other_mot costs and
    the rider leg's car cost, as the enumeration's leg records measure them.
    When None the same calls compute them here; joint_k uses only the car cost.
    """
    if leg_costs is None:
        leg_costs = (
            cheapest_other_mot(driver, d_i.loc, d_j.loc, d_i.earliest_departure_s,
                               d_j.latest_arrival_s, mots, costs)[1],
            cheapest_other_mot(rider, r_i.loc, r_j.loc, r_i.earliest_departure_s,
                               r_j.latest_arrival_s, mots, costs)[1],
            leg_cost(r_i.loc, r_j.loc, CAR, mots, costs),
        )
    if joint_k and any(k in mots for k in OTHER_MOTS):
        other = min(
            _penalized_cost(driver.allowed_mots, d_i.loc, d_j.loc,
                            d_i.earliest_departure_s, d_j.latest_arrival_s,
                            k, mots, costs)
            + _penalized_cost(rider.allowed_mots, r_i.loc, r_j.loc,
                              r_i.earliest_departure_s, r_j.latest_arrival_s,
                              k, mots, costs)
            for k in OTHER_MOTS if k in mots
        )
    else:
        other = leg_costs[0] + leg_costs[1]
    car = leg_costs[2]
    if d_i.loc != r_i.loc:
        car += leg_cost(d_i.loc, r_i.loc, CAR, mots, costs)
    if r_j.loc != d_j.loc:
        car += leg_cost(r_j.loc, d_j.loc, CAR, mots, costs)
    return other - car


def trip_saving(leg_savings: Iterable[float]) -> float:
    """Total saving of a trip variant: the sum over its per-leg savings."""
    return float(sum(leg_savings))
