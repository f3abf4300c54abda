"""Synthetic instance generation and the JSON instance file format.

Companies are drawn on a square region: depots sit at fixed quantile
positions, users get a day of meetings each, and a user who returns to a
depot mid-day is split into separate artificial users (one per simple
depot-to-depot trip). Meeting start times are synthetic: uniform over the
workday with a mid-morning bump.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    CAR,
    OTHER_MOTS,
    CostParams,
    Depot,
    Instance,
    Location,
    MotParams,
    Task,
    UserTrip,
    ValidationError,
    default_mots,
    travel_time,
)


class GenerationError(ValueError):
    """Raised when the requested parameters cannot produce a valid instance."""


class InstanceFormatError(ValueError):
    """Raised when an instance file is malformed; the message names the field."""


# Calibration of the generator: a Vienna-scale 20x20 km workday.
REGION_KM = 20.0
TASKS_MIN = 1
SIGMA_S = 6 * 3600
TAU_S = 20 * 3600
BUFFER_AT_DEPOT_S = 3600
MAX_LEG_TIME_S = 3600
SERVICE_MIN_S = 1800
SERVICE_MAX_S = 7200
CLUSTER_PROB = 0.3
CLUSTER_RADIUS_KM = 1.0
OTHER_MOT_PROB = 0.8
# P(a user makes 1, 2, 3 simple trips); mean ~1.55 trips per user.
SIMPLE_TRIP_PROBS = (0.55, 0.35, 0.10)
SAME_DEPOT_PROB = 0.9
COSTS = CostParams()


@dataclass(frozen=True)
class GenParams:
    """Knobs of the generator; the rest of its calibration is the module
    constants above."""

    n_users: int
    n_depots: int = 2
    vehicles_per_depot: int | Sequence[int] = 2
    seed: int = 0
    tasks_max: int = 4

    def __post_init__(self):
        if self.n_users < 1:
            raise GenerationError("n_users must be >= 1")
        if self.n_depots < 1:
            raise GenerationError("n_depots must be >= 1")
        if self.seed < 0:
            raise GenerationError("seed must be >= 0")
        if self.tasks_max < TASKS_MIN:
            raise GenerationError(f"tasks_max must be >= {TASKS_MIN}")
        if not isinstance(self.vehicles_per_depot, int):
            if len(self.vehicles_per_depot) != self.n_depots:
                raise GenerationError("vehicles_per_depot list length != n_depots")
            if any(v < 0 for v in self.vehicles_per_depot):
                raise GenerationError("vehicle counts must be >= 0")
        elif self.vehicles_per_depot < 0:
            raise GenerationError("vehicles_per_depot must be >= 0")


def _depot_locations(n: int) -> list[Location]:
    # Fixed quantiles of the region diagonal; deterministic, seed-independent.
    r = REGION_KM
    return [Location((i + 1) / (n + 1) * r, (i + 1) / (n + 1) * r) for i in range(n)]


def _max_car_leg_km(mots) -> float:
    car = mots[CAR]
    return (MAX_LEG_TIME_S - car.extra_time_s) * car.speed_kmh / 3600.0 / car.sloping


def _draw_location(rng, prev_loc: Location, pool: list[Location],
                   max_km: float) -> Location:
    r = REGION_KM
    for _ in range(64):
        if pool and rng.random() < CLUSTER_PROB:
            anchor = pool[int(rng.integers(len(pool)))]
            ang = rng.random() * 2 * math.pi
            rad = math.sqrt(rng.random()) * CLUSTER_RADIUS_KM
            x = min(max(anchor.x_km + rad * math.cos(ang), 0.0), r)
            y = min(max(anchor.y_km + rad * math.sin(ang), 0.0), r)
        else:
            x = rng.random() * r
            y = rng.random() * r
        loc = Location(x, y)
        if math.hypot(loc.x_km - prev_loc.x_km, loc.y_km - prev_loc.y_km) <= max_km:
            return loc
    return prev_loc  # box smaller than reach; degenerate but always feasible


def generate(params: GenParams) -> Instance:
    """Draw one deterministic instance for the given parameter set and seed."""
    rng = np.random.default_rng(params.seed)
    mots = default_mots()
    depot_locs = _depot_locations(params.n_depots)
    if isinstance(params.vehicles_per_depot, int):
        vehicles = [params.vehicles_per_depot] * params.n_depots
    else:
        vehicles = list(params.vehicles_per_depot)
    depots = tuple(
        Depot(i, depot_locs[i], vehicles[i], vehicles[i]) for i in range(params.n_depots)
    )

    max_km = _max_car_leg_km(mots)
    trip_counts = np.arange(1, 4)
    users: list[UserTrip] = []
    task_pool: list[Location] = []  # other users' meeting points, for clustering
    next_user = 0
    next_task = 0

    for _ in range(params.n_users):
        a_depot = int(rng.integers(params.n_depots))
        if params.n_depots > 1 and rng.random() >= SAME_DEPOT_PROB:
            b_depot = int(rng.choice([d for d in range(params.n_depots) if d != a_depot]))
        else:
            b_depot = a_depot
        n_trips = int(rng.choice(trip_counts, p=SIMPLE_TRIP_PROBS))
        allowed = frozenset(
            [CAR] + [k for k in OTHER_MOTS if rng.random() < OTHER_MOT_PROB]
        )

        own_locs: list[Location] = []
        cursor = SIGMA_S  # earliest possible departure from the depot
        for trip_idx in range(n_trips):
            start_id = a_depot
            end_id = b_depot if trip_idx == n_trips - 1 else a_depot
            start_loc, end_loc = depot_locs[start_id], depot_locs[end_id]
            n_tasks = int(rng.integers(TASKS_MIN, params.tasks_max + 1))

            tasks: list[Task] = []
            prev_loc, prev_ed = start_loc, cursor
            for k in range(n_tasks):
                loc = _draw_location(rng, prev_loc, task_pool, max_km)
                tt = travel_time(prev_loc, loc, CAR, mots)
                if k == 0 and trip_idx == 0:
                    slack = int(rng.triangular(0, 2.5 * 3600, 5.5 * 3600))
                else:
                    slack = int(rng.integers(300, 2700))
                latest_arrival = prev_ed + tt + slack
                duration = int(rng.integers(SERVICE_MIN_S, SERVICE_MAX_S + 1))
                earliest_departure = latest_arrival + duration
                # keep room to return to the depot within the workday
                back = travel_time(loc, end_loc, CAR, mots)
                if earliest_departure + back > TAU_S:
                    break
                tasks.append(Task(next_task, loc, latest_arrival,
                                  earliest_departure))
                next_task += 1
                prev_loc, prev_ed = loc, earliest_departure
            if not tasks:
                continue  # no room left in the day; drop this simple trip
            users.append(UserTrip(next_user, start_id, end_id, tuple(tasks), allowed))
            next_user += 1
            own_locs.extend(t.loc for t in tasks)
            cursor = prev_ed + travel_time(prev_loc, end_loc, CAR, mots) \
                + BUFFER_AT_DEPOT_S
        task_pool.extend(own_locs)

    if not users:
        raise GenerationError(
            "no user trip fits the workday; widen the horizon or shrink travel times"
        )

    return Instance(depots, tuple(users), mots, COSTS, SIGMA_S, TAU_S)


# --- instance file format -------------------------------------------------

_MOT_FIELDS = ("speed_kmh", "extra_time_s", "sloping", "per_km_cost_eur",
               "emission_t_per_km")


def instance_to_dict(instance: Instance) -> dict:
    return {
        "horizon": {"sigma_s": instance.sigma_s, "tau_s": instance.tau_s},
        "mots": [
            {"mot": p.mot, "speed_kmh": p.speed_kmh, "extra_time_s": p.extra_time_s,
             "sloping": p.sloping, "per_km_cost_eur": p.per_km_cost_eur,
             "emission_t_per_km": p.emission_t_per_km}
            for _, p in sorted(instance.mots.items())
        ],
        "costs": {
            "wage_eur_per_h": instance.costs.wage_eur_per_h,
            "co2_eur_per_t": instance.costs.co2_eur_per_t,
            "penalty_eur": instance.costs.penalty_eur,
        },
        "depots": [
            {"id": d.id, "x_km": d.loc.x_km, "y_km": d.loc.y_km,
             "vehicles_start": d.vehicles_start, "vehicles_end": d.vehicles_end}
            for d in instance.depots
        ],
        "users": [
            {"id": u.user_id, "start_depot": u.start_depot, "end_depot": u.end_depot,
             "allowed_mots": sorted(u.allowed_mots),
             "tasks": [
                 {"x_km": t.loc.x_km, "y_km": t.loc.y_km,
                  "latest_arrival_s": t.latest_arrival_s,
                  "earliest_departure_s": t.earliest_departure_s}
                 for t in u.tasks
             ]}
            for u in instance.users
        ],
    }


def write_instance(instance: Instance, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def _int(entry: dict, key: str) -> int:
    """entry[key], an integer or an integral float such as 2.0, as an int."""
    value = entry[key]
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValueError(f"invalid literal for integer {key}: {json.dumps(value)}")
    return int(value)


def _real(entry: dict, key: str) -> float:
    """entry[key], a JSON number: an integer or a float, not a boolean."""
    if type(entry[key]) not in (int, float):
        raise ValueError(f"{key} must be a number, got {json.dumps(entry[key])}")
    return entry[key]


def instance_from_dict(doc: dict) -> Instance:
    """Build and validate an instance from its JSON document.

    Every failure is an InstanceFormatError whose message starts with the
    part being read: instance, horizon, mots[i], costs, depots[i], users[i]
    or users[i].tasks[j]."""
    where = "instance"
    try:
        horizon, mot_docs, costs_doc, depot_docs, user_docs = (
            doc["horizon"], doc["mots"], doc["costs"], doc["depots"], doc["users"])
        where = "horizon"
        sigma, tau = _int(horizon, "sigma_s"), _int(horizon, "tau_s")

        mots: dict[str, MotParams] = {}
        for i, entry in enumerate(mot_docs):
            where = f"mots[{i}]"
            kwargs = {f: _real(entry, f) for f in _MOT_FIELDS}
            if entry["mot"] in mots:
                raise ValidationError(f"duplicate mot {entry['mot']!r}")
            mots[entry["mot"]] = MotParams(entry["mot"], **kwargs)

        where = "costs"
        costs = CostParams(_real(costs_doc, "wage_eur_per_h"),
                           _real(costs_doc, "co2_eur_per_t"),
                           _real(costs_doc, "penalty_eur"))

        depots = []
        for i, entry in enumerate(depot_docs):
            where = f"depots[{i}]"
            depots.append(Depot(_int(entry, "id"),
                                Location(_real(entry, "x_km"), _real(entry, "y_km")),
                                _int(entry, "vehicles_start"), _int(entry, "vehicles_end")))

        users = []
        next_task = 0
        for i, entry in enumerate(user_docs):
            where = f"users[{i}]"
            user_id, start, end = (_int(entry, "id"), _int(entry, "start_depot"),
                                   _int(entry, "end_depot"))
            allowed = entry["allowed_mots"]
            if type(allowed) is not list:
                raise ValueError(f"allowed_mots must be a list, got {json.dumps(allowed)}")
            tasks = []
            for j, tdoc in enumerate(entry["tasks"]):
                where = f"users[{i}].tasks[{j}]"
                tasks.append(Task(next_task,
                                  Location(_real(tdoc, "x_km"), _real(tdoc, "y_km")),
                                  _int(tdoc, "latest_arrival_s"),
                                  _int(tdoc, "earliest_departure_s")))
                next_task += 1
            where = f"users[{i}]"
            users.append(UserTrip(user_id, start, end, tuple(tasks), frozenset(allowed)))

        where = "instance"
        instance = Instance(tuple(depots), tuple(users), mots, costs, sigma, tau)
    except KeyError as exc:
        raise InstanceFormatError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc
    return instance


def read_instance(path) -> Instance:
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes, text or nesting
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_dict(doc)
