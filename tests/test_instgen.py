import math

import pytest

from mmcrp.instgen import (
    GenParams,
    GenerationError,
    InstanceFormatError,
    MAX_LEG_TIME_S,
    generate,
    instance_from_dict,
    instance_to_dict,
    read_instance,
    write_instance,
)
from mmcrp.model import CAR, travel_time


def test_generation_is_deterministic(tmp_path):
    p = GenParams(n_users=20, n_depots=2, vehicles_per_depot=2, seed=7)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(generate(p), a)
    write_instance(generate(p), b)
    assert a.read_bytes() == b.read_bytes()


def test_simple_trip_counts_u20():
    for seed in range(5):
        inst = generate(GenParams(n_users=20, seed=seed))
        assert 20 <= len(inst.users) <= 35


def test_simple_trip_counts_u50():
    for seed in range(3):
        inst = generate(GenParams(n_users=50, seed=seed))
        assert 0.7 * 1.5 * 50 <= len(inst.users) <= 1.3 * 1.5 * 50


def test_generated_instances_validate_and_fit_horizon():
    for seed in range(6):
        inst = generate(GenParams(n_users=10, seed=seed))
        for u in inst.users:
            for t in u.tasks:
                assert inst.sigma_s <= t.latest_arrival_s
                assert t.earliest_departure_s <= inst.tau_s


def test_consecutive_tasks_car_reachable_within_cap():
    inst = generate(GenParams(n_users=15, seed=3))
    for u in inst.users:
        for a, b in zip(u.tasks[:-1], u.tasks[1:]):
            assert travel_time(a.loc, b.loc, CAR, inst.mots) <= MAX_LEG_TIME_S


def test_fleet_totals():
    inst = generate(GenParams(n_users=5, n_depots=3, vehicles_per_depot=[2, 1, 0], seed=1))
    assert [d.vehicles_start for d in inst.depots] == [2, 1, 0]
    assert all(d.vehicles_end == d.vehicles_start for d in inst.depots)
    assert inst.fleet_size == 3


def test_car_always_allowed():
    inst = generate(GenParams(n_users=30, seed=2))
    assert all(CAR in u.allowed_mots for u in inst.users)


def test_round_trip_identity(tmp_path):
    for seed in range(100):
        inst = generate(GenParams(n_users=3, seed=seed))
        path = tmp_path / f"i{seed}.json"
        write_instance(inst, path)
        assert read_instance(path) == inst


def test_missing_depots_key_is_named():
    doc = instance_to_dict(generate(GenParams(n_users=2, seed=0)))
    del doc["depots"]
    with pytest.raises(InstanceFormatError, match="'depots'"):
        instance_from_dict(doc)


def test_task_window_violation_is_reported():
    doc = instance_to_dict(generate(GenParams(n_users=2, seed=0)))
    t = doc["users"][0]["tasks"][0]
    t["earliest_departure_s"] = t["latest_arrival_s"] - 1
    with pytest.raises(InstanceFormatError, match="earliest_departure"):
        instance_from_dict(doc)


@pytest.mark.parametrize("field,value,message", [
    (("horizon",), {"sigma_s": 0}, "horizon: missing key 'tau_s'"),
    (("horizon", "tau_s"), 0, "instance: horizon: sigma_s must be < tau_s"),
    (("depots",), [], "instance: at least one depot is required"),
    (("mots", 1), {"mot": "walk"}, "mots[1]: missing key 'speed_kmh'"),
    (("mots", 0, "speed_kmh"), math.nan, "mots[0]: mot 'bike': parameters must be finite"),
    (("costs", "wage_eur_per_h"), "high", "costs: "),
    (("costs", "penalty_eur"), math.inf, "costs: cost parameters must be finite"),
    (("depots", 1, "x_km"), None, "depots[1]: "),
    (("users", 1, "start_depot"), "a", "users[1]: invalid literal"),
    (("users", 0, "tasks", 1, "y_km"), [], "users[0].tasks[1]: "),
    (("users", 1, "allowed_mots"), [["car"]], "users[1]: unhashable"),
    (("users", 1, "id"), 0, "instance: duplicate user ids"),
    (("users", 0, "tasks", 0, "x_km"), 1e308,
     "instance: mot 'bike': travel time across the instance is not finite"),
    (("mots", 1, "sloping"), 1e308,
     "instance: mot 'car': travel time across the instance is not finite"),
    (("users", 0, "tasks"), [], "users[0]: user 0 has no tasks"),
    (("depots", 0, "vehicles_start"), -1, "depots[0]:"),
    (("mots", 0, "mot"), "car", "mots[1]: duplicate mot 'car'"),
    # integer fields are read whole, never truncated or parsed from text
    (("horizon", "sigma_s"), 21600.9,
     "horizon: invalid literal for integer sigma_s: 21600.9"),
    (("horizon", "tau_s"), "72000", "horizon: invalid literal for integer tau_s"),
    (("depots", 1, "id"), True, "depots[1]: invalid literal for integer id: true"),
    (("depots", 0, "vehicles_start"), 2.7,
     "depots[0]: invalid literal for integer vehicles_start: 2.7"),
    (("depots", 0, "vehicles_end"), "2",
     "depots[0]: invalid literal for integer vehicles_end"),
    (("users", 1, "id"), 1.5, "users[1]: invalid literal for integer id"),
    (("users", 0, "start_depot"), "0",
     "users[0]: invalid literal for integer start_depot"),
    (("users", 1, "end_depot"), False,
     "users[1]: invalid literal for integer end_depot"),
    (("users", 0, "tasks", 0, "latest_arrival_s"), 30000.5,
     "users[0].tasks[0]: invalid literal for integer latest_arrival_s"),
    (("users", 1, "tasks", 1, "earliest_departure_s"), math.inf,
     "users[1].tasks[1]: invalid literal for integer earliest_departure_s"),
    (("users", 0, "allowed_mots"), {"car": 0, "walk": 0},
     "users[0]: allowed_mots must be a list"),
    (("users", 1, "allowed_mots"), "car", "users[1]: allowed_mots must be a list"),
    # real-number fields take a JSON number, never a boolean or text
    (("users", 0, "tasks", 0, "x_km"), "3.5",
     'users[0].tasks[0]: x_km must be a number, got "3.5"'),
    (("depots", 0, "y_km"), True, "depots[0]: y_km must be a number, got true"),
    (("mots", 1, "speed_kmh"), True, "mots[1]: speed_kmh must be a number, got true"),
    (("costs", "penalty_eur"), True, "costs: penalty_eur must be a number, got true"),
    (("mots", 1, "emission_t_per_km"), -5.0,
     "mots[1]: mot 'car': emission_t_per_km must be >= 0"),
])
def test_malformed_field_is_named(field, value, message):
    doc = instance_to_dict(generate(GenParams(n_users=2, seed=0)))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    with pytest.raises(InstanceFormatError) as exc:
        instance_from_dict(doc)
    assert str(exc.value).startswith(message)


def test_integral_floats_are_read_as_integers():
    inst = generate(GenParams(n_users=2, seed=0))
    doc = instance_to_dict(inst)
    doc["horizon"]["sigma_s"] = float(inst.sigma_s)
    doc["depots"][0]["vehicles_start"] = float(inst.depots[0].vehicles_start)
    task = doc["users"][0]["tasks"][0]
    task["latest_arrival_s"] = float(task["latest_arrival_s"])
    got = instance_from_dict(doc)
    assert got == inst
    assert type(got.sigma_s) is type(got.depots[0].vehicles_start) is int


def test_malformed_json_is_an_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        read_instance(p)


def test_bytes_that_are_not_text_are_not_json(tmp_path):
    p = tmp_path / "binary.json"
    p.write_bytes(b'{"horizon": \xff}')
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        read_instance(p)


def test_bad_user_count_rejected():
    with pytest.raises(GenerationError):
        generate(GenParams(n_users=0))


def test_vehicle_list_length_mismatch_rejected():
    with pytest.raises(GenerationError):
        generate(GenParams(n_users=5, n_depots=2, vehicles_per_depot=[1, 1, 1]))


def test_negative_seed_rejected():
    with pytest.raises(GenerationError, match="seed"):
        generate(GenParams(n_users=3, seed=-1))
