import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mmcrp
from conftest import make_instance, make_task
from mmcrp import cli, colgen, edgeform, milp
from mmcrp.cli import main, split_fleet
from mmcrp.instgen import SIGMA_S, GenParams, generate, instance_to_dict, \
    read_instance, write_instance
from mmcrp.model import CAR, default_mots, trip_legs
from mmcrp.ridegraph import Caps, build_graph, dump_edges, enumerate_variants

SRC = Path(mmcrp.__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def run_entry(*argv, cwd):
    """Runs `python -m mmcrp` in a fresh interpreter, as the console entry
    point does; returns the exit code and stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mmcrp", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


def write_probes(directory: Path):
    """Writes the bad-input probes: the two-user instance of generator seed
    0 as it is and with some fields replaced, and a file that is not text."""
    doc = instance_to_dict(generate(GenParams(n_users=2, seed=0)))
    (directory / "two_users.json").write_text(json.dumps(doc))
    for name, *edits in [
            ("number.json", ((), 5)),
            ("speed_text.json", (("mots", 0, "speed_kmh"), "fast")),
            # a second 'car' entry, at walking speed
            ("duplicate_mot.json", (("mots",), doc["mots"] + [
                dict(doc["mots"][1], speed_kmh=5.0)])),
            ("user_number.json", (("users", 0), 7)),
            ("task_nan.json", (("users", 0, "tasks", 0, "x_km"), math.nan)),
            ("task_inf.json", (("users", 0, "tasks", 0, "latest_arrival_s"), 1e400)),
            # the car cannot reach user 0's first task from the depot in time
            ("late_task.json", (("users", 0, "tasks", 0, "latest_arrival_s"),
                                SIGMA_S + 5)),
            # nor user 1's last task from their third: a leg that user 0
            # shares in two_users.json
            ("late_leg.json", (("users", 1, "tasks", 3, "latest_arrival_s"),
                               doc["users"][1]["tasks"][2]["earliest_departure_s"])),
            # savings that overflow to infinity
            ("car_cost_big.json", (("mots", 1, "per_km_cost_eur"), 1e308)),
            ("penalty_big.json", (("costs", "penalty_eur"), 1e308),
             (("users", 0, "allowed_mots"), ["car"]))]:
        doc = json.loads((directory / "two_users.json").read_text())
        for field, value in edits:
            if not field:
                doc = value
                continue
            target = doc
            for key in field[:-1]:
                target = target[key]
            target[field[-1]] = value
        (directory / name).write_text(json.dumps(doc))
    (directory / "binary.json").write_bytes(bytes(range(256)))


def test_split_fleet():
    assert split_fleet(4, 2) == [2, 2]
    assert split_fleet(5, 2) == [3, 2]
    assert split_fleet(1, 3) == [1, 0, 0]
    assert split_fleet(0, 2) == [0, 0]


def test_gen_writes_named_instance(tmp_path):
    rc = run_cli("gen", "--users", "20", "--depots", "2", "--vehicles", "4",
                 "--seed", "0", "--out-dir", str(tmp_path))
    assert rc == 0
    out = tmp_path / "E_20_0.json"
    assert out.exists()
    doc = json.loads(out.read_text())
    assert {"horizon", "mots", "costs", "depots", "users"} <= set(doc)
    assert sum(d["vehicles_start"] for d in doc["depots"]) == 4


def test_gen_is_idempotent(tmp_path):
    run_cli("gen", "--users", "5", "--seed", "3", "--out-dir", str(tmp_path))
    first = (tmp_path / "E_5_3.json").read_bytes()
    run_cli("gen", "--users", "5", "--seed", "3", "--out-dir", str(tmp_path))
    assert (tmp_path / "E_5_3.json").read_bytes() == first


def test_gen_rejects_zero_users(tmp_path):
    assert run_cli("gen", "--users", "0", "--out-dir", str(tmp_path)) == 2


def test_solve_writes_result_and_convergence(tmp_path):
    run_cli("gen", "--users", "6", "--seed", "1", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_6_1.json"
    rc = run_cli("solve", str(inst), "--scheme", "multiple",
                 "--heuristic", "statespace")
    assert rc == 0
    doc = json.loads((tmp_path / "E_6_1.result.json").read_text())
    assert doc["solver"] == "colgen"
    assert doc["converged"] is True
    assert doc["lp_bound"] >= doc["ip_value"] - 1e-6
    assert set(doc["timings"]) == {"pricing_s", "master_s", "ip_s", "total_s"}
    with open(tmp_path / "E_6_1.convergence.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "lp_objective", "columns_added",
                       "pricing_ms", "master_ms", "phase"]
    assert len(rows) == 1 + doc["iterations"]


def test_solve_is_deterministic(tmp_path):
    run_cli("gen", "--users", "6", "--seed", "2", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_6_2.json"
    run_cli("solve", str(inst), "--out", str(tmp_path / "a"))
    run_cli("solve", str(inst), "--out", str(tmp_path / "b"))

    def algorithmic(path):  # all columns except the wall-clock ones
        with open(path) as fh:
            return [(r["iteration"], r["lp_objective"], r["columns_added"],
                     r["phase"]) for r in csv.DictReader(fh)]

    assert algorithmic(tmp_path / "a.convergence.csv") == \
        algorithmic(tmp_path / "b.convergence.csv")
    a = json.loads((tmp_path / "a.result.json").read_text())
    b = json.loads((tmp_path / "b.result.json").read_text())
    for key in ("lp_bound", "ip_value", "iterations", "columns"):
        assert a[key] == b[key]


def test_solve_edge_flag(tmp_path):
    run_cli("gen", "--users", "4", "--seed", "0", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_4_0.json"
    rc = run_cli("solve", str(inst), "--edge", "--max-variants", "5")
    assert rc == 0
    doc = json.loads((tmp_path / "E_4_0.result.json").read_text())
    assert doc["solver"] == "edge"
    assert doc["status"] == "optimal"


def test_solve_missing_file_is_io_error(tmp_path):
    assert run_cli("solve", str(tmp_path / "nope.json")) == 1


def test_malformed_instance_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"horizon": {}}')
    assert run_cli("solve", str(bad)) == 1


@pytest.mark.parametrize("argv,code", [
    ("solve number.json", 1),
    ("solve speed_text.json", 1),
    ("solve duplicate_mot.json", 1),
    ("solve user_number.json", 1),
    ("solve task_nan.json", 1),
    ("solve binary.json", 1),
    ("solve .", 1),
    ("solve late_task.json", 0),
    ("gen --users 3 --depots 0", 2),
    ("gen --users 3 --seed -1", 2),
    ("gen --users 3 --instance-number 1", 2),
])
def test_bad_input_ends_without_traceback(tmp_path, argv, code):
    write_probes(tmp_path)
    rc, err = run_entry(*argv.split(), cwd=tmp_path)
    assert rc == code
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    "solve task_inf.json",                          # an infinite task time
    "solve two_users.json --out number.json/out",   # NotADirectoryError
    "solve car_cost_big.json",                      # a saving of -inf
    "solve car_cost_big.json --edge",
    "solve penalty_big.json",                       # a saving of +inf
    "solve penalty_big.json --edge",
])
def test_more_bad_input_ends_in_one_line(tmp_path, monkeypatch, capsys, argv):
    write_probes(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv.split()) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_day_deeper_than_the_recursion_limit_solves(tmp_path, capsys):
    n = sys.getrecursionlimit() + 100
    mots = default_mots()
    mots[CAR] = replace(mots[CAR], extra_time_s=0)
    # tasks 10 s apart at one point, 2 s by car from the depot
    tasks = [make_task(k, 5.01, 5.0, SIGMA_S + 600 + 10 * k, duration=0)
             for k in range(n)]
    path = tmp_path / "long_day.json"
    write_instance(make_instance([(5.0, 5.0)], [(0, 0, (CAR, "walk"), tasks)],
                                 vehicles=(1,), mots=mots), path)
    assert run_cli("solve", str(path)) == 0
    assert (tmp_path / "long_day.result.json").exists()
    assert "Traceback" not in capsys.readouterr().err
    first = enumerate_variants(read_instance(path)).by_user[0][0]
    assert first.shares == () and first.covered == tuple(range(n))


def test_task_the_car_cannot_reach_falls_back(tmp_path):
    write_probes(tmp_path)
    path = tmp_path / "late_task.json"
    instance = read_instance(path)
    variants = enumerate_variants(instance)
    assert variants.by_user[0] == [] and variants.by_user[1]
    # user 0's legs are not counted
    n_legs = [len(trip_legs(instance, u)) for u in instance.users]
    assert variants.stats.feasibility_checks == n_legs[1] * n_legs[0]
    own = {t.id for t in instance.user(0).tasks}
    graph = build_graph(instance, variants)
    assert own <= set(colgen.run(instance, graph=graph).plan.uncovered)
    assert own <= set(edgeform.solve_edge(graph, instance).plan.uncovered)
    assert run_cli("solve", str(path)) == 0
    assert run_cli("solve", str(path), "--edge") == 0


def test_leg_between_tasks_the_car_cannot_drive_is_not_shared(tmp_path):
    write_probes(tmp_path)
    path = tmp_path / "late_leg.json"
    before = enumerate_variants(read_instance(tmp_path / "two_users.json"))
    after = enumerate_variants(read_instance(path))
    assert any(s[1:] == (1, 3) for v in before.all for s in v.shares)
    assert not any(s[1:] == (1, 3) for v in after.all for s in v.shares)
    assert after.by_user[1] == [] and after.by_user[0]
    assert run_cli("solve", str(path)) == 0
    assert run_cli("solve", str(path), "--edge") == 0


def test_unknown_scheme_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "x.json", "--scheme", "bogus")
    assert exc.value.code == 2


def test_dump_graph_flag(tmp_path):
    run_cli("gen", "--users", "4", "--seed", "4", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_4_4.json"
    rc = run_cli("solve", str(inst), "--dump-graph")
    assert rc == 0
    with open(tmp_path / "E_4_4.edges.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["tail_depot", "tail_s", "head_depot", "head_s",
                      "variant_id", "saving_eur"]


def test_dump_graph_enumerates_once(tmp_path, monkeypatch):
    run_cli("gen", "--users", "6", "--seed", "4", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_6_4.json"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_variants(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_variants", counted)
    assert run_cli("solve", str(inst), "--dump-graph") == 0
    assert len(calls) == 1

    instance = read_instance(inst)
    dump_edges(build_graph(instance, enumerate_variants(instance, Caps())),
               tmp_path / "expected.csv")
    assert (tmp_path / "E_6_4.edges.csv").read_text() == \
        (tmp_path / "expected.csv").read_text()
    doc = json.loads((tmp_path / "E_6_4.result.json").read_text())
    assert set(doc["timings"]) == {"pricing_s", "master_s", "ip_s", "total_s"}


def test_joint_k_flag_reaches_the_enumeration(tmp_path):
    run_cli("gen", "--users", "6", "--seed", "1", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_6_1.json"
    assert run_cli("solve", str(inst), "--joint-k", "--dump-graph",
                   "--out", str(tmp_path / "joint")) == 0
    assert run_cli("solve", str(inst), "--dump-graph",
                   "--out", str(tmp_path / "own")) == 0

    instance = read_instance(inst)
    dump_edges(build_graph(instance, enumerate_variants(instance, joint_k=True)),
               tmp_path / "expected.csv")
    joint = (tmp_path / "joint.edges.csv").read_text()
    assert joint == (tmp_path / "expected.csv").read_text()
    assert joint != (tmp_path / "own.edges.csv").read_text()


def test_solves_import_numpy_but_not_scipy(tmp_path):
    """gen, solve and solve --edge run on numpy alone: scipy is a test
    extra, and importing scipy.optimize would add to every solve's set-up
    time and memory. Checked in a fresh interpreter, since this one has
    scipy loaded."""
    script = (
        "import sys\n"
        "from mmcrp.cli import main\n"
        "assert main(['gen', '--users', '4', '--seed', '2']) == 0\n"
        "assert main(['solve', 'E_4_2.json']) == 0\n"
        "assert main(['solve', 'E_4_2.json', '--edge', '--out', 'edge']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "edge.result.json").exists()


def test_time_limit_keeps_the_solved_root(tmp_path):
    """A limit shorter than the root LP still evaluates the root; both
    roots here are integral, so both solves end optimal."""
    run_cli("gen", "--users", "40", "--vehicles", "4", "--seed", "0",
            "--out-dir", str(tmp_path))
    assert run_cli("solve", str(tmp_path / "E_40_0.json"), "--edge",
                   "--time-limit", "0.01") == 0
    edge = json.loads((tmp_path / "E_40_0.result.json").read_text())
    assert (edge["status"], edge["gap_pct"]) == ("optimal", 0.0)
    assert edge["objective"] == pytest.approx(50246.7787198688, abs=1e-6)
    assert edge["bound"] == edge["objective"]

    run_cli("gen", "--users", "6", "--vehicles", "0", "--seed", "3",
            "--out-dir", str(tmp_path))
    assert run_cli("solve", str(tmp_path / "E_6_3.json"),
                   "--time-limit", "1e-9") == 0
    cg = json.loads((tmp_path / "E_6_3.result.json").read_text())
    assert (cg["ip_status"], cg["ip_value"]) == ("optimal", 0.0)


def test_oversized_edge_model_is_usage_error(tmp_path, capsys):
    run_cli("gen", "--users", "80", "--seed", "0", "--out-dir", str(tmp_path))
    capsys.readouterr()
    assert run_cli("solve", str(tmp_path / "E_80_0.json"), "--edge") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "1566 rows x 13436 columns" in err
    assert "column-generation" in err
    assert not (tmp_path / "E_80_0.result.json").exists()


def test_solver_failure_is_one_line(tmp_path, capsys, monkeypatch):
    run_cli("gen", "--users", "4", "--seed", "4", "--out-dir", str(tmp_path))
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise milp.MilpError("simplex iteration limit exceeded")

    monkeypatch.setattr(colgen, "run", fail)
    assert run_cli("solve", str(tmp_path / "E_4_4.json")) == 1
    assert capsys.readouterr().err == \
        "error: solver failed: simplex iteration limit exceeded\n"
    assert not (tmp_path / "E_4_4.result.json").exists()


@pytest.mark.parametrize("vehicles", ["a,b", "1,,2", "2,-1"])
def test_sweep_bad_vehicles_is_usage_error(tmp_path, capsys, vehicles):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", str(tmp_path / "x.json"), "--vehicles", vehicles)
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("mmcrp sweep: error: argument --vehicles:")


@pytest.mark.parametrize("flag,value", [
    ("--early-stop", "-1"), ("--time-limit", "-1"), ("--time-limit", "nan"), ("--max-shares", "-5"), ("--max-variants", "-2"),
    ("--early-stop", "1.5")])
def test_solve_bad_limit_is_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", str(tmp_path / "x.json"), flag, value)
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith(f"mmcrp solve: error: argument {flag}:")


def test_ip_time_limit_is_gone(tmp_path, capsys):
    # --time-limit bounds the whole solve; the IP has no clock of its own
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", str(tmp_path / "x.json"), "--ip-time-limit", "1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == \
        "mmcrp: error: unrecognized arguments: --ip-time-limit 1"


def test_solve_limits_accept_their_lower_ends():
    args = cli.build_parser().parse_args(
        ["solve", "x.json", "--early-stop", "0", "--time-limit", "0",
         "--max-shares", "-1", "--max-variants", "-1"])
    assert cli._caps(args) == Caps(max_shares_per_trip=None,
                                   max_variants_per_user=None)
    assert cli._limits(args) == {"early_stop": None, "time_limit_s": None}


def test_sweep_monotone_and_zero_row(tmp_path):
    run_cli("gen", "--users", "8", "--seed", "5", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_8_5.json"
    rc = run_cli("sweep", str(inst), "--vehicles", "0,1,2,4")
    assert rc == 0
    with open(tmp_path / "E_8_5.sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [0, 1, 2, 4]
    vals = [float(r["ip_value"]) for r in rows]
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert all(b >= a - 1e-6 for a, b in zip(vals[:-1], vals[1:]))
    assert {"rides_per_car", "shares_per_ride"} <= set(rows[0])


def test_sweep_builds_the_graph_once(tmp_path, monkeypatch):
    run_cli("gen", "--users", "8", "--seed", "5", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_8_5.json"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "build_graph", counted)
    assert run_cli("sweep", str(inst), "--vehicles", "0,1,2,4,2") == 0
    assert len(calls) == 1

    # the same rows as a graph built for each fleet size
    instance = read_instance(inst)
    variants = enumerate_variants(instance, Caps())
    expected = ["m,ip_value,rides_per_car,shares_per_ride"]
    for m in (0, 1, 2, 4, 2):
        inst_m = cli._with_fleet(instance, m)
        r = colgen.run(inst_m, graph=build_graph(inst_m, variants))
        expected.append(f"{m},{r.ip_value:.6f},{r.plan.rides_per_car:.4f},"
                        f"{r.plan.shares_per_ride:.4f}")
    assert (tmp_path / "E_8_5.sweep.csv").read_text().splitlines() == expected


def test_sweep_leaves_a_fleet_size_without_a_plan_empty(tmp_path, monkeypatch):
    run_cli("gen", "--users", "8", "--seed", "5", "--out-dir", str(tmp_path))
    inst = tmp_path / "E_8_5.json"
    assert run_cli("sweep", str(inst), "--vehicles", "1,2") == 0
    with_plans = (tmp_path / "E_8_5.sweep.csv").read_text().splitlines()
    run = colgen.run

    def no_plan_for_two(instance, **kwargs):
        result = run(instance, **kwargs)
        if instance.fleet_size == 2:
            result = replace(result, ip_value=math.nan, plan=None)
        return result

    monkeypatch.setattr(colgen, "run", no_plan_for_two)
    assert run_cli("sweep", str(inst), "--vehicles", "1,2") == 0
    assert (tmp_path / "E_8_5.sweep.csv").read_text().splitlines() == \
        [*with_plans[:2], "2,,,"]


def test_compare_ratio_ordering(tmp_path):
    run_cli("gen", "--users", "10", "--seed", "6", "--vehicles", "2",
            "--out-dir", str(tmp_path))
    inst = tmp_path / "E_10_6.json"
    rc = run_cli("compare", str(inst))
    assert rc == 0
    doc = json.loads((tmp_path / "E_10_6.compare.json").read_text())
    assert doc["ratio_car_sharing"] >= 1.0 - 1e-9
    assert doc["ratio_user_dependent"] >= doc["ratio_car_sharing"] - 1e-6


def test_log_env_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("MMCRP_LOG", "debug")
    rc = run_cli("gen", "--users", "3", "--seed", "9", "--out-dir", str(tmp_path))
    assert rc == 0
