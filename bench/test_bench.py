"""The benchmark's output checks must reject broken plans and bounds, and the
harness must run end to end on small instances."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
from mmcrp.instgen import GenParams, generate, instance_to_dict

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def _solve(tmp_path, scheme, relabel_key=None):
    path = tmp_path / f"u10_{scheme}_{relabel_key}.json"
    doc = instance_to_dict(generate(GenParams(
        n_users=10, vehicles_per_depot=2, seed=3)))
    if relabel_key is not None:
        doc = run.relabel(doc, relabel_key)
    path.write_text(json.dumps(doc))
    wl = run.Workload("u10", 10, 4, (3,), scheme)
    instance, graph, fields = run.solve(path, wl)
    return checks.capture(instance, graph, *fields, integral=scheme is None)


@pytest.fixture(scope="module")
def cg_output(tmp_path_factory):
    return _solve(tmp_path_factory.mktemp("cg"), "best")


def test_real_solves_pass(cg_output, tmp_path):
    assert checks.problems(cg_output) == []
    assert checks.problems(_solve(tmp_path, None)) == []


def test_task_covered_twice_fails(cg_output):
    ride_route = next(r for r in cg_output.routes if r[2])
    broken = replace(cg_output, routes=cg_output.routes + [ride_route])
    assert any("covered more than once" in p
               for p in checks.plan_problems(broken))


def test_depot_imbalance_fails(cg_output):
    broken = replace(cg_output, routes=cg_output.routes[1:])
    assert any(p.startswith("depot ") for p in checks.plan_problems(broken))


def test_shifted_lp_bound_fails(cg_output):
    broken = replace(cg_output, lp_bound=cg_output.lp_bound * (1 + 1e-3))
    assert checks.plan_problems(broken) == []
    assert any("HiGHS" in p for p in checks.problems(broken))


def test_relabelling_keeps_the_optimum(tmp_path):
    base = _solve(tmp_path, None)
    relabelled = _solve(tmp_path, None, relabel_key="5.1")
    assert relabelled.ip_value == pytest.approx(base.ip_value, rel=1e-9)


@pytest.mark.parametrize("scheme,trace", [("multiple", False),
                                          ("best", True), (None, True)])
def test_smoke_run(scheme, trace):
    wl = run.Workload("smoke-u10", 10, 4, (0, 1), scheme)
    result = run.run_workload(wl, seed=1, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
