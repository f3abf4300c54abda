"""Benchmark of `mmcrp solve`: solves generated instances, checks every
solve's output against HiGHS and the plan invariants, and prints the
metrics as one JSON object on the last line of standard output.

    python3 bench/run.py --workload cg-default-u80 --seed 3 --seconds 50 \
        --trace 0 [--instance-seeds 7,8,9]

Run it from the root of a checkout: it imports mmcrp from ./src and writes
instance files, span dumps and results under ./.bench_work. `--instance-seeds`
picks the generator seeds. Each round of a run solves every instance once,
relabelled anew from `--seed` and the round's number (users shuffled and
renumbered, depots renumbered), which leaves the optimum unchanged.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    vehicles: int                 # total fleet, split over two depots
    instance_seeds: tuple[int, ...]
    scheme: Optional[str]         # None: `mmcrp solve --edge`


WORKLOADS = {w.name: w for w in (
    Workload("cg-default-u80", 80, 11, tuple(range(4)), "multiple"),
    Workload("edge-u40", 40, 4, tuple(range(3)), None),
)}


def relabel(doc: dict, key: str) -> dict:
    """The same instance with its users shuffled and renumbered and its
    depots renumbered, in an order drawn from `key`."""
    rng = random.Random(key)
    depot_id = list(range(len(doc["depots"])))
    rng.shuffle(depot_id)
    users = list(doc["users"])
    rng.shuffle(users)
    for d in doc["depots"]:
        d["id"] = depot_id[d["id"]]
    doc["depots"].sort(key=lambda d: d["id"])
    for new_id, u in enumerate(users):
        u["id"] = new_id
        u["start_depot"] = depot_id[u["start_depot"]]
        u["end_depot"] = depot_id[u["end_depot"]]
    doc["users"] = users
    return doc


def instance_path(wl: Workload, instance_seed: int) -> Path:
    return WORK / f"{wl.name}_i{instance_seed}.json"


def round_paths(wl: Workload, seed: int, round_no: int) -> list[Path]:
    """Writes round `round_no`'s relabelling of every instance file."""
    paths = []
    for s in wl.instance_seeds:
        doc = json.loads(instance_path(wl, s).read_text())
        path = WORK / f"{wl.name}_i{s}_r{seed}.{round_no}.json"
        with open(path, "w") as fh:
            json.dump(relabel(doc, f"{seed}.{round_no}"), fh, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths


def write_instances(wl: Workload) -> dict:
    """Import mmcrp, then generate and write the workload's instance files,
    as `mmcrp gen` does; returns the times taken. Runs in a fresh
    interpreter, so that the import is paid again every time."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from mmcrp import instgen
    from mmcrp.cli import split_fleet
    t_import = time.perf_counter() - t0

    generate_s = 0.0
    WORK.mkdir(exist_ok=True)
    for s in wl.instance_seeds:
        t = time.perf_counter()
        inst = instgen.generate(instgen.GenParams(
            n_users=wl.users, n_depots=2,
            vehicles_per_depot=split_fleet(wl.vehicles, 2), seed=s))
        generate_s += time.perf_counter() - t
        with open(instance_path(wl, s), "w") as fh:
            json.dump(instgen.instance_to_dict(inst), fh, indent=2)
            fh.write("\n")
    return {"setup_s": time.perf_counter() - t0, "import_s": t_import,
            "generate_s": generate_s}


def setup(wl: Workload) -> list[dict]:
    """SETUP_REPEATS fresh interpreters each running `write_instances`."""
    reports = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-only", json.dumps(asdict(wl))],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("instance set-up failed")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    return reports


def solve(path: Path, wl: Workload):
    """One solve as `mmcrp solve` runs it: read, enumerate, build the graph,
    solve and decode. Returns the instance, the graph and the fields of the
    result that the checks read.

    Calls go through the module attributes, where a tracer can wrap them."""
    from mmcrp import colgen, edgeform, instgen, ridegraph

    instance = instgen.read_instance(path)
    variants = ridegraph.enumerate_variants(instance, ridegraph.Caps())
    graph = ridegraph.build_graph(instance, variants)
    if wl.scheme is None:
        res = edgeform.solve_edge(graph, instance)
        return instance, graph, (res.plan, res.status, res.objective,
                                 res.bound, [])
    res = colgen.run(instance, scheme=wl.scheme, graph=graph)
    return instance, graph, (res.plan, res.ip_status, res.ip_value,
                             res.lp_bound, res.edges_relaxed_per_call)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, solve one instance untimed to warm up, solve whole rounds of
    the workload's instances for as long as another round fits into
    `seconds` (at least one round), check every solve, and return the
    result."""
    setups = setup(wl)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import mmcrp
    if Path(mmcrp.__file__).resolve().parent != SRC / "mmcrp":
        raise RuntimeError(f"mmcrp imported from {mmcrp.__file__}, not {SRC}")
    import checks
    import tracing

    solve(instance_path(wl, wl.instance_seeds[0]), wl)  # first-call costs
    tracer = tracing.Tracer()
    solve_fn = solve
    if trace:
        tracer.install()
        solve_fn = tracer.wrap(solve, "solve")
    # What the checks read is spilled to disk after each solve, so that
    # the process's peak memory does not grow with the number of rounds.
    stem = WORK / f"{wl.name}_r{seed}_t{int(trace)}"
    spill = Path(f"{stem}.outputs.pkl")
    paths, solved, times, errors = [], [], [], []
    t_start = time.perf_counter()
    try:
        with open(spill, "wb") as fh:
            for round_no in itertools.count():
                t_round = time.perf_counter()
                for path in round_paths(wl, seed, round_no):
                    paths.append(path)
                    tracer.solve = len(solved)
                    t0 = time.perf_counter()
                    try:
                        instance, graph, fields = solve_fn(path, wl)
                    except Exception:  # a solve that raises counts as failed
                        errors.append(traceback.format_exc())
                        solved.append(False)
                        continue
                    times.append(time.perf_counter() - t0)
                    pickle.dump(checks.capture(instance, graph, *fields,
                                               integral=wl.scheme is None),
                                fh)
                    solved.append(True)
                    del instance, graph, fields
                now = time.perf_counter()
                if now - t_start + (now - t_round) > seconds:
                    break  # the next round would not fit
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    ip_values: list[Optional[float]] = []
    with open(spill, "rb") as fh:
        for i, ok in enumerate(solved):
            out = pickle.load(fh) if ok else None
            ip_values.append(None if out is None else out.ip_value)
            try:
                found = (["raised an exception"] if out is None
                         else checks.problems(out))
            except RuntimeError as exc:  # HiGHS could not solve the model
                found = [str(exc)]
            if found:
                failed += 1
                print(f"solve {i} ({paths[i].name}) failed: "
                      + "; ".join(found), file=sys.stderr)
    spill.unlink()
    for e in errors:
        print(e, file=sys.stderr)

    n = len(wl.instance_seeds)
    by_instance = [[v for v in ip_values[i::n] if v is not None]
                   for i in range(n)]
    if trace:
        layers = tracing.run_layers(tracer.spans, len(solved))
        layers["instgen.generate_s"] = statistics.median(
            s["generate_s"] for s in setups)
        layers["traced.solve_s"] = statistics.fmean(times)
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layers.items())}
    else:
        metrics = {
            "solve_s": {"value": statistics.fmean(times), "unit": "s"},
            "saving_eur": {"value": sum(statistics.fmean(v) for v in
                                        by_instance if v), "unit": "EUR"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(
                s["setup_s"] for s in setups), "unit": "s"},
        }
    if trace:
        tracer.dump(f"{stem}.spans.jsonl")
    result = {"correct": failed == 0, "attempted": len(solved),
              "failed": failed, "metrics": metrics}
    with open(f"{stem}.result.json", "w") as fh:
        json.dump({**result, "solve_times_s": times,
                   "ip_values": by_instance, "setup": setups}, fh, indent=2)
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_ms_per_call") or metric.endswith("_ms_per_solve"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric == "colgen.column_yield" else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="picks each round's relabelling of the instances")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="solve further rounds while one more fits in this "
                        "many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seeds", default=None,
                   help="comma-separated generator seeds (default: the "
                        "workload's own)")
    p.add_argument("--setup-only", metavar="WORKLOAD_JSON",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "mmcrp" / "__init__.py").is_file():
        print(f"error: no mmcrp sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        spec = json.loads(args.setup_only)
        spec["instance_seeds"] = tuple(spec["instance_seeds"])
        print(json.dumps(write_instances(Workload(**spec))))
        return 0
    if args.workload is None:
        p.error("--workload is required")

    wl = WORKLOADS[args.workload]
    if args.instance_seeds is not None:
        wl = replace(wl, instance_seeds=tuple(
            int(s) for s in args.instance_seeds.split(",")))
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
