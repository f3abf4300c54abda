"""Command-line front end: instance generation, solving, fleet sweeps and
baseline comparisons.

Exit codes: 0 success (including flagged partial results on a time limit),
1 OS error, malformed instance or solver failure, 2 usage error.
MMCRP_LOG=info (or debug) logs the file gen wrote and one line per fleet size
of sweep. Results are written as JSON plus CSV; plotting is left to external
tools."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from . import colgen, edgeform, milp
from .instgen import GenParams, GenerationError, InstanceFormatError, \
    generate, read_instance, write_instance
from .model import Instance
from .ridegraph import Caps, GraphConstructionError, build_graph, dump_edges, \
    enumerate_variants

log = logging.getLogger("mmcrp")


def _setup_logging():
    level = os.environ.get("MMCRP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def split_fleet(total: int, n_depots: int) -> list[int]:
    """Split a fleet as equally as possible; earlier depots take the remainder."""
    base, extra = divmod(total, n_depots)
    return [base + (1 if i < extra else 0) for i in range(n_depots)]


def _caps(args) -> Caps:
    return Caps(
        max_shares_per_trip=args.max_shares if args.max_shares >= 0 else None,
        max_variants_per_user=args.max_variants if args.max_variants >= 0 else None,
    )


def _at_least(low, kind=int):
    """argparse type: a number of the given kind that is >= low."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value >= low:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} >= {low}, got '{text}'")
        return value
    return parse


def _add_solve_flags(p: argparse.ArgumentParser):
    p.add_argument("--scheme", choices=colgen.SCHEMES, default="multiple")
    p.add_argument("--heuristic", choices=colgen.HEURISTICS, default="none")
    p.add_argument("--early-stop", type=_at_least(0), default=0, metavar="N",
                   help="stop column generation after N iterations (0 = off)")
    p.add_argument("--time-limit", type=_at_least(0, float), default=0.0,
                   metavar="S",
                   help="wall-clock limit for each solve: column generation "
                        "and then its IP, or the edge model (0 = off)")
    p.add_argument("--joint-k", action="store_true",
                   help="use one common fallback mode for both legs of a share")
    p.add_argument("--max-shares", type=_at_least(-1), default=3,
                   help="max co-rider insertions per trip (-1 = unlimited)")
    p.add_argument("--max-variants", type=_at_least(-1), default=200,
                   help="max variants per user (-1 = unlimited)")
    p.add_argument("--out", default=None, help="output path prefix")


def _limits(args) -> dict:
    """The solve limits as keyword arguments; the CLI's 0 means no limit."""
    return {"early_stop": args.early_stop or None,
            "time_limit_s": args.time_limit or None}


def cmd_gen(args) -> int:
    params = GenParams(
        n_users=args.users,
        n_depots=args.depots,
        vehicles_per_depot=split_fleet(args.vehicles, args.depots),
        seed=args.seed,
    )
    instance = generate(params)
    out = Path(args.out_dir) / f"E_{args.users}_{args.seed}.json"
    write_instance(instance, out)
    log.info("wrote %s (%d simple trips, %d tasks)", out,
             len(instance.users), len(instance.all_tasks()))
    print(out)
    return 0


def _read(args) -> tuple[Instance, Path]:
    """The instance and the output path prefix: --out, or else the instance
    path without its suffix."""
    instance = read_instance(args.instance)
    return instance, Path(args.out or Path(args.instance).with_suffix(""))


def _write_json(path: str, doc: dict):
    """Write a result document, non-finite top-level numbers as null, and
    echo it on stdout."""
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in doc.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(json.dumps(doc))


def cmd_solve(args) -> int:
    instance, prefix = _read(args)
    t_graph = time.perf_counter()
    variants = enumerate_variants(instance, _caps(args), joint_k=args.joint_k)
    graph = build_graph(instance, variants)
    graph_s = time.perf_counter() - t_graph
    if args.dump_graph:
        dump_edges(graph, f"{prefix}.edges.csv")

    limits = _limits(args)
    if args.edge:
        res = edgeform.solve_edge(graph, instance,
                                  time_limit_s=limits["time_limit_s"])
        _write_json(f"{prefix}.result.json", {
            "instance": str(args.instance),
            "solver": "edge",
            "objective": res.objective,
            "bound": res.bound,
            "status": res.status,
            "gap_pct": 100.0 * res.gap,
            "rides_per_car": res.plan.rides_per_car if res.plan else None,
            "shares_per_ride": res.plan.shares_per_ride if res.plan else None,
        })
        return 0

    result = colgen.run(instance, scheme=args.scheme, heuristic=args.heuristic,
                        graph=graph, **limits)
    with open(f"{prefix}.convergence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "lp_objective", "columns_added",
                    "pricing_ms", "master_ms", "phase"])
        for row in result.log:
            w.writerow([row.iteration, f"{row.lp_objective:.6f}",
                        row.columns_added, row.pricing_ms, row.master_ms,
                        row.phase])
    _write_json(f"{prefix}.result.json", {
        "instance": str(args.instance),
        "solver": "colgen",
        "scheme": args.scheme,
        "heuristic": args.heuristic,
        "lp_bound": result.lp_bound,
        "ip_value": result.ip_value,
        "gap_pct": result.gap_pct,
        "iterations": result.iterations,
        "columns": result.columns_generated,
        "converged": result.converged,
        "ip_status": result.ip_status,
        "timings": {
            "pricing_s": round(result.pricing_s, 3),
            "master_s": round(result.master_s, 3),
            "ip_s": round(result.ip_s, 3),
            "total_s": round(graph_s + result.total_s, 3),
        },
        "rides_per_car": result.plan.rides_per_car if result.plan else None,
        "shares_per_ride": result.plan.shares_per_ride if result.plan else None,
    })
    return 0


def cmd_sweep(args) -> int:
    instance, prefix = _read(args)
    caps = _caps(args)
    variants = enumerate_variants(instance, caps, joint_k=args.joint_k)
    # the graph reads depot ids and the horizon only, which _with_fleet keeps
    graph = build_graph(instance, variants)

    rows = []
    for m in args.vehicles:
        inst_m = _with_fleet(instance, m)
        result = colgen.run(inst_m, scheme=args.scheme, heuristic=args.heuristic,
                            graph=graph, **_limits(args))
        plan = result.plan
        rows.append([m, f"{result.ip_value:.6f}", f"{plan.rides_per_car:.4f}",
                     f"{plan.shares_per_ride:.4f}"] if plan else [m, "", "", ""])
        log.info("m=%d ip=%.2f", m, result.ip_value)

    out = Path(f"{prefix}.sweep.csv")
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "ip_value", "rides_per_car", "shares_per_ride"])
        w.writerows(rows)
    print(out)
    return 0


def _fleet_sizes(text: str) -> list[int]:
    """argparse type of --vehicles: comma-separated fleet sizes >= 0."""
    return [_at_least(0)(v) for v in text.split(",")]


def _with_fleet(instance: Instance, total: int) -> Instance:
    from dataclasses import replace
    counts = split_fleet(total, len(instance.depots))
    depots = tuple(
        replace(d, vehicles_start=counts[i], vehicles_end=counts[i])
        for i, d in enumerate(instance.depots)
    )
    return replace(instance, depots=depots)


def compare_baselines(instance: Instance, caps: Caps, scheme: str = "multiple",
                      heuristic: str = "none", joint_k: bool = False,
                      early_stop: int | None = None,
                      time_limit_s: float | None = None) -> dict:
    """Solve the full problem, car-sharing only (no ride-shares) and
    user-dependent assignment (one car per user for the whole day); the full
    master is seeded with the car-sharing columns so the ratios are exact
    supersets. time_limit_s bounds each of the three solves."""
    variants = enumerate_variants(instance, caps, joint_k=joint_k)
    graph_full = build_graph(instance, variants)
    base_variants = [v for v in variants.all if not v.shares]
    graph_base = build_graph(instance, base_variants)

    carshare = colgen.run(instance, graph_base, scheme, heuristic, early_stop,
                          time_limit_s)
    seed_routes = [r for r in carshare.routes if r.covered]
    full = colgen.run(instance, graph_full, scheme, heuristic, early_stop,
                      time_limit_s, seed_routes)
    userdep_value, userdep_plan, userdep_status = colgen.solve_single_assignment(
        instance, graph_full, base_variants, time_limit_s)

    def ratio(a, b):
        return a / b if b and abs(b) > 1e-9 and not math.isnan(b) else math.nan

    return {
        "mmcrp_ip": full.ip_value,
        "carshare_ip": carshare.ip_value,
        "userdep_ip": userdep_value,
        "ratio_car_sharing": ratio(full.ip_value, carshare.ip_value),
        "ratio_user_dependent": ratio(full.ip_value, userdep_value),
    }


def cmd_compare(args) -> int:
    instance, prefix = _read(args)
    doc = compare_baselines(instance, _caps(args), scheme=args.scheme,
                            heuristic=args.heuristic, joint_k=args.joint_k,
                            **_limits(args))
    _write_json(f"{prefix}.compare.json", doc | {"instance": str(args.instance)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmcrp",
                                description="Multimodal car- and ride-sharing solver suite")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance")
    g.add_argument("--users", type=int, required=True)
    g.add_argument("--depots", type=_at_least(1), default=2)
    g.add_argument("--vehicles", type=int, default=4,
                   help="total fleet, split equally over depots")
    g.add_argument("--seed", type=_at_least(0), default=0)
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("instance")
    s.add_argument("--edge", action="store_true",
                   help="use the direct edge formulation instead of column generation")
    s.add_argument("--dump-graph", action="store_true",
                   help="also write the auxiliary edge list as CSV")
    _add_solve_flags(s)
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="re-solve one instance over fleet sizes")
    w.add_argument("instance")
    w.add_argument("--vehicles", type=_fleet_sizes, default="0,1,2,4,8",
                   help="comma-separated fleet sizes")
    _add_solve_flags(w)
    w.set_defaults(func=cmd_sweep)

    c = sub.add_parser("compare", help="full problem vs car-sharing-only vs "
                                       "user-dependent assignment")
    c.add_argument("instance")
    _add_solve_flags(c)
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InstanceFormatError, GraphConstructionError) as exc:
        print(f"error: malformed instance: {exc}", file=sys.stderr)
        return 1
    except (GenerationError, edgeform.EdgeModelSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except milp.MilpError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())
