"""Exhaustive ground truth for tiny instances.

Enumerates every assignment of vehicles to time-compatible chains of ride
edges (waiting is free), rejects double coverage and depot-count violations,
and returns the best total saving. Guarded by size limits; exhaustive by
definition, so anything beyond the guard is refused."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Instance
from .ridegraph import TimeSpaceGraph

MAX_RIDE_EDGES = 25
MAX_FLEET = 3


class OracleSizeError(ValueError):
    pass


@dataclass(frozen=True)
class _Chain:
    end_depot: int
    covered: frozenset
    saving: float


def _chains_from(graph: TimeSpaceGraph, depot: int) -> list[_Chain]:
    """All time-increasing ride-edge chains starting at a depot (incl. empty)."""
    rides = graph.ride_edges
    chains: list[_Chain] = [_Chain(depot, frozenset(), 0.0)]

    def extend(cur_depot, cur_time, covered, saving):
        for e in rides:
            td, tt = graph.nodes[e.tail]
            if td != cur_depot or tt < cur_time:
                continue
            var = graph.variants[e.variant_id]
            cov = frozenset(var.covered)
            if cov & covered:
                continue  # a chain may not serve the same task twice
            hd, ht = graph.nodes[e.head]
            chains.append(_Chain(hd, covered | cov, saving + e.saving))
            extend(hd, ht, covered | cov, saving + e.saving)

    extend(depot, graph.sigma_s, frozenset(), 0.0)
    return chains


def brute_force(instance: Instance, graph: TimeSpaceGraph) -> Optional[float]:
    """Optimal total saving by exhaustive vehicle-to-chain assignment, or
    None when no assignment meets the depot returns."""
    n_rides = len(graph.ride_edges)
    fleet = instance.fleet_size
    if n_rides > MAX_RIDE_EDGES or fleet > MAX_FLEET:
        raise OracleSizeError(
            f"instance too large for the oracle: {n_rides} ride edges "
            f"(max {MAX_RIDE_EDGES}), fleet {fleet} (max {MAX_FLEET})"
        )

    chains_by_depot = {d: _chains_from(graph, d) for d in sorted(graph.source)}
    vehicles = [d.id for d in instance.depots for _ in range(d.vehicles_start)]
    want_end = {d.id: d.vehicles_end for d in instance.depots}

    best = -float("inf")

    def assign(idx, min_chain_idx, covered, saving, ends):
        nonlocal best
        if idx == len(vehicles):
            if all(ends.get(d, 0) == w for d, w in want_end.items()):
                best = max(best, saving)
            return
        depot = vehicles[idx]
        same_as_prev = idx > 0 and vehicles[idx - 1] == depot
        start = min_chain_idx if same_as_prev else 0
        options = chains_by_depot[depot]
        for ci in range(start, len(options)):
            ch = options[ci]
            pairwise = ch.covered & covered
            if pairwise:
                continue
            ends[ch.end_depot] = ends.get(ch.end_depot, 0) + 1
            assign(idx + 1, ci, covered | ch.covered, saving + ch.saving, ends)
            ends[ch.end_depot] -= 1
            if ends[ch.end_depot] == 0:
                del ends[ch.end_depot]

    assign(0, 0, frozenset(), 0.0, {})
    return None if best == -float("inf") else best
