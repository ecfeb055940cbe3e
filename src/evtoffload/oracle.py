"""Exhaustive ground truth for small instances.

Enumerates every client/server assignment of the interior nodes, schedules
each with the earliest-completion recurrence, and returns the cheapest
feasible one.  Exponential on purpose; capped at 22 nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .energy import (
    CLIENT,
    SERVER,
    InfeasibleError,
    OffloadDecision,
    SystemParams,
    slot_table,
    worst_case_expected_energy,
)
from .graph import TaskGraph, topological_order

ORACLE_NODE_CAP = 22


class OracleCapError(ValueError):
    """Instance too large to enumerate."""


@dataclass(frozen=True)
class EcSchedule:
    """Earliest completion slot per node, and whether it meets the deadline."""

    slots: dict[int, int]
    feasible: bool


@dataclass(frozen=True)
class OracleResult:
    psi_star: float
    decision: OffloadDecision
    assignments_enumerated: int
    feasible_count: int


def earliest_completion(
    graph: TaskGraph, location: dict[int, str], params: SystemParams
) -> EcSchedule:
    """Longest-path earliest completion under fixed locations.

    EC(n) = max over parents of EC(m) + transfer slots, plus n's own
    execution slots; sources complete after just their own execution.
    Feasible when every node (hence the final one) finishes by the deadline.
    """
    slots = slot_table(graph, params)
    order = topological_order(graph)
    z_up = params.z_up_slots
    z_down = params.z_down_slots
    ec: dict[int, int] = {}
    for node in order:
        ready = 0
        node_client = location[node] == CLIENT
        for parent in graph.parents[node]:
            parent_client = location[parent] == CLIENT
            if parent_client and not node_client:
                transfer = z_up
            elif not parent_client and node_client:
                transfer = z_down
            else:
                transfer = 0
            ready = max(ready, ec[parent] + transfer)
        ec[node] = ready + slots.at(node, location[node])
    feasible = max(ec.values()) <= params.deadline_slots
    return EcSchedule(slots=ec, feasible=feasible)


def cheapest_feasible(
    graph: TaskGraph, locations, params: SystemParams
) -> tuple[OffloadDecision | None, float | None, int]:
    """(decision, psi, feasible count) of the cheapest location map that
    meets the deadline, or (None, None, 0); the first one given wins a tie."""
    best: tuple[OffloadDecision | None, float | None] = (None, None)
    feasible_count = 0
    for location in locations:
        schedule = earliest_completion(graph, location, params)
        if not schedule.feasible:
            continue
        feasible_count += 1
        decision = OffloadDecision(location=location, slot=schedule.slots)
        psi = worst_case_expected_energy(graph, decision, params).psi
        if best[1] is None or psi < best[1]:
            best = decision, psi
    return *best, feasible_count


def brute_force_optimum(graph: TaskGraph, params: SystemParams) -> OracleResult:
    """Exact minimum-psi feasible decision by full enumeration.

    Ties broken by the lexicographically smallest assignment bitmask (bit i
    set means interior node i+2 runs on the server), so the result is
    deterministic and relabeling-invariant for isomorphic instances.
    """
    n = graph.n_nodes
    if n > ORACLE_NODE_CAP:
        raise OracleCapError(f"oracle capped at {ORACLE_NODE_CAP} nodes, got {n}")
    interior = graph.interior_ids()
    total = 1 << len(interior)
    locations = (
        dict.fromkeys(graph.node_ids, CLIENT)
        | {node: SERVER for bit, node in enumerate(interior) if mask >> bit & 1}
        for mask in range(total)
    )
    decision, psi, feasible_count = cheapest_feasible(graph, locations, params)
    if decision is None:
        raise InfeasibleError("no feasible assignment meets the deadline")
    return OracleResult(psi, decision, total, feasible_count)
