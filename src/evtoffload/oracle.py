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
    EnergyReport,
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
    places = set(location.values())  # one transfer rule lookup per pair of them
    transfer = {(a, b): params.transfer_slots(a, b) for a in places for b in places}
    row, ptr, parent_id = graph.row, graph.parent_ptr, graph.parent_id
    ec: dict[int, int] = {}
    for node in topological_order(graph):
        where, r = location[node], row[node]
        ready = 0
        for parent in parent_id[ptr[r]:ptr[r + 1]]:
            arrival = ec[parent] + transfer[location[parent], where]
            if arrival > ready:  # a compare, not a max() call per edge
                ready = arrival
        ec[node] = ready + slots.at(node, where)
    feasible = max(ec.values()) <= params.deadline_slots
    return EcSchedule(slots=ec, feasible=feasible)


def cheapest_feasible(
    graph: TaskGraph, locations, params: SystemParams
) -> tuple[OffloadDecision | None, EnergyReport | None, int]:
    """(decision, report, feasible count) of the cheapest location map that
    meets the deadline, each scheduled at its earliest completion, or
    (None, None, 0); the first one given wins a tie."""
    best: tuple[OffloadDecision | None, EnergyReport | None] = (None, None)
    feasible_count = 0
    for location in locations:
        schedule = earliest_completion(graph, location, params)
        if not schedule.feasible:
            continue
        feasible_count += 1
        decision = OffloadDecision(location=location, slot=schedule.slots)
        report = worst_case_expected_energy(graph, decision, params)
        if best[1] is None or report.psi < best[1].psi:
            best = decision, report
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
    interior = range(2, n)  # by id, whatever order the graph lists its nodes in
    total = 1 << len(interior)
    locations = (
        dict.fromkeys(graph.node_ids, CLIENT)
        | {node: SERVER for bit, node in enumerate(interior) if mask >> bit & 1}
        for mask in range(total)
    )
    decision, report, feasible_count = cheapest_feasible(graph, locations, params)
    if decision is None:
        raise InfeasibleError("no feasible assignment meets the deadline")
    return OracleResult(report.psi, decision, total, feasible_count)
