"""Objective, constraints and unit conversion for the offloading problem.

All timing arithmetic is in integer slots of length delta_s; the worst-case
transfer-time quantiles (seconds) are converted once to whole slots.  The
energy unit is whatever kappa*cycles*Hz^2 and theta*bits imply for the given
config; nothing here asserts Joules.  What every solver returns and writes
is here too: the solve result, the decision file and the iteration log.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import numbers
from dataclasses import dataclass, asdict
from fractions import Fraction
from pathlib import Path

from .graph import TaskGraph, is_int, write_json, write_text

CLIENT = "client"
SERVER = "server"
UP, DOWN = "up", "down"
MAX_DEADLINE_SLOTS = (2**63 - 1) // 3 - 1


class InfeasibleError(Exception):
    """The instance admits no feasible schedule."""


class TraceExhaustedError(Exception):
    """An empirical trace replay ran out of recorded transfer events."""


@dataclass(frozen=True)
class SystemParams:
    """Device, server and channel constants plus derived slot quantities.

    Defaults mirror the reference experiment settings: a 1.5 GHz client,
    2.4 GHz server VM, 1 ms slots with a 5000-slot deadline, and worst-case
    transfer quantiles/energy coefficients fitted at eps_m = 0.1.

    `deadline_slots` T lies in 1..`MAX_DEADLINE_SLOTS` = (2**63 - 1) // 3 - 1.
    The replay and the pricing windows each add three slot counts capped at
    T + 1, which stays exact in int64 as 3 * (T + 1) <= 2**63 - 1.  (The
    replay's transfer cap is T + 1 as a double: it rounds down near the
    ceiling, and further below the headroom exceeds its rounding.)
    """

    f_c_hz: float = 1.5e9
    f_s_hz: float = 2.4e9
    kappa: float = 1e-24
    delta_s: float = 1e-3
    deadline_slots: int = 5000
    z_up_s: float = 0.349
    z_down_s: float = 0.107
    theta_up: float = 4.81e-4
    theta_down: float = 1.11e-5
    epsilon: float = 0.03

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(self, "deadline_slots", as_integer("deadline_slots", self.deadline_slots))
        for name in _FLOAT_FIELDS[:-1]:  # every float field but epsilon
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 1 <= self.deadline_slots <= MAX_DEADLINE_SLOTS:
            raise ValueError(f"deadline_slots must lie in 1..{MAX_DEADLINE_SLOTS}, "
                             f"got {self.deadline_slots}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        # Converted once: the exact rational ceilings are too slow to redo on
        # every access from the solver's hot loops.
        object.__setattr__(self, "z_up_slots", exact_ceil_div(self.z_up_s, self.delta_s))
        object.__setattr__(self, "z_down_slots", exact_ceil_div(self.z_down_s, self.delta_s))

    def transfer_slots(self, src_location: str, dst_location: str) -> int:
        """Worst-case slots of a dependency edge between the two locations:
        `z_up_slots` up, `z_down_slots` down, none on one side
        (`transfer_direction`)."""
        direction = transfer_direction(src_location, dst_location)
        if direction is None:
            return 0
        return self.z_up_slots if direction == UP else self.z_down_slots

    def to_json(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def from_json(cls, path: str | Path) -> "SystemParams":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config {path}: top level must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    replace = dataclasses.replace


def transfer_direction(src_location: str, dst_location: str) -> str | None:
    """`UP` for a dependency edge from the client to the server side, `DOWN`
    back, None on one side.  Any location but `CLIENT` is the server side."""
    src_client, dst_client = src_location == CLIENT, dst_location == CLIENT
    if src_client == dst_client:
        return None
    return UP if src_client else DOWN


# epsilon last: every float field before it must be positive.
_FLOAT_FIELDS = (
    "f_c_hz", "f_s_hz", "kappa", "delta_s",
    "z_up_s", "z_down_s", "theta_up", "theta_down", "epsilon",
)


def is_finite_number(value) -> bool:
    """A real number that is neither NaN nor infinite; bools are not numbers."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        return False


def as_integer(name: str, value) -> int:
    """`value` as an int: integral floats are accepted, bools rejected."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def exact_ceil_div(numer: float, denom: float) -> int:
    # Exact rational ceiling of the float quotient; avoids 999.999->1001 drift.
    return int(math.ceil(Fraction(numer) / Fraction(denom)))


def exec_slots(workload_cycles: int, freq_hz: float, delta_s: float) -> int:
    """Whole slots needed to run `workload_cycles` at `freq_hz`: 0 for empty work."""
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return _ceil_slots([workload_cycles], Fraction(freq_hz) * Fraction(delta_s))[0]


def _ceil_slots(workloads: list[int], cycles_per_slot: Fraction) -> list[int]:
    # ceil(w / (p/q)) = ceil(w*q / p), by floor division of the negation:
    # exact on integers, with one Fraction per frequency instead of per node.
    if min(workloads, default=0) < 0:
        bad = next(w for w in workloads if w < 0)
        raise ValueError(f"workload must be nonnegative, got {bad}")
    q, p = cycles_per_slot.denominator, cycles_per_slot.numerator
    return [-(-w * q // p) for w in workloads]


@dataclass(frozen=True)
class SlotTable:
    """What one config derives from a graph: each node's execution slots on
    each side, and the terms psi sums, which every layer reads - each node's
    local energy kappa * f_c**2 * w (by node id) and each edge's worst-case
    expected theta_up * b and theta_down * b (in `graph.edges` order)."""

    client: dict[int, int]
    server: dict[int, int]
    local: dict[int, float]
    up: list[float]
    down: list[float]

    def at(self, node: int, location: str) -> int:
        return self.client[node] if location == CLIENT else self.server[node]


def slot_table(graph: TaskGraph, params: SystemParams) -> SlotTable:
    """The graph's `SlotTable` under `params`.

    Raises ValueError unless the energy terms sum to a finite total.  The
    terms are never negative, so every sum of them a layer takes is finite.
    """
    # Cached on the graph, by every config value the table reads: the graph
    # is immutable after construction and the exact Fraction ceilings are not
    # cheap enough for the solver's hot loops.
    key = (params.f_c_hz, params.f_s_hz, params.delta_s, params.kappa, params.theta_up, params.theta_down)
    table = graph._slot_tables.get(key)
    if table is None:
        ids, workloads = graph.node_ids, graph.node_workloads
        client, server = (
            dict(zip(ids, _ceil_slots(workloads, per_slot)))
            for per_slot in (
                Fraction(params.f_c_hz) * Fraction(params.delta_s),
                Fraction(params.f_s_hz) * Fraction(params.delta_s),
            )
        )
        coef = params.kappa * params.f_c_hz * params.f_c_hz
        try:  # an int beyond float range, or a sum beyond it, overflows
            local = dict(zip(ids, [coef * w for w in workloads]))
            up = [b * params.theta_up for b in graph.edge_bits]
            down = [b * params.theta_down for b in graph.edge_bits]
            total = math.fsum(local.values()) + math.fsum(up) + math.fsum(down)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise ValueError("the energy terms of the graph under this config do not sum to a finite total")
        table = graph._slot_tables[key] = SlotTable(client, server, local, up, down)
    return table


@dataclass
class OffloadDecision:
    """Per-node execution location and completion slot.

    `location[n]` is "client" or "server"; `slot[n]` is the slot in which
    node n finishes.  Slot 0 is only reachable for zero-workload sources
    (the init module completing instantly at the time origin).
    """

    location: dict[int, str]
    slot: dict[int, int]

    def is_client(self, node: int) -> bool:
        return self.location[node] == CLIENT

    def server_set(self) -> set[int]:
        return {n for n, loc in self.location.items() if loc == SERVER}

    def to_json(self, path: str | Path, psi: float, psi_lower: float, epsilon: float, iterations: int,
                **extra) -> None:
        """Write the decision file every decider writes: the bounds
        (`psi_upper` is `psi`), `epsilon`, `iterations`, the `nodes` list by
        node id, and the decider's own `extra` keys."""
        nodes = [{"id": n, "location": self.location[n], "slot": self.slot[n]} for n in sorted(self.location)]
        write_json(path, {"psi": psi, "psi_lower": psi_lower, "psi_upper": psi, "epsilon": epsilon,
                          "iterations": iterations, "nodes": nodes, **extra})

    @classmethod
    def from_json(cls, path: str | Path) -> "OffloadDecision":
        """The decision of a decision file; keys other than `nodes` are not read."""
        data = json.loads(Path(path).read_text())
        try:
            nodes = [(item["id"], item["location"], item["slot"]) for item in data["nodes"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"decision {path}: every node needs an id, a location and a slot") from exc
        seen = set()
        for node, _, slot in nodes:
            if not (is_int(node) and is_int(slot)):
                raise ValueError(f"decision {path}: node ids and slots must be integers, got {node!r}, {slot!r}")
            if node in seen:
                raise ValueError(f"decision {path}: node {node} is listed twice")
            seen.add(node)
        return cls(
            location={node: where for node, where, _ in nodes}, slot={node: slot for node, _, slot in nodes}
        )


@dataclass(frozen=True)
class EnergyReport:
    """Worst-case expected energy and its decomposition; psi == sum of parts."""

    psi: float
    local_exec_energy: float
    uplink_energy: float
    downlink_energy: float


@dataclass
class IterationRecord:
    index: int
    psi_upper: float
    psi_lower: float
    r_underbar: float
    admitted_node: int | None


@dataclass
class SolveResult:
    """A solve's decision and report.  psi_upper is psi of the schedule, so a
    result keeps only psi_lower and exports its report's psi as psi_upper."""

    decision: OffloadDecision
    report: EnergyReport
    psi_lower: float
    log: list[IterationRecord]
    exit_reason: str
    optimal_certified: bool
    epsilon: float

    @property
    def iterations(self) -> int:
        """Admissions: the rounds of `log` that admitted a node."""
        return sum(rec.admitted_node is not None for rec in self.log)


def write_decision_json(path: str | Path, result: SolveResult) -> None:
    result.decision.to_json(path, result.report.psi, result.psi_lower, result.epsilon, result.iterations,
                            exit_reason=result.exit_reason, optimal_certified=result.optimal_certified)


def write_iteration_log(path: str | Path, log: list[IterationRecord]) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["iter", "psi_upper", "psi_lower", "r_underbar", "admitted_node"])
    writer.writerows(
        [rec.index, repr(rec.psi_upper), repr(rec.psi_lower), repr(rec.r_underbar),
         "" if rec.admitted_node is None else rec.admitted_node]
        for rec in log
    )
    write_text(path, text.getvalue())


def worst_case_expected_energy(
    graph: TaskGraph, decision: OffloadDecision, params: SystemParams
) -> EnergyReport:
    """Psi: local execution energy plus expected worst-case transfer energy.

    Location-only: completion slots never enter the objective.  The terms
    are the ones `slot_table` holds.
    """
    table, location = slot_table(graph, params), decision.location
    local = math.fsum([table.local[n] for n in graph.node_ids if location[n] == CLIENT])
    up_terms, down_terms = [], []
    for src, dst, up, down in zip(graph.edge_src, graph.edge_dst, table.up, table.down):
        src_client = location[src] == CLIENT
        if src_client and location[dst] != CLIENT:
            up_terms.append(up)
        elif not src_client and location[dst] == CLIENT:
            down_terms.append(down)
    up, down = math.fsum(up_terms), math.fsum(down_terms)
    return EnergyReport(
        psi=local + up + down,
        local_exec_energy=local,
        uplink_energy=up,
        downlink_energy=down,
    )


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple
    detail: str


def check_constraints(
    graph: TaskGraph, decision: OffloadDecision, params: SystemParams
) -> list[Violation]:
    """Every violated scheduling constraint of the decision; empty iff feasible."""
    violations: list[Violation] = []
    n_last = graph.n_nodes
    slots = slot_table(graph, params)

    for pinned in (1, n_last):
        if not decision.is_client(pinned):
            violations.append(
                Violation("endpoint-location", (pinned,), f"node {pinned} must run at the client")
            )

    if decision.slot[n_last] > params.deadline_slots:
        violations.append(
            Violation(
                "deadline",
                (n_last,),
                f"node {n_last} completes at slot {decision.slot[n_last]} > T={params.deadline_slots}",
            )
        )

    location, slot = decision.location, decision.slot
    start: dict[int, int] = {}  # the slot after which each node's execution may start
    for node in graph.node_ids:
        t, need = slot[node], slots.at(node, location[node])
        start[node] = t - need
        if t < 0 or t > params.deadline_slots:
            violations.append(
                Violation("slot-range", (node,), f"slot {t} outside 0..{params.deadline_slots}")
            )
        if t < need and not graph.parent_id[graph.parent_slice(node)]:  # a source
            violations.append(
                Violation(
                    "source-exec",
                    (node,),
                    f"source node {node} completes at slot {t} before its {need}-slot execution",
                )
            )

    places = set(location.values())  # one transfer rule lookup per pair of them
    transfer = {(a, b): params.transfer_slots(a, b) for a in places for b in places}
    for src, dst in zip(graph.edge_src, graph.edge_dst):
        required, bound = transfer[location[src], location[dst]], start[dst] - slot[src]
        if bound < required:
            violations.append(
                Violation(
                    "dependency",
                    (src, dst),
                    f"edge {src}->{dst} needs {required} transfer slots but has bound {bound}",
                )
            )
    return violations
