"""Objective, constraints and unit conversion for the offloading problem.

All timing arithmetic is in integer slots of length delta_s; the worst-case
transfer-time quantiles (seconds) are converted once to whole slots.  The
energy unit is whatever kappa*cycles*Hz^2 and theta*bits imply for the given
config; nothing here asserts Joules.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from pathlib import Path

from .graph import TaskGraph, write_json

CLIENT = "client"
SERVER = "server"


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
    """

    f_c_hz: float = 1.5e9
    f_s_hz: float = 2.4e9
    kappa: float = 1e-24
    delta_s: float = 1e-3
    deadline_slots: int = 5000
    eps_m_up: float = 0.1
    eps_m_down: float = 0.1
    z_up_s: float = 0.349
    z_down_s: float = 0.107
    theta_up: float = 4.81e-4
    theta_down: float = 1.11e-5
    epsilon: float = 0.03
    seed: int = 12345
    block_size_k: int = 1500

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in _INT_FIELDS:
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        positive = {
            "f_c_hz": self.f_c_hz,
            "f_s_hz": self.f_s_hz,
            "kappa": self.kappa,
            "delta_s": self.delta_s,
            "z_up_s": self.z_up_s,
            "z_down_s": self.z_down_s,
            "theta_up": self.theta_up,
            "theta_down": self.theta_down,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.deadline_slots < 1:
            raise ValueError(f"deadline_slots must be >= 1, got {self.deadline_slots}")
        for name, value in (("eps_m_up", self.eps_m_up), ("eps_m_down", self.eps_m_down)):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.block_size_k < 1:
            raise ValueError(f"block_size_k must be >= 1, got {self.block_size_k}")
        # Converted once: the exact rational ceilings are too slow to redo on
        # every access from the solver's hot loops.
        object.__setattr__(self, "_z_slots", (
            exact_ceil_div(self.z_up_s, self.delta_s),
            exact_ceil_div(self.z_down_s, self.delta_s),
        ))

    @property
    def z_up_slots(self) -> int:
        return self._z_slots[0]

    @property
    def z_down_slots(self) -> int:
        return self._z_slots[1]

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

    def replace(self, **kwargs) -> "SystemParams":
        merged = asdict(self)
        merged.update(kwargs)
        return SystemParams(**merged)


_FLOAT_FIELDS = (
    "f_c_hz", "f_s_hz", "kappa", "delta_s", "eps_m_up", "eps_m_down",
    "z_up_s", "z_down_s", "theta_up", "theta_down", "epsilon",
)
_INT_FIELDS = ("deadline_slots", "seed", "block_size_k")


def is_finite_number(value) -> bool:
    """A real number that is neither NaN nor infinite."""
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
    return _ceil_slots(workload_cycles, Fraction(freq_hz) * Fraction(delta_s))


def _ceil_slots(workload_cycles: int, cycles_per_slot: Fraction) -> int:
    # ceil(w / (p/q)) = ceil(w*q / p), by floor division of the negation:
    # exact on integers, with one Fraction per frequency instead of per node.
    if workload_cycles < 0:
        raise ValueError(f"workload must be nonnegative, got {workload_cycles}")
    return -(-workload_cycles * cycles_per_slot.denominator // cycles_per_slot.numerator)


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
    # Cached on the graph, by every config value the table reads: the graph
    # is immutable after construction and the exact Fraction ceilings are not
    # cheap enough for the solver's hot loops.
    key = (params.f_c_hz, params.f_s_hz, params.delta_s, params.kappa, params.theta_up, params.theta_down)
    table = graph._slot_tables.get(key)
    if table is None:
        client, server = (
            {m.id: _ceil_slots(m.workload_cycles, per_slot) for m in graph.modules}
            for per_slot in (
                Fraction(params.f_c_hz) * Fraction(params.delta_s),
                Fraction(params.f_s_hz) * Fraction(params.delta_s),
            )
        )
        coef = params.kappa * params.f_c_hz * params.f_c_hz
        table = graph._slot_tables[key] = SlotTable(
            client=client,
            server=server,
            local={m.id: coef * m.workload_cycles for m in graph.modules},
            up=[e.bits * params.theta_up for e in graph.edges],
            down=[e.bits * params.theta_down for e in graph.edges],
        )
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

    def export_nodes(self) -> list[dict]:
        """The `nodes` list of a decision JSON, by node id."""
        return [
            {"id": n, "location": self.location[n], "slot": self.slot[n]} for n in sorted(self.location)
        ]


@dataclass(frozen=True)
class EnergyReport:
    """Worst-case expected energy and its decomposition; psi == sum of parts."""

    psi: float
    local_exec_energy: float
    uplink_energy: float
    downlink_energy: float


def worst_case_expected_energy(
    graph: TaskGraph, decision: OffloadDecision, params: SystemParams
) -> EnergyReport:
    """Psi: local execution energy plus expected worst-case transfer energy.

    Location-only: completion slots never enter the objective.  The terms
    are the ones `slot_table` holds.
    """
    table, location = slot_table(graph, params), decision.location
    local = math.fsum([table.local[m.id] for m in graph.modules if location[m.id] == CLIENT])
    up_terms, down_terms = [], []
    for e, up, down in zip(graph.edges, table.up, table.down):
        src_client = location[e.src] == CLIENT
        if src_client and location[e.dst] != CLIENT:
            up_terms.append(up)
        elif not src_client and location[e.dst] == CLIENT:
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

    def key(self) -> tuple:
        return (self.kind, self.subject)


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

    for node in graph.node_ids:
        t = decision.slot[node]
        if t < 0 or t > params.deadline_slots:
            violations.append(
                Violation("slot-range", (node,), f"slot {t} outside 0..{params.deadline_slots}")
            )
        if not graph.parents[node]:
            need = slots.at(node, decision.location[node])
            if t < need:
                violations.append(
                    Violation(
                        "source-exec",
                        (node,),
                        f"source node {node} completes at slot {t} before its {need}-slot execution",
                    )
                )

    for e in graph.edges:
        src_client = decision.is_client(e.src)
        dst_client = decision.is_client(e.dst)
        if src_client and not dst_client:
            required = params.z_up_slots
        elif not src_client and dst_client:
            required = params.z_down_slots
        else:
            required = 0
        bound = (
            decision.slot[e.dst]
            - decision.slot[e.src]
            - slots.at(e.dst, decision.location[e.dst])
        )
        if bound < required:
            violations.append(
                Violation(
                    "dependency",
                    (e.src, e.dst),
                    f"edge {e.src}->{e.dst} needs {required} transfer slots but has bound {bound}",
                )
            )
    return violations
