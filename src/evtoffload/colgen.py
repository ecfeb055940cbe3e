"""Column-generation solver for the offloading problem.

The restricted master fixes execution locations and is a pure feasibility
check, so upper bounds come from re-evaluating the energy objective.  The
schedule starts from the serial all-local assignment and is updated
incrementally: an admitted column places its node at the completion slot
chosen by pricing and leaves every other slot untouched, which is what
preserves the slack the pricing windows need.

Dual prices are tightness weights: each dependency edge is priced
1/(1 + slack) of the current schedule, normalized to sum 1.  The master is
only ever priced after its feasibility check has passed, and the exact LP
duals of a feasible master are all zero, so these weights are what steers
pricing.

Pricing follows the reduced-cost form

    zeta_n = sum_m c_m o_mn theta_u + sum_k c_k o_nk theta_d
             - sum_m pi_mn b_mn - sum_k pi_nk b_nk

which is affine in the completion slot t of the candidate.  Every round
prices all candidates in one vectorised pass over edge arrays built once
per solve (`PricingCore`): windows and coefficients come from per-node
reductions over an incidence list, with each coefficient summed in the same
order as a scalar loop.  The minimizing slot is read off the sign of the
slope - the window's first slot when zeta rises, its last when it falls -
whenever the slope exceeds a rigorous bound on the rounding error of the
computed curve.  Within that bound the computed curve need not be monotone,
so the window is scanned slot by slot, which gives exactly the slot and
value a full scan gives (smallest slot on ties).  A column is admitted only
if it strictly lowers the energy objective; otherwise it is blacklisted for
later rounds.  An admission that breaks master feasibility is rolled back
when the next master check signals it.

Bound bookkeeping: r_underbar records the pricing value of each round, but
psi_lower is held at a provable combinatorial floor on psi (see
`attribution_lower_bound`) because the textbook update
psi_upper + K * r_underbar is only heuristic here and can overshoot the
true optimum.  The solver labels an exit as optimal only when the full
candidate grid prices nonnegative, no single relocation lowers the energy,
and the upper bound meets that combinatorial floor - a sound certificate,
unlike the raw nonnegative-pricing test.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energy import (
    CLIENT,
    SERVER,
    InfeasibleError,
    OffloadDecision,
    EnergyReport,
    SystemParams,
    check_constraints,
    slot_table,
    worst_case_expected_energy,
)
from .graph import GraphValidationError, TaskGraph, topological_order, validate_graph

CERT_REL_TOL = 1e-12

# zeta(t) is six IEEE operations on the coefficients, so the computed curve
# lies within 6.01 * 2**-53 * S + 6 * 2**-1075 of the exact line, S being the
# sum of the term magnitudes (the second term covers subnormal results).  A
# slope beyond twice that keeps the computed curve strictly monotone over the
# window; the allowance below has a wide margin, and within it the window is
# scanned.
SLOPE_NOISE = 64 * 2.0**-53
SLOPE_NOISE_ABS = 2.0**-1060

EXIT_NO_COLUMN = "no_column"
EXIT_PRICING_NONNEG = "pricing_nonneg"
EXIT_RATIO = "ratio"


class RmpInfeasible(Exception):
    """The current schedule violates the master constraints: reject the
    most recently added column."""


class NoFeasibleSlotError(Exception):
    """A candidate's completion-slot window is empty."""


@dataclass
class PricedColumn:
    node: int
    reduced_cost: float
    t_min: int
    t_max: int
    slot: int


@dataclass(frozen=True)
class PricingTable:
    """Priced candidates of one round, ascending by node id.

    Holds every candidate with a nonempty window: its window, its best slot
    and zeta at that slot, which is the minimum of zeta over the window.
    """

    node: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray
    slot: np.ndarray
    zeta: np.ndarray

    def best(self, blacklist: set[int]) -> PricedColumn | None:
        """Column selection: the most negative zeta outside the blacklist,
        ties to the smallest id; None when no candidate is left."""
        open_idx = [i for i, node in enumerate(self.node.tolist()) if node not in blacklist]
        if not open_idx:
            return None
        i = open_idx[int(np.argmin(self.zeta[open_idx]))]
        return PricedColumn(
            int(self.node[i]), float(self.zeta[i]), int(self.t_min[i]), int(self.t_max[i]),
            int(self.slot[i]),
        )


class PricingCore:
    """Edge arrays of one solve; prices every candidate of a round at once.

    Node-indexed arrays have length N + 1 and are indexed by node id, so ids
    must be 1..N.  The incidence list holds, for each interior node, its
    parent edges and then its child edges in `graph.parents` /
    `graph.children` order: `np.bincount` adds in input order, so each
    coefficient is summed exactly as a scalar loop over that node would.
    """

    def __init__(self, graph: TaskGraph, params: SystemParams):
        self.params = params
        self.node_ids = ids = graph.node_ids
        self.ids = np.array(ids, dtype=np.int64)
        self.size = max(ids, default=0) + 1
        self.interior = sorted(graph.interior_ids())
        self.edge_keys = [(e.src, e.dst) for e in graph.edges]
        self.src = np.array([e.src for e in graph.edges], dtype=np.int64)
        self.dst = np.array([e.dst for e in graph.edges], dtype=np.int64)
        self.bits = np.array([e.bits for e in graph.edges], dtype=float)

        # A slot count beyond T + 1 empties every window and fails every
        # schedule exactly as T + 1 does; the cap keeps int64 arithmetic exact.
        cap = params.deadline_slots + 1
        slots = slot_table(graph, params)
        self.z_up = min(params.z_up_slots, cap)
        self.z_down = min(params.z_down_slots, cap)
        self.client_slots = np.zeros(self.size, dtype=np.int64)
        self.server_slots = np.zeros(self.size, dtype=np.int64)
        self.client_slots[self.ids] = [min(slots.client[n], cap) for n in ids]
        self.server_slots[self.ids] = [min(slots.server[n], cap) for n in ids]

        edge_index = {key: i for i, key in enumerate(self.edge_keys)}
        node, edge, is_parent = [], [], []
        for v in self.interior:
            for p in graph.parents[v]:
                node.append(v)
                edge.append(edge_index[(p, v)])
                is_parent.append(True)
            for c in graph.children[v]:
                node.append(v)
                edge.append(edge_index[(v, c)])
                is_parent.append(False)
        self.inc_node = np.array(node, dtype=np.int64)
        self.inc_edge = np.array(edge, dtype=np.int64)
        self.inc_parent = np.array(is_parent, dtype=bool)
        self.inc_other = np.where(self.inc_parent, self.src[self.inc_edge], self.dst[self.inc_edge])

    def round_arrays(self, state: SolverState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(on-server mask, schedule) by node id and the dual price of each edge."""
        on_server = np.zeros(self.size, dtype=bool)
        on_server[list(state.server_set)] = True
        sched = np.zeros(self.size, dtype=np.int64)
        sched[self.ids] = [state.schedule[n] for n in self.node_ids]
        pi = np.array([state.duals.get(key, 0.0) for key in self.edge_keys], dtype=float)
        return on_server, sched, pi

    def _exec_at(self, nodes: np.ndarray, on_server: np.ndarray) -> np.ndarray:
        return np.where(on_server[nodes], self.server_slots[nodes], self.client_slots[nodes])

    def slack(self, on_server: np.ndarray, sched: np.ndarray) -> np.ndarray:
        """Slots of each edge's gap beyond its transfer and head execution, >= 0."""
        up = ~on_server[self.src] & on_server[self.dst]
        down = on_server[self.src] & ~on_server[self.dst]
        transfer = np.where(up, self.z_up, np.where(down, self.z_down, 0))
        gap = sched[self.dst] - sched[self.src]
        return np.maximum(gap - transfer - self._exec_at(self.dst, on_server), 0)

    def windows(self, on_server: np.ndarray, sched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t_min, t_max) by node id for moving each interior node to the server.

        Every slot in a window keeps all constraints touching the node
        satisfied with the rest of the schedule unchanged; t_min > t_max
        marks an empty window.
        """
        other = self.inc_other
        client = ~on_server[other]
        up = self.inc_parent
        ready = sched[other] + np.where(client, self.z_up, 0)
        t_min = np.zeros(self.size, dtype=np.int64)
        np.maximum.at(t_min, self.inc_node[up], ready[up])
        t_min = np.maximum(t_min + self.server_slots, 1)
        latest = sched[other] - np.where(client, self.z_down, 0) - self._exec_at(other, on_server)
        t_max = np.full(self.size, self.params.deadline_slots, dtype=np.int64)
        np.minimum.at(t_max, self.inc_node[~up], latest[~up])
        return t_min, t_max

    def coefficients(self, on_server: np.ndarray, sched: np.ndarray, pi: np.ndarray):
        """(tr, ps, po, cs, co) by node id, zeta(t) = `_zeta(tr, ps, po, cs, co, t)`.

        tr is the transfer energy the move adds, ps/po the dual sum and
        offset of the parent rows, cs/co those of the child rows.
        """
        other = self.inc_other
        client = ~on_server[other]
        up = self.inc_parent
        down = ~up
        theta = np.where(up, self.params.theta_up, self.params.theta_down)
        transfer = np.where(client, self.bits[self.inc_edge] * theta, 0.0)
        price = pi[self.inc_edge]
        head = np.where(up, -self.server_slots[self.inc_node], self._exec_at(other, on_server))
        offset = price * (sched[other] - head)

        def per_node(weights, rows=slice(None)):
            return np.bincount(self.inc_node[rows], weights=weights[rows], minlength=self.size)

        return (
            per_node(transfer),
            per_node(price, up),
            per_node(offset, up),
            per_node(price, down),
            per_node(offset, down),
        )

    def price(self, state: SolverState, nodes) -> PricingTable:
        """Best slot and zeta of each of `nodes` (ascending ids) with a nonempty window."""
        on_server, sched, pi = self.round_arrays(state)
        t_min, t_max = self.windows(on_server, sched)
        nodes = np.asarray(nodes, dtype=np.int64)
        nodes = nodes[t_min[nodes] <= t_max[nodes]]
        lo, hi = t_min[nodes], t_max[nodes]
        tr, ps, po, cs, co = (c[nodes] for c in self.coefficients(on_server, sched, pi))
        slope = cs - ps
        magnitude = np.abs(tr) + np.abs(po) + np.abs(co) + (np.abs(ps) + np.abs(cs)) * hi
        noise = SLOPE_NOISE * magnitude + SLOPE_NOISE_ABS
        slot = np.where(slope > 0.0, lo, hi)
        zeta = _zeta(tr, ps, po, cs, co, slot.astype(float))
        for i in np.flatnonzero(np.abs(slope) <= noise):
            grid = np.arange(lo[i], hi[i] + 1, dtype=float)
            curve = _zeta(tr[i], ps[i], po[i], cs[i], co[i], grid)
            best = int(np.argmin(curve))
            slot[i] = lo[i] + best
            zeta[i] = curve[best]
        return PricingTable(nodes, lo, hi, slot, zeta)


def _zeta(tr, ps, po, cs, co, t):
    # zeta(t) = transfer - sum_m pi (t - slot_m - Es) - sum_k pi (slot_k - t - Ek)
    return tr - (ps * t - po) - (co - cs * t)


@dataclass
class IterationRecord:
    index: int
    psi_upper: float
    psi_lower: float
    r_underbar: float
    admitted_node: int | None


@dataclass(frozen=True)
class Bounds:
    psi_lower: float
    psi_upper: float


@dataclass
class SolverState:
    """Mutable solve-loop state: locations, schedule, prices and bounds."""

    graph: TaskGraph
    params: SystemParams
    server_set: set[int] = field(default_factory=set)
    blacklist: set[int] = field(default_factory=set)
    schedule: dict[int, int] = field(default_factory=dict)
    duals: dict[tuple[int, int], float] = field(default_factory=dict)
    psi_upper: float = math.inf
    psi_lower: float = 0.0
    r_underbar: float = math.inf
    iterations: int = 0
    core: PricingCore = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.core = PricingCore(self.graph, self.params)

    def location(self, node: int) -> str:
        return SERVER if node in self.server_set else CLIENT

    def location_map(self) -> dict[int, str]:
        return {n: self.location(n) for n in self.graph.node_ids}

    def decision(self) -> OffloadDecision:
        return OffloadDecision(location=self.location_map(), slot=dict(self.schedule))


@dataclass
class SolveResult:
    decision: OffloadDecision
    report: EnergyReport
    bounds: Bounds
    iterations: int
    log: list[IterationRecord]
    exit_reason: str
    full_grid_nonneg: bool
    optimal_certified: bool
    epsilon: float


def initial_rmp(graph: TaskGraph, params: SystemParams) -> SolverState:
    """All-local starting state with the serial one-module-at-a-time schedule.

    Serializing the whole application is what leaves slack between
    independent branches for later pricing windows.
    """
    slots = slot_table(graph, params)
    order = topological_order(graph)
    total = sum(slots.client[n] for n in order)
    if total > params.deadline_slots:
        raise InfeasibleError(
            f"deadline too tight for local execution ({total} > {params.deadline_slots} slots)"
        )
    schedule: dict[int, int] = {}
    clock = 0
    for node in order:
        clock += slots.client[node]
        schedule[node] = clock
    state = SolverState(graph=graph, params=params)
    state.schedule = schedule
    state.psi_upper = worst_case_expected_energy(graph, state.decision(), params).psi
    state.psi_lower = 0.0
    return state


def tightness_duals(state: SolverState) -> dict[tuple[int, int], float]:
    """Prices 1/(1 + slack) per dependency edge, normalized to sum 1."""
    core = state.core
    on_server, sched, _ = core.round_arrays(state)
    weights = 1.0 / (1.0 + core.slack(on_server, sched))
    return dict(zip(core.edge_keys, (weights / math.fsum(weights)).tolist()))


def solve_rmp(state: SolverState) -> tuple[float, dict[tuple[int, int], float], dict[int, int]]:
    """Feasibility-check the current schedule; refresh the bound and duals.

    Raises RmpInfeasible when the schedule violates any master constraint,
    which tells the caller to reject the most recently added column.
    """
    decision = state.decision()
    violations = check_constraints(state.graph, decision, state.params)
    if violations:
        raise RmpInfeasible(violations[0].detail)
    state.psi_upper = worst_case_expected_energy(state.graph, decision, state.params).psi
    state.duals = tightness_duals(state)
    return state.psi_upper, state.duals, dict(state.schedule)


def feasible_slot_range(node: int, state: SolverState) -> tuple[int, int]:
    """Completion-slot window for moving `node` to the server.

    Every slot in the window keeps all constraints touching the node
    satisfied with the rest of the schedule unchanged.
    """
    on_server, sched, _ = state.core.round_arrays(state)
    t_min, t_max = state.core.windows(on_server, sched)
    if t_min[node] > t_max[node]:
        raise NoFeasibleSlotError(f"node {node} has no feasible completion slot")
    return int(t_min[node]), int(t_max[node])


def reduced_cost(node: int, slot: int, state: SolverState) -> float:
    """zeta for moving `node` to the server, completing at `slot`."""
    if node in state.server_set or node in (1, state.graph.n_nodes):
        raise ValueError(f"node {node} is not a pricing candidate")
    coef = state.core.coefficients(*state.core.round_arrays(state))
    return float(_zeta(*(c[node] for c in coef), float(slot)))


def solve_td(node: int, state: SolverState) -> tuple[int, float]:
    """Exact completion-slot choice for one candidate.

    Returns the minimizing slot of the feasible window (smallest on ties)
    and its zeta value, as a scan over every slot would.
    """
    table = state.core.price(state, [node])
    if not table.node.size:
        raise NoFeasibleSlotError(f"node {node} has no feasible completion slot")
    return int(table.slot[0]), float(table.zeta[0])


def _price_all(state: SolverState) -> PricingTable:
    """Price every interior client node, blacklisted ones included."""
    candidates = [n for n in state.core.interior if n not in state.server_set]
    return state.core.price(state, candidates)


def delta_psi(node: int, state: SolverState) -> float:
    """Exact objective change from relocating `node` to the server."""
    graph, params = state.graph, state.params
    change = -params.kappa * graph.workload(node) * params.f_c_hz * params.f_c_hz
    for parent in graph.parents[node]:
        bits = graph.bits(parent, node)
        if state.location(parent) == CLIENT:
            change += bits * params.theta_up
        else:
            change -= bits * params.theta_down
    for child in graph.children[node]:
        bits = graph.bits(node, child)
        if state.location(child) == CLIENT:
            change += bits * params.theta_down
        else:
            change -= bits * params.theta_up
    return change


def attribution_lower_bound(graph: TaskGraph, params: SystemParams) -> float:
    """Provable lower bound on psi over all assignments, deadline ignored.

    Charge each node the cheaper of running locally or the transfer cost it
    can never avoid when offloaded: traffic from the (always local) entry
    node and to the (always local) final node.  Every assignment pays at
    least this much, so the bound is safe to clamp psi_lower with.
    """
    coef = params.kappa * params.f_c_hz * params.f_c_hz
    n_last = graph.n_nodes
    terms = []
    for m in graph.modules:
        local = coef * m.workload_cycles
        if m.id == 1 or m.id == n_last:
            terms.append(local)
            continue
        pinned = 0.0
        if 1 in graph.parents[m.id]:
            pinned += graph.bits(1, m.id) * params.theta_up
        if n_last in graph.children[m.id]:
            pinned += graph.bits(m.id, n_last) * params.theta_down
        terms.append(min(local, pinned))
    return math.fsum(terms)


def _grid_verification(state: SolverState, table: PricingTable) -> tuple[bool, bool]:
    """(all zeta >= 0 over the full grid, no single relocation helps).

    `table` prices every interior client node on the current state,
    blacklisted ones included: this is the full candidate grid of the
    pricing problem, and each zeta in it is its candidate's minimum over
    the whole window.
    """
    grid_nonneg = not bool((table.zeta < 0.0).any())
    stationary = not any(
        delta_psi(node, state) < 0
        for node in state.core.interior
        if node not in state.server_set
    )
    return grid_nonneg, stationary


def solve(graph: TaskGraph, params: SystemParams, epsilon: float | None = None) -> SolveResult:
    """Run the epsilon-bounded column-generation loop.

    Each round: check the master and refresh bound + duals, price one
    column, update the bound pair, test the three exit conditions, then
    either admit the column at its chosen slot or blacklist it.  At most
    N - 2 admissions can ever happen, so the loop terminates.
    """
    eps = params.epsilon if epsilon is None else epsilon
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {eps}")
    violations = validate_graph(graph)
    if violations:
        raise GraphValidationError(violations)

    state = initial_rmp(graph, params)
    psi_floor = attribution_lower_bound(graph, params)
    log: list[IterationRecord] = []
    exit_reason = EXIT_NO_COLUMN
    dirty = True
    table: PricingTable | None = None
    last_admission: tuple[int, int] | None = None
    round_idx = 0
    max_rounds = 2 * graph.n_nodes + 8

    while True:
        round_idx += 1
        if round_idx > max_rounds:  # pragma: no cover - structural guard
            raise RuntimeError("column generation failed to terminate")
        if dirty:
            try:
                solve_rmp(state)
            except RmpInfeasible:
                if last_admission is None:
                    raise
                node, prev_slot = last_admission
                state.server_set.discard(node)
                state.schedule[node] = prev_slot
                state.iterations -= 1
                state.blacklist.add(node)
                solve_rmp(state)
            last_admission = None
            table = _price_all(state)
            dirty = False

        column = table.best(state.blacklist)
        r_scan = 0.0 if column is None else column.reduced_cost

        # The scan pricing value is recorded as r_underbar, but the lower
        # bound comes from the provable combinatorial floor: the heuristic
        # psi_upper + K*r_underbar can overshoot the true optimum, which
        # would break the bound sandwich.
        state.r_underbar = r_scan
        state.psi_lower = max(0.0, min(psi_floor, state.psi_upper))

        if column is None:
            exit_reason = EXIT_NO_COLUMN
        elif r_scan >= 0.0:
            exit_reason = EXIT_PRICING_NONNEG
        elif state.psi_upper <= (1.0 + eps) * state.psi_lower:
            exit_reason = EXIT_RATIO
        else:
            node = column.node
            admitted: int | None = None
            if delta_psi(node, state) < 0.0:
                last_admission = (node, state.schedule[node])
                state.server_set.add(node)
                state.schedule[node] = column.slot
                state.iterations += 1
                admitted = node
                dirty = True
            else:
                state.blacklist.add(node)
            log.append(
                IterationRecord(
                    round_idx, state.psi_upper, state.psi_lower, r_scan, admitted
                )
            )
            continue

        log.append(
            IterationRecord(round_idx, state.psi_upper, state.psi_lower, r_scan, None)
        )
        break

    # The loop leaves only from a round that admitted nothing, so the last
    # table was priced on the final locations, schedule and duals.
    grid_nonneg, stationary = _grid_verification(state, table)
    bound_tight = state.psi_upper <= psi_floor * (1.0 + CERT_REL_TOL) + 1e-300
    certified = (
        exit_reason == EXIT_PRICING_NONNEG and grid_nonneg and stationary and bound_tight
    )
    if certified:
        state.psi_lower = state.psi_upper

    decision = state.decision()
    report = worst_case_expected_energy(graph, decision, params)
    residual = check_constraints(graph, decision, params)
    if residual:  # pragma: no cover - structural guard
        raise RuntimeError(f"solver produced an infeasible decision: {residual[0].detail}")
    return SolveResult(
        decision=decision,
        report=report,
        bounds=Bounds(psi_lower=state.psi_lower, psi_upper=state.psi_upper),
        iterations=state.iterations,
        log=log,
        exit_reason=exit_reason,
        full_grid_nonneg=grid_nonneg,
        optimal_certified=certified,
        epsilon=eps,
    )


def decision_export_dict(result: SolveResult, extra: dict | None = None) -> dict:
    nodes = [
        {
            "id": node,
            "location": result.decision.location[node],
            "slot": result.decision.slot[node],
        }
        for node in sorted(result.decision.location)
    ]
    data = {
        "psi": result.report.psi,
        "psi_lower": result.bounds.psi_lower,
        "psi_upper": result.bounds.psi_upper,
        "epsilon": result.epsilon,
        "iterations": result.iterations,
        "exit_reason": result.exit_reason,
        "optimal_certified": result.optimal_certified,
        "nodes": nodes,
    }
    if extra:
        data.update(extra)
    return data


def write_decision_json(path: str | Path, result: SolveResult, extra: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(decision_export_dict(result, extra), indent=2, sort_keys=True) + "\n"
    )


def write_iteration_log(path: str | Path, log: list[IterationRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "psi_upper", "psi_lower", "r_underbar", "admitted_node"])
        for rec in log:
            writer.writerow(
                [
                    rec.index,
                    repr(rec.psi_upper),
                    repr(rec.psi_lower),
                    repr(rec.r_underbar),
                    "" if rec.admitted_node is None else rec.admitted_node,
                ]
            )
