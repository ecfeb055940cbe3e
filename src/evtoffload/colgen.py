"""Column-generation solver for the offloading problem.

The restricted master fixes execution locations and completion slots, so
upper bounds come from re-evaluating the energy objective.  The schedule
starts from the serial all-local assignment (the all-local
earliest-completion one when the serial one misses the deadline), which is
feasible by construction, and is updated incrementally: an admitted column
places its node at the completion slot chosen by pricing and leaves every
other slot untouched, which is what preserves the slack the pricing windows
need.

One object, `SolverState`, holds a solve: an on-server mask, the schedule
and the blacklist, indexed by node id, the dual price of each edge, the
bounds, and the edge and round arrays derived from them.  It becomes an
`OffloadDecision` once, at exit, where the scalar `check_constraints` and
`worst_case_expected_energy` guard the returned decision; that is the one
feasibility check of a solve.  Each master step brings up to date every
edge's margin - its slots beyond its transfer and its head's execution -
and psi, the correctly rounded sum of the `slot_table` energy terms under the
location mask, bit for bit the value `worst_case_expected_energy` gives
from the same terms.

Rounds are incremental.  An admission moves one node v, which changes
only the margins and dual weights of v's edges, v's psi terms, and the
windows, transfer energy and slot offsets of v's neighbours.  The state
keeps all of these from round to round and each round recomputes just
those rows, by the same functions that compute every row of a fresh
state; one incidence index, laid out from the graph's CSR lists, finds v's
edges, and a list of each node's neighbours' rows finds theirs.  psi and
the dual normalisation are exact running sums (`ExactSum`, integers in
units of 2**-1074) that read out what `math.fsum` of all the terms gives: a
fresh state fills them in bulk with numpy, a round adds its few changed
terms one at a time.  Only the dual-weighted pricing sums, which the
normalisation changes everywhere, and each node's slot and zeta are redone
in full every round, element-wise over the arrays indexed by node id.

Dual prices are tightness weights: each dependency edge is priced
1/(1 + margin) of the current schedule, normalized to sum 1.  The master is
always feasible, and the exact LP duals of a feasible master are all zero,
so these weights are what steers pricing.

Pricing follows the reduced-cost form

    zeta_n = sum_m c_m o_mn theta_u + sum_k c_k o_nk theta_d
             - sum_m pi_mn b_mn - sum_k pi_nk b_nk

which is affine in the completion slot t of the candidate.  Every round
prices all candidates in one vectorised pass over the same edge arrays:
windows and coefficients come from per-node reductions over the incidence
index, with each coefficient summed in the same order as a scalar loop.  The
slot is read off the sign of the slope: the window's last slot when zeta
falls, its first otherwise, so a flat zeta (equal parent and child dual
sums) takes the smallest slot.  That costs the same whatever the window's
length.  A column is admitted only if it strictly lowers
psi (`SolverState.delta`); otherwise it is blacklisted for later rounds.  The
admitted slot lies in the node's window, which keeps every edge at the node,
the slot range and source execution satisfied, and no other row moves, so
every schedule the loop holds is feasible and no round re-checks it.

Bound bookkeeping: the log's r_underbar is the pricing value of each
round, but psi_lower is held at a provable floor on psi
(`attribution_lower_bound`) because the textbook update psi_upper + K *
r_underbar can overshoot the true optimum.  The ratio exit reads epsilon
from `params`.  A nonnegative-pricing exit is labelled optimal only when
psi_upper, the energy of a feasible decision, meets the floor, which is
below every decision's energy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .energy import (
    CLIENT,
    SERVER,
    InfeasibleError,
    IterationRecord,
    OffloadDecision,
    SolveResult,
    SystemParams,
    check_constraints,
    slot_table,
    worst_case_expected_energy,
)
from .graph import TaskGraph, check_graph, topological_order
from .lazy import lazy_numpy
from .oracle import earliest_completion

np = lazy_numpy()

CERT_REL_TOL = 1e-12

EXIT_NO_COLUMN = "no_column"
EXIT_PRICING_NONNEG = "pricing_nonneg"
EXIT_RATIO = "ratio"


@dataclass
class PricedColumn:
    node: int
    reduced_cost: float
    slot: int


@dataclass(frozen=True)
class PricingTable:
    """Priced candidates of one round, ascending by node id.

    Holds every candidate with a nonempty window: its slot, the window end
    where zeta is least, and zeta at that slot.
    """

    node: np.ndarray
    slot: np.ndarray
    zeta: np.ndarray

    def best(self, blacklist: np.ndarray) -> PricedColumn | None:
        """Column selection: the most negative zeta outside the blacklist (a
        boolean mask by node id), ties to the smallest id; None when no
        candidate is left."""
        open_idx = np.flatnonzero(~blacklist[self.node])
        if not open_idx.size:
            return None
        i = open_idx[np.argmin(self.zeta[open_idx])]
        return PricedColumn(int(self.node[i]), float(self.zeta[i]), int(self.slot[i]))


# 2**-1074 is the least positive double: every finite double is a multiple.
_SUM_SHIFT = 1074
# An update of more rows than this is summed in bulk; below it the loop over
# the terms is quicker than the bulk sum's dozen numpy calls.
_BULK_ROWS = 64


class ExactSum:
    """An array of finite float terms and their sum, kept exactly.

    The sum is held as an integer number of 2**-1074 units and `value`
    rounds it once, so it reads the correctly rounded sum `math.fsum` gives
    for the same terms, whatever the order of the updates.  The terms summed
    here are finite and their total is too: `slot_table` rejects energy
    terms whose total is not.
    """

    def __init__(self, size: int):
        self.terms = np.zeros(size)
        self.scaled = 0

    def update(self, rows, new: np.ndarray) -> None:
        """Set `terms[rows] = new`: the sum loses the old terms, gains the new."""
        old = self.terms[rows]
        if len(old) > _BULK_ROWS:
            self.scaled += _bulk_scaled(np.concatenate([new, -old]))
        else:
            self.scaled += _scaled(new.tolist()) - _scaled(old.tolist())
        self.terms[rows] = new

    def value(self) -> float:
        return self.scaled / (1 << _SUM_SHIFT)


def _scaled(terms) -> int:
    """The exact sum of float `terms` in 2**-1074 units, term by term."""
    scaled = 0
    for term in filter(None, terms):  # zeros add nothing
        n, d = term.as_integer_ratio()
        scaled += n << (_SUM_SHIFT + 1 - d.bit_length())
    return scaled


def _bulk_scaled(terms: np.ndarray) -> int:
    """`_scaled(terms)` without a Python loop over the terms.

    A term of binary exponent e is an integer m, |m| < 2**53, times 2**s
    units, s = max(e + 1021, 0), and `ldexp` gives m exactly.  The 26-bit
    halves of m are summed per s by `bincount`, exactly for fewer than 2**26
    terms (float64 holds every integer below 2**53), then shifted once per s.
    """
    shift = np.maximum(np.frexp(terms)[1] + (_SUM_SHIFT - 53), 0)
    whole = np.ldexp(terms, _SUM_SHIFT - shift).astype(np.int64)
    high = np.bincount(shift, weights=whole >> 26)
    low = np.bincount(shift, weights=whole & ((1 << 26) - 1))
    at = np.flatnonzero(high * (1 << 26) + low)  # rounds to 0 only where it is 0
    return sum(((int(h) << 26) + int(lo)) << s for s, h, lo in zip(at.tolist(), high[at].tolist(), low[at].tolist()))


class SolverState:
    """The state of one solve: locations, schedule, prices and bounds, with
    the edge and round arrays derived from them.

    `on_server`, `blacklist` (boolean masks) and `schedule` (completion
    slots) are indexed by node id, `duals` by edge in `graph.edges` order.
    A new state is all-local at slot 0 with zero prices.  Node-indexed
    arrays have length N + 1, so ids must be 1..N.  Tables with a leading
    location axis (0 client, 1 server) are read with the location of a node,
    so one lookup replaces a select.

    The incidence index holds one row per edge end: each node's parent
    CSR entries, then its child CSR entries, in the graph's order (each
    group by the id at the other end).  `np.bincount` adds in input order,
    so each coefficient is summed exactly as a scalar loop over the node's
    CSR lists would.  `ptr[v]:ptr[v + 1]` are the rows of node v;
    `near_rows[near[v]:near[v + 1]]` are its neighbours' rows, neighbour by
    neighbour, and `near_group` the neighbour's place among v's rows.

    The round arrays - edge margins and dual weights, the psi terms, and
    each node's window, transfer energy and slot offsets - are kept from one
    round to the next.  Each update takes `moved`, the one node whose
    location or slot changed since the previous update of the same arrays,
    and recomputes only the rows that node reaches; `moved=None` recomputes
    every row, which is what a state built or edited by hand needs.

    Energy terms are read from the state's arrays only: `delta(node)`, a
    move's psi change, sums the row table `row_delta` on demand, and
    `attribution_lower_bound(state)` takes the floor from the energy arrays.
    """

    def __init__(self, graph: TaskGraph, params: SystemParams):
        self.graph, self.params = graph, params
        self.psi_upper, self.psi_lower = math.inf, 0.0
        self.node_ids = ids = graph.node_ids
        self.ids = np.array(ids, dtype=np.int64)
        self.size = size = max(ids, default=0) + 1
        self.interior = np.sort(self.ids[(self.ids > 1) & (self.ids < graph.n_nodes)])  # `interior_ids()`
        self.src = np.array(graph.edge_src, dtype=np.int64)
        self.dst = np.array(graph.edge_dst, dtype=np.int64)
        n_edges = len(self.src)
        self.all_edges, self.all_nodes = np.arange(n_edges), np.arange(size)

        self.on_server = np.zeros(size, dtype=bool)
        self.blacklist = np.zeros(size, dtype=bool)
        self.schedule = np.zeros(size, dtype=np.int64)
        self.duals = np.zeros(n_edges)

        # The energy terms of the slot table, the ones psi sums, by location:
        # a node's local term when it is on the client, an edge's uplink
        # (downlink) term when it crosses from the client (server).  Index 0
        # of the node axis is no node.
        slots = slot_table(graph, params)
        self.local_energy = np.zeros((2, size))
        self.local_energy[0, self.ids] = list(map(slots.local.__getitem__, ids))
        self.up_energy = np.zeros((2, 2, n_edges))
        self.up_energy[0, 1] = slots.up
        self.down_energy = np.zeros((2, 2, n_edges))
        self.down_energy[1, 0] = slots.down

        # A slot count beyond T + 1 empties every window and fails every
        # schedule exactly as T + 1 does; the cap keeps int64 arithmetic
        # exact.  The counts are capped as Python ints, in one object array.
        cap = params.deadline_slots + 1
        self.exec_slots = np.zeros((2, size), dtype=np.int64)
        self.exec_slots[:, self.ids] = np.minimum(
            np.array([list(map(side.__getitem__, ids)) for side in (slots.client, slots.server)], dtype=object), cap
        )
        self.transfer_slots = np.array(
            [[min(params.transfer_slots(a, b), cap) for b in (CLIENT, SERVER)] for a in (CLIENT, SERVER)],
            dtype=np.int64,
        )
        z_up, z_down = self.transfer_slots[0, 1], self.transfer_slots[1, 0]

        # The incidence rows are the graph's CSR entries, interleaved by
        # node: graph row r's parent entry j lands at j + cp[r] and its child
        # entry j at j + pp[r + 1], so each node's parents come first.
        pp, cp = np.array(graph.parent_ptr, dtype=np.int64), np.array(graph.child_ptr, dtype=np.int64)
        at = np.concatenate([np.arange(pp[-1]) + np.repeat(cp[:-1], np.diff(pp)),
                             np.arange(cp[-1]) + np.repeat(pp[1:], np.diff(cp))])
        order = np.empty_like(at)
        order[at] = np.arange(len(at))
        self.inc_parent = up = order < pp[-1]
        self.inc_edge = inc_edge = np.array(graph.parent_edge + graph.child_edge, dtype=np.int64)[order]
        self.inc_node = inc_node = np.where(up, self.dst[inc_edge], self.src[inc_edge])
        self.inc_other = other = np.where(up, self.src[inc_edge], self.dst[inc_edge])
        self.ptr = ptr = np.searchsorted(inc_node, np.arange(size + 1))
        self.all_rows = np.arange(len(order))
        self.par_rows, self.chi_rows = np.flatnonzero(up), np.flatnonzero(~up)
        self.par_node, self.par_edge = inc_node[self.par_rows], inc_edge[self.par_rows]
        self.chi_node, self.chi_edge = inc_node[self.chi_rows], inc_edge[self.chi_rows]
        count = np.diff(ptr)[other]  # rows of each row's neighbour
        start = np.concatenate([[0], np.cumsum(count)])
        self.near = start[ptr]
        self.near_rows = np.arange(start[-1]) + np.repeat(ptr[other] - start[:-1], count)
        self.near_group = np.repeat(self.all_rows - ptr[inc_node], count)

        # Per row, by the location of the row's other node.  The offset
        # base[r] = sched[other] - row_head: the slot after which the node's
        # server execution may start (parent rows), or the child's start
        # (child rows).  base + row_shift is the window bound the row sets:
        # it adds the uplink from a client parent and takes off the downlink
        # to a client child.  row_energy is the transfer energy the move
        # adds: the edge's, when the other node is on the client.  row_delta
        # is the move's change of the edge's psi term: that, or minus the
        # edge's transfer the move removes when the other node is on the
        # server.
        self.row_head = np.where(up, -self.exec_slots[1, inc_node], self.exec_slots[:, other])
        self.row_shift = np.where(up, [[z_up], [0]], [[-z_down], [0]])
        up_term, down_term = self.up_energy[0, 1, inc_edge], self.down_energy[1, 0, inc_edge]
        self.row_energy = np.zeros((2, len(order)))
        self.row_energy[0] = np.where(up, up_term, down_term)
        self.row_delta = np.stack([self.row_energy[0], -np.where(up, down_term, up_term)])
        self.t_floor = np.maximum(self.exec_slots[1], 1)

        self.margin = np.zeros(n_edges, dtype=np.int64)
        self.weight = ExactSum(n_edges)
        self.local, self.up, self.down = ExactSum(size), ExactSum(n_edges), ExactSum(n_edges)
        self.t_min = self.t_floor.copy()
        self.t_max = np.full(size, params.deadline_slots, dtype=np.int64)
        self.tr = np.zeros(size)
        self.offset_base = np.zeros(len(order), dtype=np.int64)

    def decision(self) -> OffloadDecision:
        server = self.on_server[self.ids].tolist()
        return OffloadDecision(
            location={n: SERVER if s else CLIENT for n, s in zip(self.node_ids, server)},
            slot=dict(zip(self.node_ids, self.schedule[self.ids].tolist())),
        )

    def edges_at(self, moved: int | None) -> np.ndarray:
        """The edges a move of `moved` changes: its own, or all for None."""
        if moved is None:
            return self.all_edges
        return self.inc_edge[self.ptr[moved]:self.ptr[moved + 1]]

    def update_margins(self, moved: int | None = None) -> None:
        """Bring the margins of the edges at `moved` (all for None) up to date.

        An edge's margin is the slots of its gap beyond its transfer and its
        head's execution; on a schedule `check_constraints` passes, every
        margin is >= 0 and is that edge's slack.
        """
        loc, sched = self.on_server.view(np.uint8), self.schedule
        edges = self.edges_at(moved)
        src, dst = self.src[edges], self.dst[edges]
        to = loc[dst]
        self.margin[edges] = (
            sched[dst] - sched[src]
            - self.transfer_slots[loc[src], to] - self.exec_slots[to, dst]
        )

    def psi(self, moved: int | None = None) -> float:
        """`worst_case_expected_energy(...).psi` of the locations, bit for bit.

        Each part is the correctly rounded sum of its terms, as `math.fsum`
        gives it; the parts are added in the same order.
        """
        loc = self.on_server.view(np.uint8)
        nodes = self.ids if moved is None else self.all_nodes[moved:moved + 1]
        edges = self.edges_at(moved)
        s, d = loc[self.src[edges]], loc[self.dst[edges]]
        self.local.update(nodes, self.local_energy[loc[nodes], nodes])
        self.up.update(edges, self.up_energy[s, d, edges])
        self.down.update(edges, self.down_energy[s, d, edges])
        return self.local.value() + self.up.value() + self.down.value()

    def delta(self, node: int) -> float:
        """Exact psi change from relocating `node` to the server: minus its
        local term, then its row terms one at a time in row order, which is
        the order, and so the value, of a walk over its parents and children."""
        rows = self.all_rows[self.ptr[node]:self.ptr[node + 1]]
        loc = self.on_server.view(np.uint8)[self.inc_other[rows]]
        change = -float(self.local_energy[0, node])
        for term in self.row_delta[loc, rows].tolist():
            change += term
        return change

    def refresh(self, moved: int | None = None) -> None:
        """Bring each node's window, transfer energy and offsets up to date.

        A node's rows read only its neighbours' locations and slots, so a
        move of `moved` changes the rows of its neighbours alone.  The window
        (t_min, t_max) holds every slot that keeps all constraints touching
        the node satisfied with the rest of the schedule unchanged; t_min >
        t_max marks an empty window.  Each row reduces into its node's place
        in `nodes` (`group`), so every array the update makes is that long.
        """
        if moved is None:
            nodes, rows, group = self.all_nodes, self.all_rows, self.inc_node
        else:
            nodes = self.inc_other[self.ptr[moved]:self.ptr[moved + 1]]
            span = slice(self.near[moved], self.near[moved + 1])
            rows, group = self.near_rows[span], self.near_group[span]
        other, up, deadline = self.inc_other[rows], self.inc_parent[rows], self.params.deadline_slots
        loc = self.on_server.view(np.uint8)[other]
        base = self.schedule[other] - self.row_head[loc, rows]
        self.offset_base[rows] = base
        bound = base + self.row_shift[loc, rows]
        t_min, t_max = self.t_floor[nodes], np.full(len(nodes), deadline)
        np.maximum.at(t_min, group, bound * up)
        np.minimum.at(t_max, group, np.where(up, deadline, bound))
        self.t_min[nodes], self.t_max[nodes] = t_min, t_max
        self.tr[nodes] = np.bincount(group, weights=self.row_energy[loc, rows], minlength=len(nodes))

    def coefficients(self):
        """(tr, ps, po, cs, co) by node id, zeta(t) = `_zeta(tr, ps, po, cs, co, t)`.

        tr is the transfer energy the move adds, ps/po the dual sum and
        offset of the parent rows, cs/co those of the child rows; the dual
        terms change with every round's normalisation and are summed anew.
        """
        base = self.offset_base
        price_up, price_down = self.duals[self.par_edge], self.duals[self.chi_edge]
        return (
            self.tr,
            np.bincount(self.par_node, weights=price_up, minlength=self.size),
            np.bincount(self.par_node, weights=price_up * base[self.par_rows], minlength=self.size),
            np.bincount(self.chi_node, weights=price_down, minlength=self.size),
            np.bincount(self.chi_node, weights=price_down * base[self.chi_rows], minlength=self.size),
        )

    def price(self, nodes, moved: int | None = None) -> PricingTable:
        """Slot and zeta of each of `nodes` (ascending ids) with a nonempty window."""
        self.refresh(moved)
        # Slot and zeta of every id, element by element, then one gather.
        tr, ps, po, cs, co = self.coefficients()
        slot = np.where(cs - ps >= 0.0, self.t_min, self.t_max)
        zeta = _zeta(tr, ps, po, cs, co, slot.astype(float))
        nodes = np.asarray(nodes, dtype=np.int64)
        nodes = nodes[self.t_min[nodes] <= self.t_max[nodes]]
        return PricingTable(nodes, slot[nodes], zeta[nodes])


def _zeta(tr, ps, po, cs, co, t):
    # zeta(t) = transfer - sum_m pi (t - slot_m - Es) - sum_k pi (slot_k - t - Ek)
    return tr - (ps * t - po) - (co - cs * t)


def initial_rmp(graph: TaskGraph, params: SystemParams) -> SolverState:
    """All-local starting state with the serial one-module-at-a-time
    schedule, after its first master step (`solve_rmp`).

    Serializing the whole application is what leaves slack between
    independent branches for later pricing windows.  When the serial
    schedule misses the deadline, the all-local earliest-completion
    schedule is the start instead, if it meets the deadline.
    """
    slots = slot_table(graph, params)
    order = topological_order(graph)
    total = sum(slots.client[n] for n in order)
    if total <= params.deadline_slots:
        schedule = dict(zip(order, itertools.accumulate(slots.client[n] for n in order)))
    else:
        local = earliest_completion(graph, dict.fromkeys(graph.node_ids, CLIENT), params)
        if not local.feasible:
            raise InfeasibleError(
                f"deadline too tight for local execution "
                f"({max(local.slots.values())} > {params.deadline_slots} slots)"
            )
        schedule = local.slots
    state = SolverState(graph, params)
    # Every slot is within the deadline, so it fits in int64.
    state.schedule[list(schedule)] = list(schedule.values())
    solve_rmp(state)
    return state


def tightness_duals(state: SolverState, moved: int | None = None) -> np.ndarray:
    """Prices 1/(1 + slack) per dependency edge, normalized to sum 1.

    The slacks are the margins of the last master step; only the weights of
    the edges at `moved` (all for None) are recomputed.  The sum is exact,
    so it is the `math.fsum` of the weights.
    """
    edges = state.edges_at(moved)
    state.weight.update(edges, 1.0 / (1.0 + state.margin[edges]))
    return state.weight.terms / state.weight.value()


def solve_rmp(state: SolverState, moved: int | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """Master step on a feasible schedule: refresh the margins, bound and duals.

    Returns (psi_upper, duals, schedule).  `moved` names the one node whose
    location or slot changed since the previous call; only the rows it
    reaches are recomputed.  None recomputes everything.
    """
    state.update_margins(moved)
    state.psi_upper = state.psi(moved)
    state.duals = tightness_duals(state, moved)
    return state.psi_upper, state.duals, state.schedule


def _price_all(state: SolverState, moved: int | None = None) -> PricingTable:
    """Price every interior client node, blacklisted ones included.

    `moved` names the one node moved since the previous call (None: any).
    """
    interior = state.interior
    return state.price(interior[~state.on_server[interior]], moved)


def attribution_lower_bound(state: SolverState) -> float:
    """Provable lower bound on psi over all assignments, deadline ignored.

    Charge each node the cheaper of running locally or the transfer cost it
    can never avoid when offloaded: traffic from the (always local) entry
    node and to the (always local) final node.  Every assignment pays at
    least this much, so the bound is safe to clamp psi_lower with.  The
    terms come from the state's energy arrays; node ids must be 1..N.
    """
    n_last = state.size - 1
    from_entry, to_exit = state.src == 1, state.dst == n_last
    pinned = np.zeros(state.size)
    pinned[state.dst[from_entry]] = state.up_energy[0, 1, from_entry]
    pinned[state.src[to_exit]] += state.down_energy[1, 0, to_exit]
    pinned[[1, n_last]] = math.inf  # the entry and final nodes run locally
    return math.fsum(np.minimum(state.local_energy[0], pinned)[state.ids].tolist())


def solve(graph: TaskGraph, params: SystemParams) -> SolveResult:
    """Run the `params.epsilon`-bounded column-generation loop.

    Each round: refresh the master's margins, bound and duals, price one
    column, update the bound pair, test the three exit conditions, then
    either admit the column at its chosen slot or blacklist it.  At most
    N - 2 admissions can ever happen, so the loop terminates.
    """
    check_graph(graph)
    state = initial_rmp(graph, params)
    psi_floor = attribution_lower_bound(state)
    log: list[IterationRecord] = []
    exit_reason: str | None = None
    # The node admitted since the last priced round, and that round's table
    # (None: reprice).  The first round prices the master step of `initial_rmp`.
    moved: int | None = None
    table: PricingTable | None = _price_all(state)
    round_idx = 0
    max_rounds = 2 * graph.n_nodes + 8

    while exit_reason is None:
        round_idx += 1
        if round_idx > max_rounds:  # pragma: no cover - structural guard
            raise RuntimeError("column generation failed to terminate")
        if table is None:
            # Only the rows the admitted node reaches are recomputed.
            solve_rmp(state, moved)
            table = _price_all(state, moved)

        column = table.best(state.blacklist)
        r_price = 0.0 if column is None else column.reduced_cost

        # The pricing value is logged as r_underbar, but the lower
        # bound comes from the provable combinatorial floor: the heuristic
        # psi_upper + K*r_underbar can overshoot the true optimum, which
        # would break the bound sandwich.
        state.psi_lower = max(0.0, min(psi_floor, state.psi_upper))

        admitted: int | None = None
        if column is None:
            exit_reason = EXIT_NO_COLUMN
        elif r_price >= 0.0:
            exit_reason = EXIT_PRICING_NONNEG
        elif state.psi_upper <= (1.0 + params.epsilon) * state.psi_lower:
            exit_reason = EXIT_RATIO
        elif state.delta(column.node) < 0.0:
            admitted = moved = column.node
            state.on_server[admitted] = True
            state.schedule[admitted] = column.slot
            table = None
        else:
            state.blacklist[column.node] = True
        log.append(IterationRecord(round_idx, state.psi_upper, state.psi_lower, r_price, admitted))

    certified = (
        exit_reason == EXIT_PRICING_NONNEG
        and state.psi_upper <= psi_floor * (1.0 + CERT_REL_TOL) + 1e-300
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
        psi_lower=state.psi_lower,
        log=log,
        exit_reason=exit_reason,
        optimal_certified=certified,
        epsilon=params.epsilon,
    )

