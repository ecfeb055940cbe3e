"""The array master step against the scalar checker and objective.

On every schedule `check_constraints` finds no violation in, the margins
`SolverState.update_margins` writes must equal each edge's scalar bound
less its transfer slots, and on every state `SolverState.psi` must equal
`worst_case_expected_energy(...).psi` bit for bit.  The states are random
DAGs with random locations (the pinned endpoints on the server included),
random slots (some outside 0..T) and execution and transfer slot counts
that often exceed T + 1, where `SolverState` caps them.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtoffload.colgen import ExactSum, SolverState
from evtoffload.energy import check_constraints, slot_table, worst_case_expected_energy
from evtoffload.graph import DataEdge, TaskGraph, TaskModule

from conftest import graph_views, toy_params

POSITIVE = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def master_states(draw):
    """A random state; half of them are built to be nearly feasible.

    A built schedule places each node after its parents' completions and
    transfers with 0-2 slots of slack, now and then one slot early, and
    takes a deadline near its last slot.  With unit slots a node's slot
    count is its workload over the clock rate, rounded up.
    """
    n = draw(st.integers(2, 8))
    modules = [TaskModule(i, draw(st.integers(0, 60))) for i in range(1, n + 1)]
    edges = [
        DataEdge(u, v, draw(st.integers(0, 10**7)))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if draw(st.booleans())
    ]
    graph = TaskGraph(modules, edges)
    f_c, f_s = draw(st.sampled_from([0.5, 1.0, 3.0])), draw(st.sampled_from([1.0, 2.0, 7.0]))
    z_up, z_down = draw(st.floats(0.5, 90.0)), draw(st.floats(0.5, 90.0))
    server = [draw(st.booleans()) for _ in range(n)]
    if draw(st.booleans()):
        if draw(st.booleans()):
            server[0] = server[-1] = False
        slot: dict[int, int] = {}
        parents = graph_views(graph).parents
        for m in modules:
            on_server = server[m.id - 1]
            ready = 0
            for u in parents[m.id]:
                crossing = server[u - 1] != on_server
                transfer = math.ceil(z_up if on_server else z_down) if crossing else 0
                ready = max(ready, slot[u] + transfer)
            need = math.ceil(m.workload_cycles / (f_s if on_server else f_c))
            nudge = draw(st.sampled_from([0] * 7 + [1]))
            slot[m.id] = ready + need + draw(st.integers(0, 2)) - nudge
        deadline = max(1, max(slot.values()) + draw(st.integers(-1, 3)))
    else:
        deadline = draw(st.integers(1, 40))
        slot = {m.id: draw(st.integers(-2, deadline + 2)) for m in modules}
    params = toy_params(
        f_c_hz=f_c,
        f_s_hz=f_s,
        kappa=draw(POSITIVE),
        deadline_slots=deadline,
        z_up_s=z_up,
        z_down_s=z_down,
        theta_up=draw(POSITIVE),
        theta_down=draw(POSITIVE),
    )
    state = SolverState(graph=graph, params=params)
    for node in range(1, n + 1):
        state.on_server[node] = server[node - 1]
        state.schedule[node] = slot[node]
    return state


@settings(max_examples=300, deadline=None)
@given(master_states())
def test_array_master_matches_scalar_checker(state):
    graph, params = state.graph, state.params
    decision = state.decision()
    if check_constraints(graph, decision, params):
        return
    state.update_margins()
    # A feasible schedule touches no capped count: each margin is exact.
    slots = slot_table(graph, params)
    for i, e in enumerate(graph.edges):
        src_client, dst_client = decision.is_client(e.src), decision.is_client(e.dst)
        required = (
            params.z_up_slots if src_client and not dst_client
            else params.z_down_slots if dst_client and not src_client
            else 0
        )
        bound = (
            decision.slot[e.dst] - decision.slot[e.src]
            - slots.at(e.dst, decision.location[e.dst])
        )
        assert state.margin[i] == bound - required >= 0


@settings(max_examples=300, deadline=None)
@given(master_states())
def test_array_psi_matches_scalar_objective(state):
    expected = worst_case_expected_energy(state.graph, state.decision(), state.params).psi
    assert state.psi().hex() == expected.hex()


@st.composite
def relabelled_dags(draw):
    """DAGs on ids 1..n whose edges follow a drawn topological order, so
    not every edge points up the ids, with the edges listed in a drawn order."""
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    modules = [TaskModule(i, draw(st.integers(1, 9))) for i in range(1, n + 1)]
    edges = [DataEdge(u, v, draw(st.integers(0, 9))) for u, v in draw(st.permutations(pairs))]
    return TaskGraph(modules, edges)


@settings(max_examples=300, deadline=None)
@given(relabelled_dags())
@example(graph=TaskGraph(
    [TaskModule(i, 1) for i in range(1, 5)],
    [DataEdge(1, 3, 1), DataEdge(3, 2, 2), DataEdge(2, 4, 3), DataEdge(1, 2, 4)],
))
def test_incidence_rows_are_the_graph_csr_lists(graph):
    """Each node's incidence rows are its parent CSR entries, then its child
    CSR entries, in the graph's order."""
    state = SolverState(graph, toy_params())
    assert state.ptr[-1] == 2 * len(graph.edges)
    for v in graph.node_ids:
        r, rows = graph.row[v], slice(state.ptr[v], state.ptr[v + 1])
        par = slice(graph.parent_ptr[r], graph.parent_ptr[r + 1])
        chi = slice(graph.child_ptr[r], graph.child_ptr[r + 1])
        parent_edges, child_edges = graph.parent_edge[par], graph.child_edge[chi]
        assert state.inc_edge[rows].tolist() == parent_edges + child_edges
        assert state.inc_other[rows].tolist() == graph.parent_id[par] + graph.child_id[chi]
        assert state.inc_parent[rows].tolist() == [True] * len(parent_edges) + [False] * len(child_edges)
        # v's neighbours' rows, each labelled with the neighbour's place among v's rows.
        span = slice(state.near[v], state.near[v + 1])
        nearby = [(i, row) for i, n in enumerate(state.inc_other[rows].tolist())
                  for row in range(state.ptr[n], state.ptr[n + 1])]
        assert list(zip(state.near_group[span].tolist(), state.near_rows[span].tolist())) == nearby


TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),  # subnormals among them
)


@st.composite
def sum_steps(draw):
    """Terms for an `ExactSum` of `size` rows and the updates that set them.

    Some terms come from one binade with mantissas near its top, where more
    than 1 024 of them sum beyond int64 if their 53-bit integers are not
    split; the rest are drawn terms, spread from 0 through subnormals to
    1e300.  The updates fill every row at once (the bulk path), set a subset
    of more than 64 rows, then set single rows in random order (the scalar
    path).
    """
    size = draw(st.integers(1, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    binade = np.ldexp(1.0 - rng.integers(1, 1 << 20, 2 * size) * 2.0**-53, draw(st.integers(-1074, 996)))
    drawn = np.array(draw(st.lists(TERMS, min_size=1, max_size=30)))
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    terms = np.where(rng.random(2 * size) < share, binade, rng.choice(drawn, 2 * size))
    subset = rng.permutation(size)[:draw(st.integers(65, max(65, size)))]
    singles = rng.permutation(size)[:draw(st.integers(0, 60))]
    return size, [
        (np.arange(size), terms[:size]),
        (subset, terms[size:size + len(subset)]),
        *((slice(row, row + 1), terms[-1 - i:][:1]) for i, row in enumerate(singles.tolist())),
    ]


@settings(max_examples=150, deadline=None)
@given(sum_steps())
def test_exact_sum_is_the_fsum_of_its_terms(steps):
    size, updates = steps
    total = ExactSum(size)
    for rows, new in updates:
        total.update(rows, new)
        assert total.value().hex() == math.fsum(total.terms.tolist()).hex()
