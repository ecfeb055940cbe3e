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

from hypothesis import given, settings
from hypothesis import strategies as st

from evtoffload.colgen import SolverState
from evtoffload.energy import check_constraints, slot_table, worst_case_expected_energy
from evtoffload.graph import DataEdge, TaskGraph, TaskModule

from conftest import toy_params

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
        for m in modules:
            on_server = server[m.id - 1]
            ready = 0
            for u in graph.parents[m.id]:
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
