"""Batched pricing against a scalar reference, bit for bit.

The reference below is the scalar form of the pricing step: the window from
loops over the parents and children of the candidate, the zeta coefficients
accumulated one edge at a time, and the endpoint the slope's sign picks -
t_max when the child dual sum is below the parent one, t_min otherwise -
with zeta evaluated there.  The batched pricing must agree exactly,
including on zero slopes (equal parent and child dual sums, which take
t_min) and on slopes that are zero only up to rounding (0.1 + 0.2 against
0.3).
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evtoffload.colgen import SolverState, _price_all
from evtoffload.energy import CLIENT, slot_table
from evtoffload.graph import DataEdge, TaskGraph, TaskModule

from conftest import graph_views, toy_params

# Dyadic values make exactly equal parent and child sums common; the decimal
# ones give sums that differ from each other only by rounding.
DUALS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.1, 0.2, 0.3, 0.7]),
    st.floats(0.0, 1.0, allow_nan=False),
)


def reference(node, state):
    """(slot, zeta) of the scalar pricing step, or None for an empty window."""
    graph, params = state.graph, state.params
    slots = slot_table(graph, params)
    decision = state.decision()
    schedule, location = decision.slot, decision.location
    views = graph_views(graph)
    duals = dict(zip(views.bits, state.duals.tolist()))
    exec_server = slots.server[node]
    t_min = 0
    for parent in views.parents[node]:
        transfer = params.z_up_slots if location[parent] == CLIENT else 0
        t_min = max(t_min, schedule[parent] + transfer)
    t_min = max(t_min + exec_server, 1)
    t_max = params.deadline_slots
    for child in views.children[node]:
        loc = location[child]
        transfer = params.z_down_slots if loc == CLIENT else 0
        t_max = min(t_max, schedule[child] - transfer - slots.at(child, loc))
    if t_min > t_max:
        return None

    transfer = par_sum = par_off = chi_sum = chi_off = 0.0
    for parent in views.parents[node]:
        if location[parent] == CLIENT:
            transfer += views.bits[(parent, node)] * params.theta_up
        pi = duals.get((parent, node), 0.0)
        par_sum += pi
        par_off += pi * (schedule[parent] + exec_server)
    for child in views.children[node]:
        loc = location[child]
        if loc == CLIENT:
            transfer += views.bits[(node, child)] * params.theta_down
        pi = duals.get((node, child), 0.0)
        chi_sum += pi
        chi_off += pi * (schedule[child] - slots.at(child, loc))
    t = t_min if chi_sum - par_sum >= 0.0 else t_max
    return t, transfer - (par_sum * float(t) - par_off) - (chi_off - chi_sum * float(t))


@st.composite
def priced_states(draw):
    n = draw(st.integers(3, 8))
    modules = [TaskModule(i, draw(st.integers(1, 6))) for i in range(1, n + 1)]
    edges = [
        DataEdge(u, v, draw(st.integers(0, 10**6)))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if draw(st.booleans())
    ]
    graph = TaskGraph(modules, edges)
    deadline = draw(st.integers(5, 5000))
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        deadline_slots=deadline,
        z_up_s=float(draw(st.integers(0, 4)) or 0.5),
        z_down_s=float(draw(st.integers(0, 4)) or 0.5),
        theta_up=draw(st.floats(1e-6, 10.0)),
        theta_down=draw(st.floats(1e-6, 10.0)),
    )
    state = SolverState(graph=graph, params=params)
    for m in modules:
        state.schedule[m.id] = draw(st.integers(0, deadline))
    for v in range(2, n):
        state.on_server[v] = draw(st.booleans())
    shared = draw(DUALS)
    tie = draw(st.booleans())
    state.duals = np.array([shared if tie else draw(DUALS) for _ in edges], dtype=float)
    return state


@settings(max_examples=300, deadline=None)
@given(priced_states())
def test_batched_pricing_matches_scalar_reference(state):
    table = _price_all(state)
    priced = {
        int(node): (int(slot), float(zeta))
        for node, slot, zeta in zip(table.node, table.slot, table.zeta)
    }
    for node in range(2, state.graph.n_nodes):
        if state.on_server[node]:
            assert node not in priced
            continue
        expected = reference(node, state)
        alone = state.price([node])
        if expected is None:
            assert node not in priced
            assert alone.node.size == 0
            continue
        slot, zeta = priced[node]
        assert (slot, zeta.hex()) == (expected[0], expected[1].hex())
        assert (int(alone.slot[0]), float(alone.zeta[0])) == (slot, zeta)
        assert state.t_min[node] <= slot <= state.t_max[node]
