"""Incremental column-generation rounds against a from-scratch recompute.

An admission moves one node, and the solve loop then updates only the rows
that node reaches: the margins and dual weights of its edges, its psi terms,
and the windows, transfer energy and slot offsets of its neighbours.  Here
random DAGs go through random sequences of one-node moves: admissions of
client nodes, at a slot of their window or anywhere, and moves of server
nodes back to the client, at any slot.  A move that leaves the schedule
infeasible (by `check_constraints`) is rejected: its margins are compared
with a full update, then it is undone.  After every step each incrementally kept
array is compared with the same array recomputed from scratch on a fresh
state with the same locations and schedule: margins, windows and the
coefficients bit for bit, the duals also against `math.fsum` of the weights,
and psi by `.hex()` against `worst_case_expected_energy`.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evtoffload.colgen import SolverState, _price_all, initial_rmp, solve_rmp
from evtoffload.energy import check_constraints, worst_case_expected_energy
from evtoffload.graph import DataEdge, TaskGraph, TaskModule

from conftest import toy_params


@st.composite
def walks(draw):
    n = draw(st.integers(3, 9))
    modules = [TaskModule(i, draw(st.integers(1, 6))) for i in range(1, n + 1)]
    edges = [
        DataEdge(u, v, draw(st.integers(0, 10**6)))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if draw(st.integers(0, 2)) == 0
    ]
    graph = TaskGraph(modules, edges)
    serial = sum(m.workload_cycles for m in modules)
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=draw(st.sampled_from([1.0, 2.0, 3.0])),
        deadline_slots=serial + draw(st.integers(0, 30)),
        z_up_s=draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
        z_down_s=draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
        theta_up=draw(st.floats(1e-6, 10.0)),
        theta_down=draw(st.floats(1e-6, 10.0)),
    )
    steps = draw(st.lists(
        st.tuples(st.integers(2, n - 1), st.booleans(), st.integers(0, 10**6)),
        min_size=1, max_size=12,
    ))
    return graph, params, steps


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh(state: SolverState) -> SolverState:
    fresh = SolverState(graph=state.graph, params=state.params)
    fresh.on_server[:] = state.on_server
    fresh.schedule[:] = state.schedule
    return fresh


def _check_round(state: SolverState, table) -> None:
    """Compare everything a round leaves behind with a from-scratch round."""
    fresh = _fresh(state)
    psi, duals, _ = solve_rmp(fresh)
    fresh_table = _price_all(fresh)

    assert _same(state.margin, fresh.margin)
    weights = 1.0 / (1.0 + state.margin)
    assert _same(state.duals, duals)
    assert _same(state.duals, weights / math.fsum(weights.tolist()))
    expected = worst_case_expected_energy(state.graph, state.decision(), state.params).psi
    assert state.psi_upper.hex() == psi.hex() == expected.hex()

    ids = state.ids
    assert _same(state.t_min[ids], fresh.t_min[ids])
    assert _same(state.t_max[ids], fresh.t_max[ids])
    for mine, theirs in zip(state.coefficients(), fresh.coefficients()):
        assert _same(mine[ids], theirs[ids])
    for field in ("node", "t_min", "t_max", "slot", "zeta"):
        assert _same(getattr(table, field), getattr(fresh_table, field))


@settings(max_examples=300, deadline=None)
@given(walks())
def test_incremental_rounds_match_a_fresh_recompute(walk):
    graph, params, steps = walk
    state = initial_rmp(graph, params)
    solve_rmp(state)
    table = _price_all(state)
    for node, anywhere, pick in steps:
        prev = bool(state.on_server[node]), int(state.schedule[node])
        if state.on_server[node]:
            state.on_server[node] = False  # back to the client, at any slot
            state.schedule[node] = pick % (params.deadline_slots + 3) - 1
        else:
            state.on_server[node] = True
            where = np.flatnonzero(table.node == node)
            if where.size and not anywhere:
                lo, hi = int(table.t_min[where[0]]), int(table.t_max[where[0]])
                state.schedule[node] = lo + pick % (hi - lo + 1)
            else:
                state.schedule[node] = pick % (params.deadline_slots + 3) - 1
        if check_constraints(graph, state.decision(), params):
            # The incremental margins of an infeasible move still agree with
            # a full update of the same schedule.
            state.update_margins(node)
            reference = _fresh(state)
            reference.update_margins()
            assert _same(state.margin, reference.margin)
            state.on_server[node], state.schedule[node] = prev
        solve_rmp(state, node)
        table = _price_all(state, node)
        _check_round(state, table)
