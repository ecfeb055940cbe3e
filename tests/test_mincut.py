"""The exact min cut behind `solve --policy auto`, against brute force.

The chain and fan cases keep the graphs and expected values the closed-form
chain-window and fan-threshold policies were tested with: on a chain the
cut is the best contiguous offload window, on a fan it is the per-node
threshold rule.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtoffload import colgen, mincut
from evtoffload.energy import (
    CLIENT, SERVER, InfeasibleError, check_constraints, worst_case_expected_energy,
)
from evtoffload.graph import DataEdge, TaskGraph, TaskModule
from evtoffload.oracle import brute_force_optimum, earliest_completion

from conftest import chain_graph, fan_graph, toy_params


def _random_chain(rng, n=None):
    n = n or int(rng.integers(4, 11))
    workloads = [int(rng.integers(1, 20)) for _ in range(n)]
    bits = [int(rng.integers(1, 60)) for _ in range(n - 1)]
    return chain_graph(workloads, bits)


def _random_fan(rng, n=None):
    n = n or int(rng.integers(4, 11))
    workloads = [int(rng.integers(1, 20)) for _ in range(n)]
    bits_in = [int(rng.integers(1, 60)) for _ in range(n - 2)]
    bits_out = [int(rng.integers(1, 60)) for _ in range(n - 2)]
    return fan_graph(workloads, bits_in, bits_out)


def _loose_params(rng, graph):
    """Random energy scales with a deadline far beyond any schedule."""
    total_exec = sum(m.workload_cycles for m in graph.modules)
    return toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=float(rng.uniform(0.05, 2.0)),
        theta_up=float(rng.uniform(0.01, 0.6)),
        theta_down=float(rng.uniform(0.01, 0.6)),
        z_up_s=float(rng.integers(1, 4)),
        z_down_s=float(rng.integers(1, 3)),
        deadline_slots=10 * total_exec + 200,
    )


def _exact_psi(graph, server, params) -> Fraction:
    """psi of an assignment in exact rationals, from the same float terms."""
    coef = params.kappa * params.f_c_hz * params.f_c_hz
    psi = sum(Fraction(coef * m.workload_cycles) for m in graph.modules if m.id not in server)
    for e in graph.edges:
        if e.src not in server and e.dst in server:
            psi += Fraction(e.bits * params.theta_up)
        elif e.src in server and e.dst not in server:
            psi += Fraction(e.bits * params.theta_down)
    return psi


def test_chain_all_local_when_transfers_dominate():
    graph = chain_graph([1, 2, 2, 1], [10, 10, 10])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=100.0, theta_down=100.0)
    result = mincut.solve(graph, params)
    assert result.decision.server_set() == set()
    assert result.exit_reason == mincut.EXIT_MINCUT


def test_chain_window_is_contiguous_and_feasible():
    rng = np.random.default_rng(0)
    for _ in range(20):
        graph = _random_chain(rng)
        params = _loose_params(rng, graph)
        decision = mincut.solve(graph, params).decision
        server = sorted(decision.server_set())
        if server:
            assert server == list(range(server[0], server[-1] + 1))
        assert check_constraints(graph, decision, params) == []


@pytest.mark.parametrize("seed", range(30))
def test_chain_matches_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    graph = _random_chain(rng)
    params = _loose_params(rng, graph)
    decision = mincut.solve(graph, params).decision
    psi = worst_case_expected_energy(graph, decision, params).psi
    oracle = brute_force_optimum(graph, params)
    assert psi == pytest.approx(oracle.psi_star, rel=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_oracle_chain_optimum_is_contiguous(seed):
    rng = np.random.default_rng(2000 + seed)
    graph = _random_chain(rng)
    params = _loose_params(rng, graph)
    server = sorted(brute_force_optimum(graph, params).decision.server_set())
    if server:
        assert server == list(range(server[0], server[-1] + 1))


def test_fan_threshold_example():
    # kappa = f_c = 1, omega = 10, o_in = o_out = 1, theta = 1: 10 > 2.
    graph = fan_graph([1, 10, 1], [1], [1])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=1.0, theta_down=1.0)
    assert mincut.solve(graph, params).decision.server_set() == {2}


def test_fan_all_below_threshold_stays_local():
    graph = fan_graph([1, 2, 2, 1], [50, 50], [50, 50])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=1.0, theta_down=1.0)
    assert mincut.solve(graph, params).decision.server_set() == set()


def test_exact_tie_stays_local():
    # Local energy 2 equals the transfer 1 + 1: the largest source side keeps
    # node 2 on the client, as the oracle's smallest-bitmask rule does.  The
    # cut value is the whole psi, the local energy of nodes 1 and 3 included.
    graph = fan_graph([1, 2, 1], [1], [1])
    params = toy_params(f_c_hz=1.0, kappa=1.0, theta_up=1.0, theta_down=1.0)
    assert mincut.min_cut(graph, params) == ([], 4, 1)
    assert brute_force_optimum(graph, params).decision.server_set() == set()


@pytest.mark.parametrize("seed", range(30))
def test_fan_matches_oracle(seed):
    rng = np.random.default_rng(3000 + seed)
    graph = _random_fan(rng)
    params = _loose_params(rng, graph)
    decision = mincut.solve(graph, params).decision
    psi = worst_case_expected_energy(graph, decision, params).psi
    oracle = brute_force_optimum(graph, params)
    assert decision.location == oracle.decision.location
    assert psi == pytest.approx(oracle.psi_star, rel=1e-12)
    assert check_constraints(graph, decision, params) == []


def test_fan_cut_is_the_threshold_rule():
    rng = np.random.default_rng(7)
    for _ in range(30):
        graph = _random_fan(rng)
        params = _loose_params(rng, graph)
        n = graph.n_nodes
        coef = params.kappa * params.f_c_hz * params.f_c_hz
        threshold = {
            v for v in graph.interior_ids()
            if Fraction(coef * graph.workload(v))
            > Fraction(graph.bits(1, v) * params.theta_up) + Fraction(graph.bits(v, n) * params.theta_down)
        }
        assert set(mincut.min_cut(graph, params)[0]) == threshold


def test_fan_falls_back_to_cg_under_tight_deadline():
    # The cut wants both interiors on the server, but the deadline only
    # allows the all-local serial schedule: the fallback must still return
    # a feasible decision, bounded below by the cut.
    graph = fan_graph([1, 30, 30, 1], [1, 1], [1, 1])
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        theta_up=0.001,
        theta_down=0.001,
        z_up_s=40.0,
        z_down_s=40.0,
        deadline_slots=62,
    )
    assert mincut.min_cut(graph, params)[0] == [2, 3]
    result = mincut.solve(graph, params)
    assert check_constraints(graph, result.decision, params) == []
    assert result.exit_reason != mincut.EXIT_MINCUT
    cg = colgen.solve(graph, params)
    assert result.decision == cg.decision and result.log == cg.log
    _, cut, scale = mincut.min_cut(graph, params)
    floor = mincut._round_down(cut, scale) * (1 - 2.0**-50)
    assert result.psi_lower == max(cg.psi_lower, floor)
    assert result.psi_lower <= brute_force_optimum(graph, params).psi_star
    assert result.report == cg.report


def test_fallback_lower_bound_is_the_cut():
    # Offloading node 2 costs 1 up and 1 down beyond the local energy 3 of
    # nodes 1, 3 and 4: the cut is 5, while the attribution floor charges
    # node 2 only its pinned uplink (1) and node 3 its local energy (1),
    # which gives 4.  A 40-slot uplink rules the offload out.
    graph = TaskGraph(
        [TaskModule(1, 1), TaskModule(2, 30), TaskModule(3, 1), TaskModule(4, 1)],
        [DataEdge(1, 2, 1), DataEdge(1, 3, 100), DataEdge(2, 3, 100), DataEdge(3, 4, 100)],
    )
    params = toy_params(theta_up=1.0, theta_down=0.01, z_up_s=40.0, deadline_slots=33)
    assert mincut.min_cut(graph, params)[0] == [2]
    result = mincut.solve(graph, params)
    cg = colgen.solve(graph, params)
    assert cg.psi_lower == 4.0
    assert result.psi_lower == 5.0 * (1 - 2.0**-50)
    assert result.report.psi == brute_force_optimum(graph, params).psi_star == 33.0


@pytest.mark.parametrize("seed", range(10))
def test_chain_cut_never_worse_than_cg(seed):
    rng = np.random.default_rng(4000 + seed)
    graph = _random_chain(rng)
    params = _loose_params(rng, graph)
    cut_psi = mincut.solve(graph, params).report.psi
    cg_psi = colgen.solve(graph, params).report.psi
    assert cut_psi <= cg_psi + 1e-9


def test_cut_result_is_certified():
    graph = fan_graph([1, 8, 9, 1], [2, 2], [2, 2])
    params = toy_params(theta_up=0.05, theta_down=0.02, epsilon=0.03)
    result = mincut.solve(graph, params)
    assert result.decision.server_set() == {2, 3}
    assert result.optimal_certified
    assert result.psi_lower == result.report.psi
    assert (result.iterations, result.log, result.epsilon) == (0, [], 0.03)


def test_chain_offloads_when_local_execution_misses_the_deadline():
    # Local takes 22 slots, offloading node 2 takes 15; the cut keeps node
    # 2 local (20 < 200), so only the window search meets T = 16, and column
    # generation, which starts all-local, cannot.
    graph = chain_graph([1, 20, 1], [1, 1])
    params = toy_params(theta_up=100.0, theta_down=100.0, deadline_slots=16)
    assert mincut.min_cut(graph, params)[0] == []
    with pytest.raises(InfeasibleError):
        colgen.solve(graph, params)
    result = mincut.solve(graph, params)
    assert result.decision.server_set() == {2}
    assert result.exit_reason == mincut.EXIT_WINDOW and not result.optimal_certified
    assert result.report.psi == 202.0
    assert result.psi_lower == 22.0 * (1 - 2.0**-50)
    assert check_constraints(graph, result.decision, params) == []
    with pytest.raises(InfeasibleError, match="no offload window"):
        mincut.solve(graph, params.replace(deadline_slots=14))


def test_binding_chain_gets_the_window_search():
    # With 4-slot transfers local execution takes 26 slots, offloading
    # node 2 takes 1 + 4 + 6 + 4 + 12 + 1 = 28 and nodes 2-3 take 22.  The
    # cut offloads node 2 alone (psi 16 against 17), which misses T = 26;
    # the best window that meets it offloads nodes 2-3 (psi 17, local 26).
    graph = chain_graph([1, 12, 12, 1], [1, 1, 14])
    params = toy_params(z_up_s=4.0, z_down_s=4.0, deadline_slots=26)
    assert mincut.min_cut(graph, params)[0] == [2]
    result = mincut.solve(graph, params)
    oracle = brute_force_optimum(graph, params)
    assert result.exit_reason == mincut.EXIT_WINDOW
    assert result.decision == oracle.decision and result.decision.server_set() == {2, 3}
    assert result.report.psi == oracle.psi_star == 17.0


def test_round_down_stays_below_the_quotient():
    # 0.1 rounds up to nearest, 1/3 rounds down, 3/4 is exact.
    assert 0.1 > Fraction(1, 10) and mincut._round_down(1, 10) == math.nextafter(0.1, 0.0)
    assert mincut._round_down(1, 3) == 1 / 3 < Fraction(1, 3)
    assert mincut._round_down(3, 4) == 0.75


def test_max_flow_cancels_flow_of_an_earlier_phase():
    # The first phase pushes s-a-d-t, which blocks s-b-d-t; the second must
    # send b's unit through d, back over a-d, and on along a-e-f-t.
    s, t, a, b, d, e, f = mincut.SOURCE, mincut.SINK, 2, 3, 4, 5, 6
    arcs = [(s, a), (s, b), (a, d), (b, d), (d, t), (a, e), (e, f), (f, t)]
    head, cap, adj = [], [], [[] for _ in range(7)]
    for u, v in arcs:
        for tail, tip, value in ((u, v, 1), (v, u, 0)):
            adj[tail].append(len(head))
            head.append(tip)
            cap.append(value)
    assert mincut._max_flow(head, cap, adj) == 2


@st.composite
def dags(draw, max_nodes=12):
    n = draw(st.integers(3, max_nodes))
    modules = [TaskModule(i, draw(st.integers(1, 20))) for i in range(1, n + 1)]
    edges = [
        DataEdge(u, v, draw(st.integers(0, 60)))
        for u in range(1, n)
        for v in range(u + 1, n + 1)
        if draw(st.integers(0, 2)) == 0
    ]
    return TaskGraph(modules, edges)


def _loose(graph, **energy):
    total = sum(m.workload_cycles for m in graph.modules)
    return toy_params(f_c_hz=1.0, f_s_hz=2.0, z_up_s=3.0, z_down_s=2.0,
                      deadline_slots=10 * total + 200, **energy)


# Energies that are multiples of 2**-3 below 2**20 sum exactly in floats, so
# float psi orders assignments as exact psi does, ties included; the coarse
# grid makes exact ties common.
dyadic = st.integers(1, 16).map(lambda k: k / 8)


@settings(max_examples=100, deadline=None)
@given(dags(), dyadic, dyadic, dyadic)
def test_cut_equals_brute_force_on_loose_deadlines(graph, kappa, theta_up, theta_down):
    params = _loose(graph, kappa=kappa, theta_up=theta_up, theta_down=theta_down)
    result = mincut.solve(graph, params)
    oracle = brute_force_optimum(graph, params)
    assert result.exit_reason == mincut.EXIT_MINCUT and result.optimal_certified
    assert result.report.psi == oracle.psi_star
    assert result.decision.location == oracle.decision.location
    assert result.decision.slot == oracle.decision.slot


@settings(max_examples=100, deadline=None)
@given(
    dags(max_nodes=9),
    st.floats(1e-3, 1e3),
    st.floats(1e-8, 1e3),
    st.floats(1e-8, 1e3),
)
def test_cut_is_exact_for_any_float_energies(graph, kappa, theta_up, theta_down):
    # The cut value is the exact psi of its assignment, no assignment is
    # cheaper in exact arithmetic, and every exact minimum offloads at least
    # the cut's server nodes.
    params = _loose(graph, kappa=kappa, theta_up=theta_up, theta_down=theta_down)
    server, cut, scale = mincut.min_cut(graph, params)
    assert Fraction(cut, scale) == _exact_psi(graph, set(server), params)
    interior = graph.interior_ids()
    for mask in range(1 << len(interior)):
        other = {v for bit, v in enumerate(interior) if mask >> bit & 1}
        psi = _exact_psi(graph, other, params)
        assert psi >= Fraction(cut, scale)
        if psi == Fraction(cut, scale):
            assert set(server) <= other


@settings(max_examples=100, deadline=None)
@given(
    dags(), dyadic, st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
    st.sampled_from([1.0, 4.0, 12.0]), st.sampled_from([1.0, 4.0, 12.0]), st.floats(0.0, 1.0),
)
def test_binding_deadlines_give_a_feasible_bracket(
    graph, kappa, theta_up, theta_down, z_up, z_down, lam
):
    local = earliest_completion(graph, dict.fromkeys(graph.node_ids, CLIENT), toy_params())
    low = max(local.slots.values())
    high = 1.3 * sum(m.workload_cycles for m in graph.modules)
    params = toy_params(
        f_c_hz=1.0, f_s_hz=2.0, z_up_s=z_up, z_down_s=z_down, kappa=kappa,
        theta_up=theta_up, theta_down=theta_down,
        deadline_slots=max(1, int(low + lam * (high - low))),
    )
    result = mincut.solve(graph, params)
    optimum = brute_force_optimum(graph, params).psi_star
    assert check_constraints(graph, result.decision, params) == []
    assert all(rec.psi_upper == result.report.psi for rec in result.log[-1:])
    assert result.psi_lower <= optimum * (1 + 1e-12) and optimum <= result.report.psi
    _, cut, scale = mincut.min_cut(graph, params)
    assert mincut._round_down(cut, scale) * (1 - 2.0**-50) <= optimum
    if result.exit_reason == mincut.EXIT_MINCUT:
        assert result.report.psi == pytest.approx(optimum, rel=1e-12)
    assert SERVER not in (result.decision.location[1], result.decision.location[graph.n_nodes])
    # Column generation starts all-local, which meets these deadlines; its
    # certificate rests on psi_upper meeting its floor alone.
    cg = colgen.solve(graph, params)
    assert check_constraints(graph, cg.decision, params) == []
    assert cg.log[-1].psi_upper == cg.report.psi
    assert cg.psi_lower <= optimum * (1 + 1e-12) and optimum <= cg.report.psi
    if cg.optimal_certified:
        assert cg.report.psi == pytest.approx(optimum, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 20), min_size=3, max_size=10), st.data(), dyadic, dyadic, dyadic,
    st.sampled_from([1.0, 4.0, 12.0]), st.sampled_from([1.0, 4.0, 12.0]), st.floats(0.0, 1.3),
)
def test_chains_match_brute_force_at_any_deadline(
    workloads, data, kappa, theta_up, theta_down, z_up, z_down, lam
):
    # Deadlines run from 0 to 1.3x serial, so local execution may miss
    # them; with the server the faster side, one contiguous window is an
    # optimum, and the window search finds it or proves none exists.
    bits = data.draw(st.lists(st.integers(0, 60), min_size=len(workloads) - 1,
                              max_size=len(workloads) - 1))
    graph = chain_graph(workloads, bits)
    params = toy_params(
        z_up_s=z_up, z_down_s=z_down, kappa=kappa, theta_up=theta_up, theta_down=theta_down,
        deadline_slots=max(1, int(lam * sum(workloads))),
    )
    try:
        optimum = brute_force_optimum(graph, params).psi_star
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            mincut.solve(graph, params)
        return
    result = mincut.solve(graph, params)
    assert check_constraints(graph, result.decision, params) == []
    assert result.report.psi == optimum
    assert result.psi_lower <= optimum
