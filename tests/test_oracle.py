import numpy as np
import pytest

from evtoffload.energy import (
    CLIENT,
    SERVER,
    InfeasibleError,
    OffloadDecision,
    check_constraints,
    worst_case_expected_energy,
)
from evtoffload.graph import DataEdge, TaskGraph, TaskModule
from evtoffload.oracle import OracleCapError, brute_force_optimum, earliest_completion
from evtoffload.simulate import LayeredDagSpec, gen_layered_dag

from conftest import chain_graph, toy_params


def test_ec_all_local_chain_unit_exec():
    graph = chain_graph([1, 1, 1], [1, 1])
    params = toy_params(f_c_hz=1.0)
    ec = earliest_completion(graph, {n: CLIENT for n in graph.node_ids}, params)
    assert ec.slots == {1: 1, 2: 2, 3: 3}
    assert ec.feasible


def test_ec_offloaded_middle_adds_both_quantiles():
    graph = chain_graph([1, 2, 1], [1, 1])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, z_up_s=2.0, z_down_s=1.0)
    location = {1: CLIENT, 2: SERVER, 3: CLIENT}
    ec = earliest_completion(graph, location, params)
    # 1 (exec 1) -> up 2 -> exec_s 1 -> down 1 -> exec 1
    assert ec.slots == {1: 1, 2: 4, 3: 6}


def test_ec_zero_workload_source_completes_at_zero():
    graph = chain_graph([0, 1, 0], [1, 1])
    params = toy_params(f_c_hz=1.0)
    ec = earliest_completion(graph, {n: CLIENT for n in graph.node_ids}, params)
    assert ec.slots[1] == 0
    assert ec.slots[3] == 1


@pytest.mark.parametrize("seed", range(10))
def test_ec_schedule_passes_checker_and_is_tight(seed):
    rng = np.random.default_rng(seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=7, edge_prob=0.5, workload_scale=3.0, bit_scale=8.0), rng
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=200)
    location = {n: CLIENT for n in graph.node_ids}
    for n in graph.interior_ids():
        if rng.random() < 0.5:
            location[n] = SERVER
    ec = earliest_completion(graph, location, params)
    assert ec.feasible
    decision = OffloadDecision(location, dict(ec.slots))
    assert check_constraints(graph, decision, params) == []
    # Tightness: decrementing any completion slot breaks some constraint.
    for node in graph.node_ids:
        bumped = OffloadDecision(location, dict(ec.slots))
        bumped.slot[node] -= 1
        assert check_constraints(graph, bumped, params) != []


@pytest.mark.parametrize("seed", range(6))
def test_ec_monotone_in_workload_and_z(seed):
    rng = np.random.default_rng(40 + seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=7, edge_prob=0.5, workload_scale=3.0, bit_scale=8.0), rng
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=500)
    location = {n: CLIENT for n in graph.node_ids}
    for n in graph.interior_ids():
        if rng.random() < 0.5:
            location[n] = SERVER
    base = earliest_completion(graph, location, params)
    # Raise one workload.
    victim = int(rng.choice(graph.node_ids))
    modules = [
        TaskModule(m.id, m.workload_cycles + (3 if m.id == victim else 0))
        for m in graph.modules
    ]
    heavier = TaskGraph(modules, graph.edges)
    after = earliest_completion(heavier, location, params)
    assert all(after.slots[n] >= base.slots[n] for n in graph.node_ids)
    # Raise both transfer quantiles.
    slower = earliest_completion(graph, location, params.replace(z_up_s=5.0, z_down_s=4.0))
    assert all(slower.slots[n] >= base.slots[n] for n in graph.node_ids)


def test_two_node_oracle_is_all_local():
    graph = chain_graph([2, 3], [10])
    params = toy_params(f_c_hz=1.0)
    result = brute_force_optimum(graph, params)
    assert result.assignments_enumerated == 1
    assert result.decision.server_set() == set()
    assert result.psi_star == worst_case_expected_energy(
        graph, result.decision, params
    ).psi


def test_three_node_chain_cheap_transfer_offloads_middle():
    graph = chain_graph([1, 10, 1], [1, 1])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=0.1, theta_down=0.1)
    result = brute_force_optimum(graph, params)
    # Hand enumeration: all-local psi = 12; offload node 2 -> 2 + 0.1 + 0.1 = 2.2
    assert result.decision.server_set() == {2}
    assert result.psi_star == pytest.approx(2.2)
    assert result.feasible_count == 2


def test_oracle_psi_matches_energy_module():
    rng = np.random.default_rng(9)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=7, edge_prob=0.5, workload_scale=4.0, bit_scale=6.0), rng
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=0.5, theta_up=0.2, theta_down=0.05)
    result = brute_force_optimum(graph, params)
    assert result.psi_star == worst_case_expected_energy(graph, result.decision, params).psi


def test_oracle_relabeling_invariance():
    # Swap interior labels 2 and 3 consistently; psi* must not change.
    g1 = TaskGraph(
        [TaskModule(1, 1), TaskModule(2, 8), TaskModule(3, 2), TaskModule(4, 1)],
        [DataEdge(1, 2, 5), DataEdge(1, 3, 7), DataEdge(2, 4, 3), DataEdge(3, 4, 4)],
    )
    g2 = TaskGraph(
        [TaskModule(1, 1), TaskModule(2, 2), TaskModule(3, 8), TaskModule(4, 1)],
        [DataEdge(1, 3, 5), DataEdge(1, 2, 7), DataEdge(3, 4, 3), DataEdge(2, 4, 4)],
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=0.3, theta_down=0.2)
    r1 = brute_force_optimum(g1, params)
    r2 = brute_force_optimum(g2, params)
    assert r1.psi_star == pytest.approx(r2.psi_star, rel=1e-12)


@pytest.mark.parametrize("order", [[1, 2, 3, 4], [1, 3, 2, 4], [4, 3, 2, 1]])
def test_oracle_tie_break_ignores_node_listing_order(order):
    # Offloading 2 or 3 alone costs psi 14 either way; the tie goes to the
    # smaller mask, bit 0 being node 2, however the graph lists its nodes.
    chain = chain_graph([1, 10, 10, 1], [1, 1, 1])
    graph = TaskGraph([chain.modules[i - 1] for i in order], chain.edges)
    params = toy_params(f_c_hz=1.0, f_s_hz=0.5, kappa=1.0, theta_up=1.0, theta_down=1.0,
                        z_up_s=2.0, z_down_s=2.0, deadline_slots=36)
    result = brute_force_optimum(graph, params)
    assert result.psi_star == 14.0
    assert result.decision.server_set() == {2}


def test_oracle_node_cap():
    graph = chain_graph([1] * 23, [1] * 22)
    with pytest.raises(OracleCapError):
        brute_force_optimum(graph, toy_params())


def test_oracle_infeasible_instance():
    graph = chain_graph([10, 10, 10], [1, 1])
    params = toy_params(f_c_hz=1.0, f_s_hz=1.0, deadline_slots=5)
    with pytest.raises(InfeasibleError):
        brute_force_optimum(graph, params)
