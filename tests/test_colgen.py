import numpy as np
import pytest

from evtoffload.colgen import (
    EXIT_PRICING_NONNEG,
    EXIT_RATIO,
    PricingTable,
    RmpInfeasible,
    SolverState,
    _price_all,
    attribution_lower_bound,
    delta_psi,
    initial_rmp,
    reduced_cost,
    solve,
    solve_rmp,
)
from evtoffload.energy import (
    CLIENT,
    SERVER,
    InfeasibleError,
    check_constraints,
    exec_slots,
    worst_case_expected_energy,
)
from evtoffload.graph import DataEdge, TaskGraph, TaskModule, load_graph
from evtoffload.oracle import brute_force_optimum, earliest_completion
from evtoffload.simulate import LayeredDagSpec, gen_layered_dag

from conftest import INSTANCE_DIR, chain_graph, fan_graph, random_small_instance, toy_params


def _hand_state(graph, params, schedule, duals, server=()):
    state = SolverState(graph=graph, params=params)
    for node, slot in schedule.items():
        state.schedule[node] = slot
    _set_duals(state, duals)
    state.on_server[list(server)] = True
    return state


def _set_duals(state, duals):
    """Price the edges named in `duals`, every other edge at 0."""
    state.duals = np.array([duals.get(key, 0.0) for key in state.core.edge_keys])


def _priced(node, state):
    """(t_min, t_max, slot, zeta) of `node` priced alone; None for an empty window."""
    table = state.core.price(state, [node])
    if not table.node.size:
        return None
    return int(table.t_min[0]), int(table.t_max[0]), int(table.slot[0]), float(table.zeta[0])


# --- initial RMP -------------------------------------------------------------

def test_initial_rmp_serial_chain():
    graph = chain_graph([1, 1, 1], [1, 1])
    params = toy_params(f_c_hz=1.0)
    state = initial_rmp(graph, params)
    assert state.decision().slot == {1: 1, 2: 2, 3: 3}
    assert state.psi_upper == 3.0  # kappa * f_c^2 * sum(w) with unit scale
    assert state.psi_lower == 0.0


def test_initial_rmp_infeasible_deadline():
    graph = chain_graph([5, 5, 5], [1, 1])
    params = toy_params(f_c_hz=1.0, deadline_slots=10)
    with pytest.raises(InfeasibleError, match="deadline too tight"):
        initial_rmp(graph, params)


def test_initial_rmp_branchy_schedule_is_feasible():
    graph = TaskGraph(
        [TaskModule(i, w) for i, w in zip(range(1, 7), [1, 2, 3, 2, 4, 1])],
        [
            DataEdge(1, 2, 5),
            DataEdge(1, 3, 5),
            DataEdge(2, 4, 5),
            DataEdge(3, 5, 5),
            DataEdge(4, 6, 5),
            DataEdge(5, 6, 5),
        ],
    )
    params = toy_params(f_c_hz=1.0)
    state = initial_rmp(graph, params)
    assert check_constraints(graph, state.decision(), params) == []


def test_initial_rmp_starts_from_earliest_completion_when_serial_misses():
    # Serial all-local takes 1 + 2 + 3 + 2 + 4 + 1 = 13 slots, the critical
    # path 1 + 3 + 4 + 1 = 9: a 10-slot deadline is met by local execution.
    graph = TaskGraph(
        [TaskModule(i, w) for i, w in zip(range(1, 7), [1, 2, 3, 2, 4, 1])],
        [
            DataEdge(1, 2, 5),
            DataEdge(1, 3, 5),
            DataEdge(2, 4, 5),
            DataEdge(3, 5, 5),
            DataEdge(4, 6, 5),
            DataEdge(5, 6, 5),
        ],
    )
    params = toy_params(f_c_hz=1.0, deadline_slots=10)
    state = initial_rmp(graph, params)
    assert state.decision().slot == {1: 1, 2: 3, 3: 4, 4: 5, 5: 8, 6: 9}
    assert check_constraints(graph, state.decision(), params) == []
    result = solve(graph, params, 0.0)
    assert check_constraints(graph, result.decision, params) == []
    with pytest.raises(InfeasibleError, match="deadline too tight"):
        initial_rmp(graph, toy_params(f_c_hz=1.0, deadline_slots=8))


# --- RMP solve / duals -------------------------------------------------------

def test_solve_rmp_base_state():
    graph = chain_graph([2, 4, 2], [10, 20])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0)
    state = initial_rmp(graph, params)
    psi_u, prices, schedule = solve_rmp(state)
    duals = dict(zip(state.core.edge_keys, prices.tolist()))
    assert psi_u == worst_case_expected_energy(graph, state.decision(), params).psi
    assert set(duals) == {(1, 2), (2, 3)}
    assert all(np.isfinite(v) and v >= 0 for v in duals.values())
    assert np.array_equal(schedule, state.schedule)


def test_solve_rmp_rejection_signal():
    graph = chain_graph([2, 4, 2], [10, 20])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0)
    state = initial_rmp(graph, params)
    state.schedule[3] = params.deadline_slots + 5  # break the deadline row
    with pytest.raises(RmpInfeasible):
        solve_rmp(state)


def test_heuristic_duals_normalized():
    graph = chain_graph([2, 4, 2], [10, 20])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0)
    state = initial_rmp(graph, params)
    _, duals, _ = solve_rmp(state)
    assert sum(duals.tolist()) == pytest.approx(1.0)


# --- reduced cost ------------------------------------------------------------

def test_reduced_cost_hand_arithmetic():
    graph = chain_graph([2, 4, 2], [10, 20])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, theta_up=0.5, theta_down=0.5)
    state = _hand_state(
        graph, params, {1: 2, 2: 6, 3: 8}, {(1, 2): 0.3, (2, 3): 0.2}
    )
    # zeta_2(t) = 15 - 0.3(t - 4) - 0.2(6 - t) = 15 - 0.1t
    assert reduced_cost(2, 5, state) == pytest.approx(14.5)
    assert reduced_cost(2, 10, state) == pytest.approx(14.0)


def test_reduced_cost_zero_duals_is_transfer_only():
    graph = chain_graph([2, 4, 2], [10, 20])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, theta_up=0.5, theta_down=0.25)
    state = _hand_state(graph, params, {1: 2, 2: 6, 3: 8}, {})
    assert reduced_cost(2, 7, state) == pytest.approx(10 * 0.5 + 20 * 0.25)


def test_reduced_cost_uplink_term_vanishes_for_server_parents():
    graph = TaskGraph(
        [TaskModule(1, 1), TaskModule(2, 2), TaskModule(3, 2), TaskModule(4, 1)],
        [DataEdge(1, 2, 10), DataEdge(2, 3, 10), DataEdge(3, 4, 10)],
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, theta_up=1.0, theta_down=0.0001)
    state = _hand_state(graph, params, {1: 1, 2: 20, 3: 40, 4: 60}, {}, server={2})
    # Candidate 3's only parent (2) is on the server: no theta_up term.
    assert reduced_cost(3, 45, state) == pytest.approx(10 * 0.0001)


def test_reduced_cost_rejects_non_candidates():
    graph = chain_graph([1, 1, 1], [1, 1])
    params = toy_params(f_c_hz=1.0)
    state = initial_rmp(graph, params)
    with pytest.raises(ValueError):
        reduced_cost(1, 1, state)


# --- column selection --------------------------------------------------------

def _table(nodes, zetas):
    ones = np.ones(len(nodes), dtype=np.int64)
    return PricingTable(
        np.array(nodes, dtype=np.int64), ones, ones, ones, np.array(zetas, dtype=float)
    )


def _blacklist(*nodes):
    mask = np.zeros(8, dtype=bool)
    mask[list(nodes)] = True
    return mask


def test_cs_argmin():
    assert _table([2, 4], [-3.0, -1.0]).best(_blacklist()).node == 2


def test_cs_tie_breaks_to_smallest_id():
    assert _table([2, 3], [-1.0, -1.0]).best(_blacklist()).node == 2
    assert _table([2, 3, 5], [-1.0, -1.0, -1.0]).best(_blacklist(2)).node == 3


def test_cs_nonnegative_still_returns_argmin():
    column = _table([3, 5], [1.0, 2.0]).best(_blacklist())
    assert (column.node, column.reduced_cost) == (3, 1.0)


def test_cs_empty_signals_no_column():
    assert _table([], []).best(_blacklist()) is None
    assert _table([2], [-1.0]).best(_blacklist(2)) is None


# --- slot windows ------------------------------------------------------------

def _window_fixture():
    # Parent local at slot 5, candidate server exec 1, child local exec 2.
    graph = chain_graph([1, 2, 2], [4, 4])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, z_up_s=2.0, z_down_s=1.0, deadline_slots=50)
    state = _hand_state(graph, params, {1: 5, 2: 7, 3: 12}, {})
    return graph, params, state


def test_slot_window_example():
    graph, params, state = _window_fixture()
    assert _priced(2, state)[:2] == (8, 9)


def test_slot_window_empty():
    graph, params, state = _window_fixture()
    state.schedule[3] = 9  # child too early
    assert _priced(2, state) is None


@pytest.mark.parametrize("slack", [None, 0, 2])
@pytest.mark.parametrize("seed", range(8))
def test_every_slot_in_window_is_feasible(seed, slack):
    # An admission walk: admit a random candidate at a random slot of its
    # priced window, reprice, and repeat until no window is left.  Every
    # slot of every window keeps the schedule feasible, so the master check
    # after an admission never fails.  The deadline is 60 slots, or the
    # all-local critical path plus `slack`, where the windows are tight.
    rng = np.random.default_rng(seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=6, edge_prob=0.6, workload_scale=4.0, bit_scale=8.0), rng
    )
    local = earliest_completion(graph, dict.fromkeys(graph.node_ids, CLIENT), toy_params())
    deadline = 60 if slack is None else max(local.slots.values()) + slack
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=deadline)
    state = initial_rmp(graph, params)
    solve_rmp(state)
    moved = None
    while True:
        table = _price_all(state, moved)
        for node, t_min, t_max in zip(*(a.tolist() for a in (table.node, table.t_min, table.t_max))):
            for t in range(t_min, t_max + 1):
                decision = state.decision()
                decision.location[node] = SERVER
                decision.slot[node] = t
                assert check_constraints(graph, decision, params) == []
        if not table.node.size:
            break
        i = int(rng.integers(table.node.size))
        moved = int(table.node[i])
        state.on_server[moved] = True
        state.schedule[moved] = rng.integers(table.t_min[i], table.t_max[i] + 1)
        solve_rmp(state, moved)
        assert check_constraints(graph, state.decision(), params) == []


# --- slot choice (TD) --------------------------------------------------------

def test_td_width_one_window():
    graph, params, state = _window_fixture()
    state.schedule[3] = 11  # window shrinks to [8, 8]
    assert _priced(2, state)[2] == 8


def test_td_parent_duals_pull_to_latest_slot():
    # Only parent rows priced: zeta decreases in t, so the scan picks t_max.
    graph, params, state = _window_fixture()
    _set_duals(state, {(1, 2): 0.5})
    assert _priced(2, state)[2] == 9


def test_td_child_duals_pull_to_earliest_slot():
    graph, params, state = _window_fixture()
    _set_duals(state, {(2, 3): 0.5})
    assert _priced(2, state)[2] == 8


def _enumerate_bip(node, state, graph, params):
    """Literal slot enumeration with explicit constraint checks."""
    best = None
    slots = {
        n: exec_slots(graph.workload(n), params.f_c_hz, params.delta_s)
        if state.location(n) == CLIENT
        else exec_slots(graph.workload(n), params.f_s_hz, params.delta_s)
        for n in graph.node_ids
    }
    exec_server = exec_slots(graph.workload(node), params.f_s_hz, params.delta_s)
    for t in range(1, params.deadline_slots + 1):
        ok = True
        for m in graph.parents[node]:
            need = params.z_up_slots if state.location(m) == CLIENT else 0
            if t - state.schedule[m] - exec_server < need:
                ok = False
        for k in graph.children[node]:
            need = params.z_down_slots if state.location(k) == CLIENT else 0
            if state.schedule[k] - t - slots[k] < need:
                ok = False
        if not ok:
            continue
        zeta = reduced_cost(node, t, state)
        if best is None or zeta < best[1]:
            best = (t, zeta)
    return best


@pytest.mark.parametrize("seed", range(6))
def test_td_matches_exhaustive_enumeration(seed):
    rng = np.random.default_rng(seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=6, edge_prob=0.6, workload_scale=4.0, bit_scale=9.0), rng
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=50, theta_up=0.01, theta_down=0.01)
    state = initial_rmp(graph, params)
    solve_rmp(state)
    for node in graph.interior_ids():
        expected = _enumerate_bip(node, state, graph, params)
        if expected is None:
            assert _priced(node, state) is None
            continue
        _, _, slot, zeta = _priced(node, state)
        assert slot == expected[0]
        assert zeta == pytest.approx(expected[1], rel=1e-12)


# --- pricing (NPP) -----------------------------------------------------------

def test_npp_single_candidate_reduces_to_td():
    graph, params, state = _window_fixture()
    _set_duals(state, {(1, 2): 0.2, (2, 3): 0.1})
    column = _price_all(state).best(state.blacklist)
    _, _, slot, zeta = _priced(2, state)
    assert column.node == 2
    assert column.slot == slot
    assert column.reduced_cost == zeta


def test_npp_no_feasible_candidate():
    graph, params, state = _window_fixture()
    state.schedule[3] = 9
    table = _price_all(state)
    assert table.node.size == 0
    assert table.best(state.blacklist) is None


@pytest.mark.parametrize("seed", range(5))
def test_npp_dominates_full_grid(seed):
    rng = np.random.default_rng(30 + seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=6, edge_prob=0.6, workload_scale=4.0, bit_scale=9.0), rng
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=60, theta_up=0.05, theta_down=0.02)
    state = initial_rmp(graph, params)
    solve_rmp(state)
    table = _price_all(state)
    column = table.best(state.blacklist)
    if column is None:
        return
    for node in graph.interior_ids():
        got = _enumerate_bip(node, state, graph, params)
        if got is not None:
            assert column.reduced_cost <= got[1] + 1e-12
    # The table prices the full grid: its sign agrees with the enumeration.
    grid_nonneg = not (table.zeta < 0.0).any()
    enumerated = [_enumerate_bip(n, state, graph, params) for n in graph.interior_ids()]
    assert grid_nonneg == all(got[1] >= 0.0 for got in enumerated if got is not None)


# --- energy delta ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_delta_psi_matches_recomputation(seed):
    rng = np.random.default_rng(60 + seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=7, edge_prob=0.5, workload_scale=4.0, bit_scale=9.0), rng
    )
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, theta_up=0.3, theta_down=0.2)
    state = initial_rmp(graph, params)
    for n in graph.interior_ids():
        if rng.random() < 0.4:
            state.on_server[n] = True
    before = worst_case_expected_energy(graph, state.decision(), params).psi
    for node in graph.interior_ids():
        if state.on_server[node]:
            continue
        state.on_server[node] = True
        after = worst_case_expected_energy(graph, state.decision(), params).psi
        state.on_server[node] = False
        assert delta_psi(node, state) == pytest.approx(after - before, rel=1e-9)


# --- full solve --------------------------------------------------------------

def _transfer_dominated_fan():
    graph = fan_graph([1, 8, 9, 10, 1], [16, 16, 16], [16, 16, 16])
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        theta_up=1000.0,
        theta_down=1000.0,
        deadline_slots=200,
    )
    return graph, params


def test_solve_all_local_when_transfers_dominate():
    graph, params = _transfer_dominated_fan()
    result = solve(graph, params, 0.0)
    assert result.decision.server_set() == set()
    assert len(result.log) == 1  # one pricing round
    assert result.exit_reason == EXIT_PRICING_NONNEG
    assert result.optimal_certified
    assert result.bounds.psi_lower == result.bounds.psi_upper


def test_solve_certified_matches_oracle():
    graph, params = _transfer_dominated_fan()
    result = solve(graph, params, 0.0)
    oracle = brute_force_optimum(graph, params)
    assert result.report.psi == pytest.approx(oracle.psi_star, rel=1e-12)


def test_solve_ratio_exit_certificate():
    # One big win (node 2), two pinned nodes: after the single admission the
    # upper bound hits the combinatorial floor exactly and the ratio fires.
    graph = TaskGraph(
        [
            TaskModule(1, 1),
            TaskModule(2, 100),
            TaskModule(3, 1),
            TaskModule(4, 1),
            TaskModule(5, 1),
        ],
        [
            DataEdge(1, 2, 1),
            DataEdge(1, 3, 32),
            DataEdge(1, 4, 32),
            DataEdge(2, 5, 1),
            DataEdge(3, 5, 32),
            DataEdge(4, 5, 32),
        ],
    )
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        theta_up=0.25,
        theta_down=0.125,
        z_up_s=2.0,
        z_down_s=1.0,
        deadline_slots=400,
    )
    result = solve(graph, params, 0.0)
    assert result.decision.server_set() == {2}
    assert result.exit_reason == EXIT_RATIO
    assert result.bounds.psi_upper <= (1.0 + result.epsilon) * result.bounds.psi_lower


def test_solve_smart_diagnosis_offloads_heavy_branches():
    graph = load_graph(INSTANCE_DIR / "smart_diagnosis.json")
    from evtoffload.energy import SystemParams

    params = SystemParams()  # reference defaults: eps_m = 0.1
    result = solve(graph, params, 0.03)
    offloaded = result.decision.server_set()
    assert {3, 4, 5, 6, 9, 10} <= offloaded
    assert {1, 14} & offloaded == set()


def test_solve_admitted_slot_within_precomputed_window():
    graph = chain_graph([1, 30, 1], [1, 1])
    params = toy_params(
        f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=0.001, theta_down=0.001,
        z_up_s=3.0, z_down_s=2.0, deadline_slots=100,
    )
    state = initial_rmp(graph, params)
    solve_rmp(state)
    window = _priced(2, state)[:2]
    result = solve(graph, params, 0.0)
    assert result.decision.server_set() == {2}
    assert window[0] <= result.decision.slot[2] <= window[1]


def test_solve_rejects_bad_epsilon():
    graph = chain_graph([1, 1, 1], [1, 1])
    with pytest.raises(ValueError):
        solve(graph, toy_params(f_c_hz=1.0), 1.0)


def test_solve_monotone_upper_bound_and_termination():
    for seed in range(20):
        graph, params = random_small_instance(seed)
        try:
            result = solve(graph, params, 0.0)
        except InfeasibleError:
            continue
        uppers = [rec.psi_upper for rec in result.log]
        assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))
        assert result.iterations <= graph.n_nodes - 2
        assert all(rec.psi_lower <= rec.psi_upper + 1e-12 for rec in result.log)


def test_solve_is_deterministic():
    graph, params = random_small_instance(3)
    a = solve(graph, params, 0.0)
    b = solve(graph, params, 0.0)
    assert a.decision.location == b.decision.location
    assert a.decision.slot == b.decision.slot
    assert a.log == b.log
    assert a.exit_reason == b.exit_reason


def test_attribution_bound_below_every_assignment():
    for seed in range(10):
        graph, params = random_small_instance(100 + seed)
        floor = attribution_lower_bound(graph, params)
        try:
            oracle = brute_force_optimum(graph, params)
        except InfeasibleError:
            continue
        assert floor <= oracle.psi_star + 1e-9 * max(1.0, oracle.psi_star)


def test_transfer_slots_beyond_int64_leave_nothing_to_offload():
    # 1e30 s is a finite quantile of 1e30 slots, far beyond int64: no
    # transfer fits before the deadline, so every window is empty.
    graph = chain_graph([1, 30, 1], [1, 1])
    params = toy_params(
        f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, theta_up=0.001, theta_down=0.001,
        z_up_s=1e30, z_down_s=1e30, deadline_slots=100,
    )
    result = solve(graph, params, 0.0)
    assert result.decision.server_set() == set()
    assert result.exit_reason == "no_column"
