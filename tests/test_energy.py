import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtoffload import mincut
from evtoffload.colgen import SolverState
from evtoffload.energy import (
    CLIENT,
    MAX_DEADLINE_SLOTS,
    SERVER,
    OffloadDecision,
    SystemParams,
    TraceExhaustedError,
    check_constraints,
    exec_slots,
    slot_table,
    worst_case_expected_energy,
)
from evtoffload.graph import TaskGraph, TaskModule
from evtoffload.oracle import earliest_completion
from evtoffload.simulate import (
    DistSpec,
    LayeredDagSpec,
    TraceModel,
    gen_layered_dag,
    simulate_execution,
)

from conftest import chain_graph, graph_views, random_small_instance, toy_params


# --- exec_slots -------------------------------------------------------------

def test_exec_slots_exact_division():
    assert exec_slots(1_500_000_000, 1.5e9, 0.001) == 1000


def test_exec_slots_ceiling():
    assert exec_slots(1, 1.5e9, 0.001) == 1


def test_exec_slots_zero_workload():
    assert exec_slots(0, 1.5e9, 0.001) == 0


def test_exec_slots_bad_args():
    with pytest.raises(ValueError):
        exec_slots(10, 0.0, 0.001)
    with pytest.raises(ValueError):
        exec_slots(-1, 1.0, 1.0)


def _literal_exec_slots(workload, freq_hz, delta_s):
    """The slot count as a ceiling of the exact rational quotient."""
    if workload == 0:
        return 0
    return int(math.ceil(Fraction(workload) / (Fraction(freq_hz) * Fraction(delta_s))))


# Decimal and thirds are not dyadic, so their products carry large
# denominators; the float ranges add arbitrary mantissas.
FREQUENCIES = st.one_of(
    st.sampled_from([1.5e9, 2.4e9, 0.1, 1 / 3, 7.0, 3e9 + 1]),
    st.floats(1e-3, 1e12),
)
SLOT_LENGTHS = st.one_of(
    st.sampled_from([1e-3, 0.1, 1 / 3, 0.7, 1.0, 2.5e-4]),
    st.floats(1e-6, 10.0),
)
WORKLOADS = st.one_of(st.just(0), st.integers(1, 10**4), st.integers(0, 10**40))


@settings(max_examples=300, deadline=None)
@given(
    workloads=st.lists(WORKLOADS, min_size=1, max_size=6),
    f_c=FREQUENCIES,
    f_s=FREQUENCIES,
    delta=SLOT_LENGTHS,
)
def test_slot_table_matches_literal_fraction_ceiling(workloads, f_c, f_s, delta):
    graph = TaskGraph([TaskModule(i + 1, w) for i, w in enumerate(workloads)], [])
    params = toy_params(f_c_hz=f_c, f_s_hz=f_s, delta_s=delta)
    table = slot_table(graph, params)
    for node, workload in enumerate(workloads, start=1):
        assert table.client[node] == _literal_exec_slots(workload, f_c, delta)
        assert table.server[node] == _literal_exec_slots(workload, f_s, delta)
        assert exec_slots(workload, f_c, delta) == table.client[node]


@pytest.mark.parametrize("name", ["kappa", "f_c_hz", "theta_up", "theta_down"])
def test_table_cache_key_covers_every_energy_field(name):
    """Configs that differ in one energy field get their own psi, min cut and
    solver-state psi on one graph: what a graph never evaluated before gives."""
    graph, params = random_small_instance(0)
    other = params.replace(**{name: getattr(params, name) * 3})
    server = mincut.min_cut(graph, params)[0]
    assert server
    decision = OffloadDecision(
        {n: SERVER if n in server else CLIENT for n in graph.node_ids},
        dict.fromkeys(graph.node_ids, 0),
    )
    on_server = np.zeros(graph.n_nodes + 1, dtype=bool)
    on_server[server] = True

    def values(g, p):
        _, flow, scale = mincut.min_cut(g, p)
        psi = worst_case_expected_energy(g, decision, p).psi
        state = SolverState(g, p)
        state.on_server[:] = on_server
        return psi, flow / scale, state.psi()

    warm = [values(graph, p) for p in (params, other)]
    fresh = [values(TaskGraph(graph.modules, graph.edges), p) for p in (params, other)]
    assert warm == fresh
    assert all(a != b for a, b in zip(*warm))


def test_z_slot_conversion_is_exact():
    params = SystemParams()
    assert params.z_up_slots == 349
    assert params.z_down_slots == 107


# --- system params ----------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(kappa=0.0)
    with pytest.raises(ValueError):
        SystemParams(deadline_slots=0)
    with pytest.raises(ValueError):
        SystemParams(epsilon=1.0)
    assert SystemParams(deadline_slots=MAX_DEADLINE_SLOTS).deadline_slots == (2**63 - 1) // 3 - 1
    for deadline in (MAX_DEADLINE_SLOTS + 1, 2**63 - 1, 10**30):
        with pytest.raises(ValueError, match="deadline_slots"):
            SystemParams(deadline_slots=deadline)


FLOAT_FIELDS = [
    "f_c_hz", "f_s_hz", "kappa", "delta_s",
    "z_up_s", "z_down_s", "theta_up", "theta_down", "epsilon",
]


# A JSON `true` is not a number, although Python's bool is an int.
@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, True], ids=["inf", "-inf", "nan", "true"]
)
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        SystemParams(**{name: value})


def test_params_accept_integral_float_deadline():
    params = SystemParams(deadline_slots=5000.0)
    assert params.deadline_slots == 5000 and isinstance(params.deadline_slots, int)
    assert params == SystemParams()


@pytest.mark.parametrize("value", [2.5, 1.5, math.inf, math.nan, "7", None, True, False])
@pytest.mark.parametrize("name", ["seed", "block_size_k"])
def test_params_reject_non_integral_int_fields(tmp_path, name, value):
    # deadline_slots, the one integer field, rejects every non-integral
    # value.  `seed` and `block_size_k` were never read and are no longer
    # config keys: a config naming either is refused as unknown whatever
    # its value.
    with pytest.raises(ValueError, match="deadline_slots"):
        SystemParams(deadline_slots=value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}))
    with pytest.raises(ValueError, match=f"unknown config keys: \\['{name}'\\]"):
        SystemParams.from_json(path)


def test_params_reject_int_beyond_float_range():
    with pytest.raises(ValueError, match="z_up_s"):
        SystemParams(z_up_s=10**400)


def test_params_json_roundtrip(tmp_path):
    params = SystemParams(theta_up=1e-3, deadline_slots=7)
    path = tmp_path / "cfg.json"
    params.to_json(path)
    again = SystemParams.from_json(path)
    assert again == params


def test_params_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"bogus": 1}')
    with pytest.raises(ValueError, match="unknown config keys"):
        SystemParams.from_json(path)


@pytest.mark.parametrize("key", ["seed", "block_size_k", "eps_m_up", "eps_m_down"])
def test_params_have_no_unread_keys(tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{key}": 1}}')
    with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
        SystemParams.from_json(path)


# --- worst-case expected energy ---------------------------------------------

def _all_local(graph, params):
    schedule = earliest_completion(graph, {n: CLIENT for n in graph.node_ids}, params)
    return OffloadDecision({n: CLIENT for n in graph.node_ids}, schedule.slots)


def test_all_local_energy_has_no_transfer_terms():
    graph = chain_graph([2, 3, 2], [10, 10])
    params = toy_params()
    report = worst_case_expected_energy(graph, _all_local(graph, params), params)
    assert report.uplink_energy == 0.0
    assert report.downlink_energy == 0.0
    assert report.psi == params.kappa * params.f_c_hz**2 * 7


def test_chain_with_offloaded_middle():
    graph = chain_graph([1, 1, 1], [1, 1])
    params = toy_params(f_c_hz=1.0, f_s_hz=1.0, kappa=1.0, theta_up=1.0, theta_down=1.0)
    decision = OffloadDecision(
        {1: CLIENT, 2: SERVER, 3: CLIENT}, {1: 1, 2: 10, 3: 20}
    )
    report = worst_case_expected_energy(graph, decision, params)
    assert report.psi == 4.0  # 1 + 1 local, 1 up, 1 down


def test_all_local_energy_independent_of_uncertainty_params():
    graph = chain_graph([2, 3, 2], [10, 10])
    a = toy_params()
    b = toy_params(theta_up=99.0, theta_down=55.0, z_up_s=17.0, z_down_s=13.0)
    decision = _all_local(graph, a)
    assert (
        worst_case_expected_energy(graph, decision, a).psi
        == worst_case_expected_energy(graph, decision, b).psi
    )


def _resum_reversed(graph, decision, params):
    """Independent re-summation walking edges in reverse canonical order."""
    total = 0.0
    for e in sorted(graph.edges, key=lambda e: (e.src, e.dst), reverse=True):
        if decision.location[e.src] == CLIENT and decision.location[e.dst] == SERVER:
            total += e.bits * params.theta_up
        if decision.location[e.src] == SERVER and decision.location[e.dst] == CLIENT:
            total += e.bits * params.theta_down
    for m in reversed(graph.modules):
        if decision.location[m.id] == CLIENT:
            total += params.kappa * m.workload_cycles * params.f_c_hz**2
    return total


@pytest.mark.parametrize("seed", range(10))
def test_energy_matches_reverse_resummation(seed):
    rng = np.random.default_rng(seed)
    graph = gen_layered_dag(LayeredDagSpec(n_nodes=8, edge_prob=0.5, workload_scale=5e5), rng)
    params = toy_params(theta_up=0.37, theta_down=0.11, kappa=1e-6)
    location = {n: CLIENT for n in graph.node_ids}
    for n in graph.interior_ids():
        if rng.random() < 0.5:
            location[n] = SERVER
    decision = OffloadDecision(location, {n: 1 for n in graph.node_ids})
    report = worst_case_expected_energy(graph, decision, params)
    assert report.psi == pytest.approx(_resum_reversed(graph, decision, params), rel=1e-12)


def test_energy_decomposition_exact():
    graph = chain_graph([5, 4, 3, 2], [7, 8, 9])
    params = toy_params(theta_up=0.3, theta_down=0.7)
    decision = OffloadDecision(
        {1: CLIENT, 2: SERVER, 3: SERVER, 4: CLIENT}, {1: 1, 2: 2, 3: 3, 4: 4}
    )
    r = worst_case_expected_energy(graph, decision, params)
    assert r.psi == r.local_exec_energy + r.uplink_energy + r.downlink_energy


# --- dependency bounds ------------------------------------------------------

def _dependency_bounds(graph, decision, params) -> dict[tuple[int, int], int]:
    """Edge -> bound reported by check_constraints, for violated edges only."""
    return {
        v.subject: int(re.search(r"has bound (-?\d+)$", v.detail).group(1))
        for v in check_constraints(graph, decision, params)
        if v.kind == "dependency"
    }


def test_dependency_bound_values():
    graph = chain_graph([1, 4, 1], [1, 1])
    # z_up = 3 slots, one more than the bound of edge 1->2, so it is reported.
    params = toy_params(f_s_hz=2.0, z_up_s=3.0)
    decision = OffloadDecision(
        {1: CLIENT, 2: SERVER, 3: CLIENT}, {1: 5, 2: 9, 3: 20}
    )
    # exec_s(2) = ceil(4/2) = 2, so b = 9 - 5 - 2 = 2
    assert _dependency_bounds(graph, decision, params)[(1, 2)] == 2
    # same-slot parent/child gives a negative bound
    decision.slot[2] = 5
    assert _dependency_bounds(graph, decision, params)[(1, 2)] < 0


def test_dependency_bound_matches_literal_slot_vector_form():
    rng = np.random.default_rng(5)
    graph = chain_graph([3, 6, 4, 2], [5, 5, 5])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=60)
    t_axis = np.arange(params.deadline_slots + 1)
    workload = graph_views(graph).workload
    for _ in range(20):
        slots = {}
        t = 0
        for n in graph.node_ids:
            t += int(rng.integers(0, 6))
            slots[n] = t
        location = {n: CLIENT for n in graph.node_ids}
        for n in graph.node_ids[1:-1]:
            location[n] = SERVER if rng.integers(2) else CLIENT
        decision = OffloadDecision(location, slots)
        # Literal evaluation over the 1-sparse slot indicator vectors.
        x = {n: np.zeros(params.deadline_slots + 1) for n in graph.node_ids}
        for n, s in slots.items():
            x[n][s] = 1.0
        completion = lambda n: float(np.dot(t_axis, x[n]))
        expected = {}
        for e in graph.edges:
            f_dst = params.f_c_hz if location[e.dst] == CLIENT else params.f_s_hz
            literal = completion(e.dst) - completion(e.src) - exec_slots(
                workload[e.dst], f_dst, params.delta_s
            )
            if location[e.src] == CLIENT and location[e.dst] == SERVER:
                required = params.z_up_slots
            elif location[e.src] == SERVER and location[e.dst] == CLIENT:
                required = params.z_down_slots
            else:
                required = 0
            if literal < required:
                expected[(e.src, e.dst)] = literal
        assert _dependency_bounds(graph, decision, params) == expected


# --- constraint checking ----------------------------------------------------

def test_serial_all_local_schedule_is_feasible():
    graph = chain_graph([2, 3, 2], [10, 10])
    params = toy_params()
    slots = slot_table(graph, params)
    schedule, clock = {}, 0
    for n in graph.node_ids:
        clock += slots.client[n]
        schedule[n] = clock
    decision = OffloadDecision({n: CLIENT for n in graph.node_ids}, schedule)
    assert check_constraints(graph, decision, params) == []


def test_deadline_violation_detected():
    graph = chain_graph([1, 1, 1, 1], [1, 1, 1])
    params = toy_params(deadline_slots=3)
    decision = OffloadDecision(
        {n: CLIENT for n in graph.node_ids}, {1: 1, 2: 2, 3: 3, 4: 4}
    )
    kinds = {v.kind for v in check_constraints(graph, decision, params)}
    assert "deadline" in kinds


def test_endpoint_location_violation_detected():
    graph = chain_graph([1, 1, 1], [1, 1])
    params = toy_params()
    decision = OffloadDecision({1: SERVER, 2: CLIENT, 3: CLIENT}, {1: 1, 2: 2, 3: 3})
    kinds = {v.kind for v in check_constraints(graph, decision, params)}
    assert "endpoint-location" in kinds


def _replay_violations(graph, decision, params):
    """Timeline-replay oracle: literal re-derivation of the violation set."""
    tags = set()
    slots = slot_table(graph, params)
    parents = graph_views(graph).parents
    n_last = graph.n_nodes
    for pinned in (1, n_last):
        if decision.location[pinned] != CLIENT:
            tags.add(("endpoint-location", (pinned,)))
    if decision.slot[n_last] > params.deadline_slots:
        tags.add(("deadline", (n_last,)))
    for node in graph.node_ids:
        if decision.slot[node] < 0 or decision.slot[node] > params.deadline_slots:
            tags.add(("slot-range", (node,)))
        if not parents[node]:
            if decision.slot[node] < slots.at(node, decision.location[node]):
                tags.add(("source-exec", (node,)))
    for e in graph.edges:
        src_c = decision.location[e.src] == CLIENT
        dst_c = decision.location[e.dst] == CLIENT
        need = slots.at(e.dst, decision.location[e.dst])
        if src_c and not dst_c:
            need += params.z_up_slots
        elif not src_c and dst_c:
            need += params.z_down_slots
        if decision.slot[e.dst] - decision.slot[e.src] < need:
            tags.add(("dependency", (e.src, e.dst)))
    return tags


@pytest.mark.parametrize("seed", range(15))
def test_violation_set_matches_replay_oracle(seed):
    rng = np.random.default_rng(seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=6, edge_prob=0.6, workload_scale=3.0, bit_scale=10.0), rng
    )
    params = toy_params(deadline_slots=20, z_up_s=2.0, z_down_s=1.0)
    location = {n: CLIENT for n in graph.node_ids}
    for n in graph.interior_ids():
        if rng.random() < 0.5:
            location[n] = SERVER
    slots = {n: int(rng.integers(0, 25)) for n in graph.node_ids}
    decision = OffloadDecision(location, slots)
    got = {(v.kind, v.subject) for v in check_constraints(graph, decision, params)}
    assert got == _replay_violations(graph, decision, params)


@pytest.mark.parametrize("seed", range(8))
def test_tightening_z_never_shrinks_violations(seed):
    rng = np.random.default_rng(100 + seed)
    graph = gen_layered_dag(
        LayeredDagSpec(n_nodes=6, edge_prob=0.6, workload_scale=3.0, bit_scale=10.0), rng
    )
    base = toy_params(deadline_slots=20, z_up_s=1.0, z_down_s=1.0)
    tight = base.replace(z_up_s=4.0, z_down_s=3.0)
    location = {n: CLIENT for n in graph.node_ids}
    for n in graph.interior_ids():
        if rng.random() < 0.6:
            location[n] = SERVER
    slots = {n: int(rng.integers(0, 22)) for n in graph.node_ids}
    decision = OffloadDecision(location, slots)
    before = {(v.kind, v.subject) for v in check_constraints(graph, decision, base)}
    after = {(v.kind, v.subject) for v in check_constraints(graph, decision, tight)}
    assert before <= after


# --- realized energy --------------------------------------------------------

def _replay_model(up, down) -> TraceModel:
    """Empirical replay of (rate, power) pairs with empty queues."""
    def trace(values):
        return DistSpec("empirical", {"values": list(values)})

    return TraceModel(
        rate_up=trace(r for r, _ in up),
        rate_down=trace(r for r, _ in down),
        queue_up_bits=trace([0.0] * len(up)),
        queue_down_bits=trace([0.0] * len(down)),
        power_up=trace(p for _, p in up),
        power_down=trace(p for _, p in down),
        rate_floor_bps=1.0,
        seed=0,
    )


def _realized_energy(graph, decision, model, params) -> float:
    return simulate_execution(graph, decision, model, params, np.random.default_rng(0)).energy


def test_realized_energy_all_local_ignores_traces():
    graph = chain_graph([2, 3, 2], [10, 10])
    params = toy_params(kappa=1.0, f_c_hz=1.0)
    decision = _all_local(graph, params)
    value = _realized_energy(graph, decision, _replay_model(up=[], down=[]), params)
    assert value == 7.0


def test_realized_energy_single_uplink():
    graph = chain_graph([0, 1, 0], [8, 8])
    params = toy_params(kappa=1e-30)
    decision = OffloadDecision(
        {1: CLIENT, 2: SERVER, 3: CLIENT}, {1: 0, 2: 10, 3: 20}
    )
    value = _realized_energy(
        graph, decision, _replay_model(up=[(4.0, 2.0)], down=[(8.0, 1.0)]), params
    )
    # uplink: 2 * 8 / 4 = 4; downlink: 1 * 8 / 8 = 1; local ~ 0
    assert value == pytest.approx(5.0, abs=1e-20)


def test_realized_energy_trace_exhaustion():
    graph = chain_graph([0, 1, 0], [8, 8])
    params = toy_params(kappa=1e-30)
    decision = OffloadDecision(
        {1: CLIENT, 2: SERVER, 3: CLIENT}, {1: 0, 2: 10, 3: 20}
    )
    with pytest.raises(TraceExhaustedError):
        _realized_energy(graph, decision, _replay_model(up=[], down=[]), params)
