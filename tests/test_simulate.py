import hashlib
import json
import math

import numpy as np
import pytest

from evtoffload.energy import MAX_DEADLINE_SLOTS, CLIENT, SERVER, OffloadDecision, TraceExhaustedError
from evtoffload.gev import GevParams, gev_quantile
from evtoffload.graph import graph_to_dict, validate_graph
from evtoffload.oracle import earliest_completion
from evtoffload.simulate import (
    DistSpec,
    LayeredDagSpec,
    TraceModel,
    gen_layered_dag,
    monte_carlo,
    simulate_execution,
)

from conftest import chain_graph, graph_views, toy_params


def _const(value):
    return DistSpec("uniform", {"low": value, "high": value})


def _model(**overrides) -> TraceModel:
    base = dict(
        rate_up=_const(1e6),
        rate_down=_const(1e6),
        queue_up_bits=_const(0.0),
        queue_down_bits=_const(0.0),
        power_up=_const(100.0),
        power_down=_const(50.0),
        rate_floor_bps=1e3,
        seed=0,
    )
    base.update(overrides)
    return TraceModel(**base)


def _offload_middle(graph, params):
    location = {1: CLIENT, 2: SERVER, 3: CLIENT}
    return OffloadDecision(location, earliest_completion(graph, location, params).slots)


def test_degenerate_model_transfers_take_one_slot():
    graph = chain_graph([1, 5, 1], [1000, 1000])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=500)
    decision = _offload_middle(graph, params)
    model = _model(rate_up=_const(1e12), rate_down=_const(1e12))
    run = simulate_execution(graph, decision, model, params, np.random.default_rng(0))
    assert all(math.ceil(seconds / params.delta_s) <= 1 for *_edge, seconds in run.transfers)
    local = params.kappa * params.f_c_hz**2 * (1 + 1)
    assert run.energy == pytest.approx(local, abs=1e-6)


def test_all_local_energy_constant_across_replications():
    graph = chain_graph([2, 3, 2], [10, 10])
    params = toy_params(f_c_hz=1.0)
    location = {n: CLIENT for n in graph.node_ids}
    decision = OffloadDecision(location, earliest_completion(graph, location, params).slots)
    model = _model(
        rate_up=DistSpec("lognormal", {"mean_log": 10.0, "sigma_log": 1.0}),
        rate_down=DistSpec("lognormal", {"mean_log": 10.0, "sigma_log": 1.0}),
    )
    energies = {
        simulate_execution(graph, decision, model, params, np.random.default_rng(r)).energy
        for r in range(10)
    }
    assert len(energies) == 1  # no randomness consumed


def test_empirical_replay_matches_hand_computation():
    graph = chain_graph([1, 2, 1], [500, 800])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, kappa=1e-12, deadline_slots=500)
    decision = _offload_middle(graph, params)
    model = _model(
        rate_up=DistSpec("empirical", {"values": [1000.0]}),
        queue_up_bits=DistSpec("empirical", {"values": [500.0]}),
        power_up=DistSpec("empirical", {"values": [2.0]}),
        rate_down=DistSpec("empirical", {"values": [400.0]}),
        queue_down_bits=DistSpec("empirical", {"values": [200.0]}),
        power_down=DistSpec("empirical", {"values": [3.0]}),
        rate_floor_bps=1.0,
    )
    run = simulate_execution(graph, decision, model, params, np.random.default_rng(0))
    # uplink: power*bits/rate = 2*500/1000 = 1; downlink: 3*800/400 = 6
    assert run.energy == pytest.approx(7.0, abs=1e-9)
    up_s = (500 + 500) / 1000
    down_s = (200 + 800) / 400
    assert run.transfers[0][3] == pytest.approx(up_s)
    assert run.transfers[1][3] == pytest.approx(down_s)
    # completion: 1 + ceil(1.0) + exec_s(2)=1 + ceil(2.5) + exec_c(3)=1
    assert run.completion[3] == 1 + 1 + 1 + 3 + 1


def test_empirical_replay_exhaustion():
    graph = chain_graph([1, 2, 1], [500, 800])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=500)
    decision = _offload_middle(graph, params)
    model = _model(rate_up=DistSpec("empirical", {"values": []}))
    with pytest.raises(TraceExhaustedError):
        simulate_execution(graph, decision, model, params, np.random.default_rng(0))


def test_monte_carlo_single_replication_equals_single_run():
    graph = chain_graph([1, 2, 1], [500, 800])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=500)
    decision = _offload_middle(graph, params)
    model = _model(seed=42)
    report = monte_carlo(graph, decision, model, params, 1)
    run = simulate_execution(graph, decision, model, params, np.random.default_rng([42, 0]))
    assert report.mean_energy == run.energy
    assert report.replications == 1


def test_monte_carlo_deterministic():
    graph = chain_graph([1, 2, 1], [500, 800])
    params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=500)
    decision = _offload_middle(graph, params)
    model = _model(
        seed=7,
        rate_up=DistSpec("lognormal", {"mean_log": 13.0, "sigma_log": 0.5}),
        queue_up_bits=DistSpec("gev", {"mu": 1000.0, "sigma": 200.0, "xi": 0.1}),
    )
    a = monte_carlo(graph, decision, model, params, 50)
    b = monte_carlo(graph, decision, model, params, 50)
    assert a.to_dict() == b.to_dict()


def test_monte_carlo_violation_rate_monotone_in_deadline():
    graph = chain_graph([1, 2, 1], [500, 800])
    model = _model(
        seed=3,
        rate_up=DistSpec("lognormal", {"mean_log": 6.0, "sigma_log": 1.5}),
        rate_down=DistSpec("lognormal", {"mean_log": 6.0, "sigma_log": 1.5}),
    )
    rates = []
    for deadline in (5, 20, 80, 320):
        params = toy_params(f_c_hz=1.0, f_s_hz=2.0, deadline_slots=deadline)
        location = {1: CLIENT, 2: SERVER, 3: CLIENT}
        slots = earliest_completion(graph, location, params).slots
        slots = {n: min(s, deadline) for n, s in slots.items()}
        decision = OffloadDecision(location, slots)
        rates.append(monte_carlo(graph, decision, model, params, 300).deadline_violation_rate)
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_exceedance_calibration_quick():
    # Queue ~ GEV and constant rate make the transfer time exactly GEV
    # distributed; the planning quantile at eps_m must be exceeded at rate
    # eps_m up to slot rounding.
    v_params = GevParams(2.0, 0.4, 0.1)
    rate = 1e5
    payload = 10_000
    qu_params = {"mu": v_params.mu * rate - payload, "sigma": v_params.sigma * rate, "xi": v_params.xi}
    z_up = gev_quantile(v_params, 0.1)
    graph = chain_graph([1, 2, 1], [payload, payload])
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        delta_s=0.001,
        z_up_s=z_up,
        z_down_s=z_up,
        deadline_slots=100_000,
    )
    decision = _offload_middle(graph, params)
    model = _model(
        seed=11,
        rate_up=_const(rate),
        rate_down=_const(rate),
        queue_up_bits=DistSpec("gev", qu_params),
        queue_down_bits=DistSpec("gev", qu_params),
    )
    report = monte_carlo(graph, decision, model, params, 2000)
    for stats in report.edge_exceedance.values():
        assert abs(stats["rate"] - 0.1) < 0.03


def test_planning_quantile_beyond_float_range_is_never_exceeded():
    # 1e300 s in slots of 1e-300 s is a slot count beyond float range: the
    # exceedance threshold reads inf.
    graph = chain_graph([1, 2, 1], [10, 10])
    params = toy_params(delta_s=1e-300, z_up_s=1e300, z_down_s=1e300, deadline_slots=10**8)
    decision = OffloadDecision({1: CLIENT, 2: SERVER, 3: CLIENT}, {1: 1, 2: 2, 3: 3})
    report = monte_carlo(graph, decision, _model(), params, 20)
    assert [stats["exceedances"] for stats in report.edge_exceedance.values()] == [0, 0]
    assert report.deadline_violation_rate == 1.0


def test_replay_at_the_deadline_ceiling_stays_in_int64():
    # Execution and transfer slots all saturate at T + 1, so each completion
    # adds three counts of T + 1 before it is capped, which int64 holds at
    # the ceiling: every replication reads a violation, none wraps around.
    graph = chain_graph([10**19] * 3, [10, 10])
    params = toy_params(f_c_hz=1.0, f_s_hz=1.0, deadline_slots=MAX_DEADLINE_SLOTS)
    decision = OffloadDecision({1: CLIENT, 2: SERVER, 3: CLIENT}, {1: 1, 2: 2, 3: 3})
    model = _model(rate_up=_const(1e-300), rate_down=_const(1e-300), rate_floor_bps=1e-300)
    assert monte_carlo(graph, decision, model, params, 5).deadline_violation_rate == 1.0


def test_dist_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        DistSpec("weibull", {})


def test_trace_model_json_roundtrip(tmp_path):
    model = _model(seed=5)
    payload = {
        name: {"family": getattr(model, name).family, "params": getattr(model, name).params}
        for name in (
            "rate_up",
            "rate_down",
            "queue_up_bits",
            "queue_down_bits",
            "power_up",
            "power_down",
        )
    }
    payload["rate_floor_bps"] = model.rate_floor_bps
    payload["seed"] = model.seed
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    again = TraceModel.from_json(path)
    assert again == model


# --- layered DAG generator ---------------------------------------------------

def test_gen_two_nodes_forces_edge():
    graph = gen_layered_dag(LayeredDagSpec(n_nodes=2, edge_prob=0.5), np.random.default_rng(0))
    assert [(e.src, e.dst) for e in graph.edges] == [(1, 2)]


def test_gen_deterministic_given_seed():
    spec = LayeredDagSpec(n_nodes=100, edge_prob=0.05)
    a = gen_layered_dag(spec, np.random.default_rng(7))
    b = gen_layered_dag(spec, np.random.default_rng(7))
    assert graph_to_dict(a) == graph_to_dict(b)


def test_gen_validity_and_connectivity_sweep():
    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 26))
        graph = gen_layered_dag(LayeredDagSpec(n_nodes=n, edge_prob=0.15), rng)
        assert validate_graph(graph) == []
        views = graph_views(graph)
        # Reachability from node 1 and co-reachability of node N.
        fwd = {1}
        stack = [1]
        while stack:
            u = stack.pop()
            for v in views.children[u]:
                if v not in fwd:
                    fwd.add(v)
                    stack.append(v)
        bwd = {graph.n_nodes}
        stack = [graph.n_nodes]
        while stack:
            u = stack.pop()
            for v in views.parents[u]:
                if v not in bwd:
                    bwd.add(v)
                    stack.append(v)
        assert fwd == set(graph.node_ids)
        assert bwd == set(graph.node_ids)
        checked += 1
    assert checked == 1000


# One sha256 per shape, over seeds 0-19, of each graph's node ids and
# workloads and its edge columns: the shapes the golden corpus
# (`random_small_instance`, edge_prob 0.5) does not reach.
_GEN_SHAPE_DIGESTS = {
    "width_max-1": ({"n_nodes": 40, "edge_prob": 0.3, "width_max": 1},
                    "04a156ca3c4d139350c72205eec22023d8f011935044c286583644a4a01b67ce"),
    "edge_prob-1.0": ({"n_nodes": 40, "edge_prob": 1.0},
                      "1bc209f50bf962bff7480cc3385fe828e840ca5ae36f0053439de47d5e498d21"),
    "edge_prob-0.01": ({"n_nodes": 60, "edge_prob": 0.01},
                       "e4ca184ce9baefa927459f861db63a9f483546445b63505ff7094e6139fc3ddd"),
    "n-2": ({"n_nodes": 2, "edge_prob": 0.5}, "8534cfada33ea9447db5780d983bd72b07d164d356c93b20f06d04fed2c3de53"),
    "n-3": ({"n_nodes": 3, "edge_prob": 0.05}, "54433a616f562a08efcd3e79ea5890b6c6bfc7e449ca6873336bde3f14f96cb1"),
}


@pytest.mark.parametrize("shape", sorted(_GEN_SHAPE_DIGESTS))
def test_gen_shapes_beyond_the_golden_corpus_are_pinned(shape):
    fields, expected = _GEN_SHAPE_DIGESTS[shape]
    h = hashlib.sha256()
    for seed in range(20):
        graph = gen_layered_dag(LayeredDagSpec(**fields), np.random.default_rng(seed))
        columns = [graph.node_ids, graph.node_workloads, graph.edge_src, graph.edge_dst, graph.edge_bits]
        h.update(json.dumps(columns).encode())
    assert h.hexdigest() == expected


def test_gen_rejects_bad_spec():
    with pytest.raises(ValueError):
        LayeredDagSpec(n_nodes=1, edge_prob=0.5)
    with pytest.raises(ValueError):
        LayeredDagSpec(n_nodes=5, edge_prob=0.0)
