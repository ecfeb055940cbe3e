"""The array replay against a literal per-replication loop, and the replay's
input checks.

`monte_carlo` computes all replications of a chunk together.  The reference
below replays one replication at a time with Python scalars, drawing each
replication's values in the documented stream order (per-replication
generator; per direction a vector of queue, then rate, then power; edges in
the order the recurrence visits them).  It keeps exact, unbounded slot
counts, so the comparison also shows that the saturation of slot counts at
`deadline_slots + 1` changes no verdict.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtoffload import simulate
from evtoffload.cli import main
from evtoffload.energy import (
    CLIENT,
    SERVER,
    OffloadDecision,
    SystemParams,
    TraceExhaustedError,
    slot_table,
)
from evtoffload.gev import TRACE_HEADER, GevParams, _read_trace_rows, gev_sample
from evtoffload.graph import DataEdge, TaskGraph, TaskModule, graph_to_dict, topological_order
from evtoffload.simulate import DistSpec, TraceModel, monte_carlo, simulate_execution

from conftest import chain_graph, toy_params

FIXTURE = Path(__file__).resolve().parent / "data" / "replay_fixed_reports.json"


# --- literal reference --------------------------------------------------------

def _reference_draw(spec: DistSpec, rng: np.random.Generator, size: int) -> list[float]:
    p = spec.params
    if spec.family == "lognormal":
        values = rng.lognormal(p["mean_log"], p["sigma_log"], size)
    elif spec.family == "uniform":
        values = rng.uniform(p["low"], p["high"], size)
    elif spec.family == "gev":
        values = gev_sample(GevParams(p["mu"], p["sigma"], p["xi"]), rng, size)
    else:
        if size > len(p["values"]):
            raise TraceExhaustedError("empirical trace exhausted")
        values = p["values"][:size]
    return [float(v) for v in values]


def reference_monte_carlo(graph, decision, model, params, replications) -> dict:
    """One replication at a time, scalar arithmetic, exact slot counts."""
    order = topological_order(graph)
    visits = [(parent, node) for node in order for parent in graph.parents[node]]
    cross = {"up": [], "down": []}
    for parent, node in visits:
        if decision.is_client(parent) != decision.is_client(node):
            cross["up" if decision.is_client(parent) else "down"].append((parent, node))
    quantities = {
        "up": (model.queue_up_bits, model.rate_up, model.power_up),
        "down": (model.queue_down_bits, model.rate_down, model.power_down),
    }
    threshold = {
        "up": params.z_up_slots * params.delta_s,
        "down": params.z_down_slots * params.delta_s,
    }
    coef = params.kappa * params.f_c_hz * params.f_c_hz
    exec_slots = slot_table(graph, params)

    energies = []
    violations = 0
    exceed = {edge: 0 for edges in cross.values() for edge in edges}
    for r in range(replications):
        rng = np.random.default_rng([model.seed, r])
        draws = {}
        for direction in ("up", "down"):
            size = len(cross[direction])
            if size:
                queue, rate, power = (_reference_draw(s, rng, size) for s in quantities[direction])
                for k, edge in enumerate(cross[direction]):
                    draws[edge] = (direction, queue[k], rate[k], power[k])
        terms = [coef * m.workload_cycles for m in graph.modules if decision.is_client(m.id)]
        completion: dict[int, int] = {}
        for node in order:
            ready = 0
            for parent in graph.parents[node]:
                transfer_slots = 0
                if (parent, node) in draws:
                    direction, queue, rate, power = draws[(parent, node)]
                    bits = graph.bits(parent, node)
                    queue = max(queue, 0.0)
                    rate = max(rate, model.rate_floor_bps)
                    power = max(power, 0.0)
                    seconds = (queue + bits) / rate
                    transfer_slots = math.ceil(seconds / params.delta_s)
                    terms.append(power * bits / rate)
                    if seconds > threshold[direction]:
                        exceed[(parent, node)] += 1
                ready = max(ready, completion[parent] + transfer_slots)
            completion[node] = ready + exec_slots.at(node, decision.location[node])
        energies.append(math.fsum(terms))
        if completion[graph.n_nodes] > params.deadline_slots:
            violations += 1

    energies = np.array(energies)
    edge_exceedance = {}
    for direction, edges in cross.items():
        for parent, node in edges:
            edge_exceedance[(parent, node, direction)] = exceed[(parent, node)]
    return {
        "replications": replications,
        "mean_energy": float(energies.mean()),
        "energy_quantiles": {
            "p50": float(np.quantile(energies, 0.50)),
            "p90": float(np.quantile(energies, 0.90)),
            "p99": float(np.quantile(energies, 0.99)),
        },
        "deadline_violation_rate": violations / replications,
        "edge_exceedance": {
            f"{src}->{dst}": {
                "direction": direction,
                "events": replications,
                "exceedances": count,
                "rate": count / replications,
            }
            for (src, dst, direction), count in sorted(edge_exceedance.items())
        },
        "seed": model.seed,
    }


# --- random cases ---------------------------------------------------------------

FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def dist_specs(draw, scale: float) -> DistSpec:
    family = draw(st.sampled_from(simulate.FAMILIES))
    if family == "lognormal":
        return DistSpec(family, {"mean_log": math.log(scale) + draw(st.floats(-2.0, 2.0)),
                                 "sigma_log": draw(st.floats(0.0, 1.5))})
    if family == "uniform":
        low = draw(st.floats(-scale, 2.0 * scale, **FINITE))
        width = draw(st.sampled_from([0.0, scale]))
        return DistSpec(family, {"low": low, "high": low + width})
    if family == "gev":
        return DistSpec(family, {"mu": scale, "sigma": draw(st.floats(0.01, 0.5)) * scale,
                                 "xi": draw(st.floats(-0.4, 0.4))})
    values = draw(st.lists(st.floats(-scale, 3.0 * scale, **FINITE), min_size=0, max_size=12))
    return DistSpec(family, {"values": values})


@st.composite
def replay_cases(draw):
    """A random DAG, decision, model and params; deadlines are often tight,
    so slot counts saturate, and empirical traces are sometimes short."""
    n = draw(st.integers(2, 9))
    modules = [TaskModule(i, draw(st.integers(0, 50))) for i in range(1, n + 1)]
    edges = [
        DataEdge(u, v, draw(st.integers(0, 5000)))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if draw(st.booleans())
    ]
    graph = TaskGraph(modules, edges)
    location = {i: draw(st.sampled_from([CLIENT, SERVER])) for i in range(1, n + 1)}
    decision = OffloadDecision(location, {i: 0 for i in range(1, n + 1)})
    model = TraceModel(
        rate_up=draw(dist_specs(1000.0)),
        rate_down=draw(dist_specs(1000.0)),
        queue_up_bits=draw(dist_specs(500.0)),
        queue_down_bits=draw(dist_specs(500.0)),
        power_up=draw(dist_specs(2.0)),
        power_down=draw(dist_specs(2.0)),
        rate_floor_bps=draw(st.sampled_from([1.0, 50.0, 400.0])),
        seed=draw(st.integers(0, 2**32)),
    )
    params = toy_params(
        delta_s=draw(st.sampled_from([0.01, 0.5, 1.0])),
        deadline_slots=draw(st.integers(1, 400)),
        z_up_s=draw(st.floats(0.05, 5.0)),
        z_down_s=draw(st.floats(0.05, 5.0)),
        kappa=draw(st.floats(0.001, 10.0)),
    )
    return graph, decision, model, params, draw(st.integers(1, 7))


@settings(max_examples=300, deadline=None)
@given(replay_cases())
def test_monte_carlo_equals_scalar_reference(case):
    graph, decision, model, params, replications = case
    try:
        expected = reference_monte_carlo(graph, decision, model, params, replications)
    except TraceExhaustedError:
        with pytest.raises(TraceExhaustedError):
            monte_carlo(graph, decision, model, params, replications)
        return
    assert monte_carlo(graph, decision, model, params, replications).to_dict() == expected


def _mixed_case():
    graph = chain_graph([3, 7, 2, 9, 4, 1], [800, 1200, 300, 2500, 600])
    location = {1: CLIENT, 2: SERVER, 3: CLIENT, 4: SERVER, 5: SERVER, 6: CLIENT}
    decision = OffloadDecision(location, {n: 0 for n in location})
    model = TraceModel(
        rate_up=DistSpec("lognormal", {"mean_log": 7.0, "sigma_log": 0.8}),
        rate_down=DistSpec("uniform", {"low": 500.0, "high": 3000.0}),
        queue_up_bits=DistSpec("gev", {"mu": 400.0, "sigma": 80.0, "xi": 0.2}),
        queue_down_bits=DistSpec("empirical", {"values": [10.0, 900.0]}),
        power_up=DistSpec("uniform", {"low": 1.0, "high": 3.0}),
        power_down=DistSpec("lognormal", {"mean_log": 0.0, "sigma_log": 0.3}),
        seed=23,
    )
    params = toy_params(delta_s=0.1, deadline_slots=120, z_up_s=1.5, z_down_s=0.8)
    return graph, decision, model, params


@pytest.mark.parametrize("rows", [1, 3, 41])
def test_chunking_never_changes_the_report(monkeypatch, rows):
    graph, decision, model, params = _mixed_case()
    replications = 41
    baseline = monte_carlo(graph, decision, model, params, replications).to_dict()
    width = simulate._Replay(graph, decision, model, params).width
    monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", rows * width)
    assert monte_carlo(graph, decision, model, params, replications).to_dict() == baseline
    monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 1)
    assert monte_carlo(graph, decision, model, params, replications).to_dict() == baseline


def test_single_run_is_replication_zero_of_the_reference():
    graph, decision, model, params = _mixed_case()
    run = simulate_execution(graph, decision, model, params, np.random.default_rng([23, 0]))
    report = reference_monte_carlo(graph, decision, model, params, 1)
    assert run.energy == report["mean_energy"]
    assert run.deadline_met == (report["deadline_violation_rate"] == 0.0)
    assert [(src, dst) for src, dst, *_ in run.transfers] == [(1, 2), (2, 3), (3, 4), (5, 6)]


# --- a replay that consumes no random numbers -----------------------------------

def _fixed_case(deadline_slots):
    """A 9-node DAG with uplink and downlink transfers, replayed under a
    model whose six quantities are all empirical or constant."""
    workloads = [1, 30, 25, 4, 40, 12, 3, 50, 1]
    modules = [TaskModule(i + 1, w) for i, w in enumerate(workloads)]
    edges = [DataEdge(s, d, b) for s, d, b in [
        (1, 2, 1200), (1, 3, 800), (2, 4, 500), (3, 4, 700), (3, 5, 900), (4, 6, 300),
        (5, 6, 400), (5, 7, 600), (6, 8, 1000), (7, 8, 250), (8, 9, 1500), (2, 9, 100),
    ]]
    graph = TaskGraph(modules, edges)
    server = {2, 3, 5, 6, 8}
    location = {n: SERVER if n in server else CLIENT for n in range(1, 10)}
    decision = OffloadDecision(location, {n: 0 for n in range(1, 10)})
    model = TraceModel(
        queue_up_bits=DistSpec("empirical", {"values": [100.0, -50.0, 2500.5, 40.0, 7.0]}),
        rate_up=DistSpec("uniform", {"low": 1e4, "high": 1e4}),
        power_up=DistSpec("empirical", {"values": [1.5, 2.0, 0.5, 3.25]}),
        queue_down_bits=DistSpec("uniform", {"low": 300.0, "high": 300.0}),
        rate_down=DistSpec("empirical", {"values": [5e3, 2e4, 10.0, 8e3, 1.2e4]}),
        power_down=DistSpec("uniform", {"low": 0.75, "high": 0.75}),
        rate_floor_bps=500.0,
        seed=17,
    )
    params = SystemParams(
        f_c_hz=1.0, f_s_hz=2.0, kappa=1e-3, delta_s=0.01, deadline_slots=deadline_slots,
        z_up_s=0.2, z_down_s=0.15,
    )
    return graph, decision, model, params


@pytest.mark.parametrize("name, deadline", [("loose", 100_000), ("tight", 40)])
def test_empirical_and_constant_replay_matches_recorded_report(name, deadline):
    # The recorded reports were made by the one-replication-at-a-time replay
    # that preceded the array replay; this model draws no random numbers, so
    # the change of stream order leaves them as they were.
    expected = json.loads(FIXTURE.read_text())[name]
    graph, decision, model, params = _fixed_case(deadline)
    report = monte_carlo(graph, decision, model, params, 4)
    assert json.loads(json.dumps(report.to_dict())) == expected


@pytest.mark.parametrize("queue, exceeded", [(0.0, 0), (1.0, 1)])
def test_exceedance_counts_only_times_above_the_planning_quantile(queue, exceeded):
    # 1000 bits at 1000 bit/s take exactly z_up = 2 slots of 0.5 s.
    graph = chain_graph([1, 1, 1], [1000, 1000])
    location = {1: CLIENT, 2: SERVER, 3: SERVER}
    decision = OffloadDecision(location, {1: 1, 2: 4, 3: 5})
    const = DistSpec("uniform", {"low": 1.0, "high": 1.0})
    model = TraceModel(
        rate_up=DistSpec("uniform", {"low": 1000.0, "high": 1000.0}),
        rate_down=const,
        queue_up_bits=DistSpec("empirical", {"values": [queue]}),
        queue_down_bits=const,
        power_up=const,
        power_down=const,
    )
    params = toy_params(delta_s=0.5, z_up_s=1.0, deadline_slots=50)
    report = monte_carlo(graph, decision, model, params, 3)
    assert report.edge_exceedance["1->2"]["exceedances"] == 3 * exceeded


# --- saturated slot counts ------------------------------------------------------

def test_infinite_transfer_time_saturates_without_overflow():
    graph = chain_graph([1, 2, 1], [500, 800])
    location = {1: CLIENT, 2: SERVER, 3: CLIENT}
    decision = OffloadDecision(location, {1: 1, 2: 2, 3: 3})
    huge = DistSpec("uniform", {"low": 1e300, "high": 1e300})
    model = TraceModel(
        rate_up=DistSpec("uniform", {"low": 0.0, "high": 0.0}),
        rate_down=DistSpec("uniform", {"low": 0.0, "high": 0.0}),
        queue_up_bits=huge,
        queue_down_bits=huge,
        power_up=DistSpec("uniform", {"low": 1.0, "high": 1.0}),
        power_down=DistSpec("uniform", {"low": 1.0, "high": 1.0}),
        rate_floor_bps=1e-300,
    )
    params = toy_params(deadline_slots=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = simulate_execution(graph, decision, model, params, np.random.default_rng(0))
        report = monte_carlo(graph, decision, model, params, 3)
    assert run.transfers[0][3] == math.inf
    assert run.completion == {1: 1, 2: 51, 3: 51}
    assert not run.deadline_met
    assert report.deadline_violation_rate == 1.0
    assert all(stats["rate"] == 1.0 for stats in report.edge_exceedance.values())


def test_huge_execution_slot_count_saturates():
    graph = chain_graph([1, 10**30, 1], [1, 1])
    location = {n: CLIENT for n in (1, 2, 3)}
    decision = OffloadDecision(location, {1: 1, 2: 2, 3: 3})
    const = DistSpec("uniform", {"low": 1.0, "high": 1.0})
    model = TraceModel(const, const, const, const, const, const)
    params = toy_params(deadline_slots=10)
    run = simulate_execution(graph, decision, model, params, np.random.default_rng(0))
    assert run.completion == {1: 1, 2: 11, 3: 11}
    assert monte_carlo(graph, decision, model, params, 2).deadline_violation_rate == 1.0


# --- trace CSV loader -----------------------------------------------------------

def _csv_reference(path) -> dict[str, np.ndarray]:
    """The per-cell csv parse the loader replaced."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError("bad header")
        cols: list[list[float]] = [[] for _ in TRACE_HEADER]
        for row in reader:
            if not row:
                continue
            if len(row) != len(TRACE_HEADER):
                raise ValueError("bad field count")
            for i, cell in enumerate(row):
                cols[i].append(float(cell))
    return {name: np.asarray(col, dtype=float) for name, col in zip(TRACE_HEADER, cols)}


HEADER_LINE = ",".join(TRACE_HEADER)
ROW_A = "0,1500.25,812.5,200000.0,800000.0,1000.0,400.0"
ROW_B = "1,0.1,3e2,1.5e5,9.25e5,1199.999999,301.000001"


@pytest.mark.parametrize("body", [
    f"{HEADER_LINE}\n{ROW_A}\n",
    f"{HEADER_LINE}\n{ROW_A}",
    f"{HEADER_LINE}\n\n{ROW_A}\n\n{ROW_B}\n\n",
    f"{HEADER_LINE}\r\n{ROW_A}\r\n{ROW_B}\r\n",
    f"{HEADER_LINE}\n",
    "\n".join([HEADER_LINE] + [ROW_A, ROW_B] * 50) + "\n",
])
def test_trace_loader_matches_csv_parse(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_bytes(body.encode())
    got, want = _read_trace_rows(path), _csv_reference(path)
    assert list(got) == list(want)
    for name in TRACE_HEADER:
        assert got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes()


@pytest.mark.parametrize("body", [
    "",
    "t_ms,queue_up_bits\n0,1\n",
    f"{HEADER_LINE},extra\n{ROW_A},1\n",
    f"{HEADER_LINE}\n{ROW_A}\n0,1,2\n",
    f"{HEADER_LINE}\n{ROW_A},9\n",
    f"{HEADER_LINE}\n{ROW_A},9\n{ROW_B},9\n",
    f"{HEADER_LINE}\n{ROW_A}\n0,1,2,3,4,5,x\n",
    f"{HEADER_LINE}\n0,1,2,,4,5,6\n",
    f"{HEADER_LINE}\n#{ROW_A}\n",
])
def test_trace_loader_rejects_malformed_csv(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    with pytest.raises(ValueError):
        _csv_reference(path)
    with pytest.raises(ValueError):
        _read_trace_rows(path)


def test_fit_rejects_malformed_csv_with_exit_2(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(f"{HEADER_LINE}\n{ROW_A}\n0,1,2,3,4,5,x\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--traces", str(path), "--k", "1", "--out", str(out)]) == 2
    assert not out.exists()


# --- model and decision checks --------------------------------------------------

def _const(value):
    return DistSpec("uniform", {"low": value, "high": value})


def _model_dict(**overrides) -> dict:
    const = {"family": "uniform", "params": {"low": 1e6, "high": 1e6}}
    data = {name: const for name in simulate.QUANTITIES}
    data.update(overrides)
    return data


@pytest.mark.parametrize("family, params", [
    ("lognormal", {"mean_log": math.inf, "sigma_log": 1.0}),
    ("lognormal", {"mean_log": 1.0, "sigma_log": math.nan}),
    ("lognormal", {"mean_log": 1.0, "sigma_log": -0.1}),
    ("lognormal", {"mean_log": 1.0}),
    ("uniform", {"low": 0.0, "high": math.inf}),
    ("uniform", {"low": -math.inf, "high": 0.0}),
    ("uniform", {"low": 2.0, "high": 1.0}),
    ("uniform", {"low": -1e308, "high": 1e308}),
    ("uniform", {"low": "0", "high": 1.0}),
    ("gev", {"mu": 1.0, "sigma": 0.0, "xi": 0.1}),
    ("gev", {"mu": 1.0, "sigma": -1.0, "xi": 0.1}),
    ("gev", {"mu": 1.0, "sigma": 1.0, "xi": math.nan}),
    ("empirical", {"values": [1.0, math.inf]}),
    ("empirical", {"values": [1.0, None]}),
    ("empirical", {"values": 3.0}),
])
def test_dist_spec_rejects_invalid_parameters(family, params):
    with pytest.raises(ValueError):
        DistSpec(family, params)


def test_dist_spec_accepts_degenerate_but_valid_parameters():
    DistSpec("lognormal", {"mean_log": 0.0, "sigma_log": 0.0})
    DistSpec("uniform", {"low": 3.0, "high": 3.0})
    DistSpec("empirical", {"values": []})


@pytest.mark.parametrize("field, value", [
    ("rate_floor_bps", -5.0),
    ("rate_floor_bps", 0.0),
    ("rate_floor_bps", math.inf),
    ("rate_floor_bps", math.nan),
    ("rate_floor_bps", "1e3"),
    ("seed", 1.5),
    ("seed", True),
    ("seed", -1),
    ("seed", "3"),
])
def test_trace_model_rejects_invalid_fields(field, value):
    with pytest.raises(ValueError):
        TraceModel.from_dict(dict(_model_dict(), **{field: value}))


def test_trace_model_stores_integral_seed_as_int():
    model = TraceModel.from_dict(dict(_model_dict(), seed=4.0, rate_floor_bps=7))
    assert model.seed == 4 and isinstance(model.seed, int)
    assert model.rate_floor_bps == 7.0 and isinstance(model.rate_floor_bps, float)


def test_trace_model_requires_every_quantity():
    data = _model_dict()
    del data["power_down"]
    with pytest.raises(ValueError, match="power_down"):
        TraceModel.from_dict(data)


def _chain_case():
    graph = chain_graph([1, 2, 1], [500, 800])
    location = {1: CLIENT, 2: SERVER, 3: CLIENT}
    decision = OffloadDecision(location, {1: 1, 2: 3, 3: 6})
    model = TraceModel(*[_const(1e6)] * 6)
    return graph, decision, model, toy_params(deadline_slots=100)


@pytest.mark.parametrize("location", [
    {1: CLIENT, 2: SERVER},
    {1: CLIENT, 2: SERVER, 3: CLIENT, 4: CLIENT},
    {1: CLIENT, 2: "Server", 3: CLIENT},
    {1: CLIENT, 2: "edge", 3: CLIENT},
])
def test_replay_rejects_a_decision_that_does_not_fit_the_graph(location):
    graph, _, model, params = _chain_case()
    decision = OffloadDecision(location, {n: 1 for n in location})
    with pytest.raises(ValueError):
        monte_carlo(graph, decision, model, params, 2)
    with pytest.raises(ValueError):
        simulate_execution(graph, decision, model, params, np.random.default_rng(0))


def _simulate_cli(tmp_path, decision_nodes, model_data) -> int:
    graph, _, _, params = _chain_case()
    (tmp_path / "dag.json").write_text(json.dumps(graph_to_dict(graph)))
    params.to_json(tmp_path / "config.json")
    (tmp_path / "decision.json").write_text(json.dumps({"nodes": decision_nodes}))
    (tmp_path / "model.json").write_text(json.dumps(model_data))
    return main([
        "--config", str(tmp_path / "config.json"), "simulate",
        "--dag", str(tmp_path / "dag.json"), "--decision", str(tmp_path / "decision.json"),
        "--model", str(tmp_path / "model.json"), "--replications", "3",
        "--out", str(tmp_path / "report.json"),
    ])


GOOD_NODES = [
    {"id": 1, "location": "client", "slot": 1},
    {"id": 2, "location": "server", "slot": 3},
    {"id": 3, "location": "client", "slot": 6},
]


def test_simulate_cli_accepts_the_good_inputs(tmp_path):
    assert _simulate_cli(tmp_path, GOOD_NODES, _model_dict(seed=2)) == 0
    assert json.loads((tmp_path / "report.json").read_text())["replications"] == 3


@pytest.mark.parametrize("nodes", [
    GOOD_NODES[:2],
    [dict(GOOD_NODES[0]), dict(GOOD_NODES[1], location="Server"), dict(GOOD_NODES[2])],
    [dict(GOOD_NODES[0]), {"id": 2, "location": "server"}, dict(GOOD_NODES[2])],
])
def test_simulate_cli_rejects_a_bad_decision_with_exit_2(tmp_path, nodes):
    assert _simulate_cli(tmp_path, nodes, _model_dict()) == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("overrides", [
    {"rate_floor_bps": -5},
    {"rate_floor_bps": 0},
    {"seed": 1.5},
    {"rate_up": {"family": "uniform", "params": {"low": 0.0, "high": math.inf}}},
    {"queue_up_bits": {"family": "gev", "params": {"mu": 1.0, "sigma": 0.0, "xi": 0.0}}},
    {"power_up": {"family": "lognormal", "params": {"mean_log": 0.0, "sigma_log": -1.0}}},
    # A valid model whose trace is shorter than the chain's one uplink.
    {"rate_up": {"family": "empirical", "params": {"values": []}}},
])
def test_simulate_cli_rejects_a_bad_model_with_exit_2(tmp_path, overrides):
    assert _simulate_cli(tmp_path, GOOD_NODES, _model_dict(**overrides)) == 2
    assert not (tmp_path / "report.json").exists()
