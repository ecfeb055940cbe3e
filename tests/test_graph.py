import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evtoffload import colgen, graph as graph_module, mincut
from evtoffload.energy import SystemParams
from evtoffload.graph import (
    DataEdge,
    GraphError,
    GraphValidationError,
    SchemaError,
    TaskGraph,
    TaskModule,
    graph_to_dict,
    load_graph,
    save_graph,
    topological_order,
    validate_graph,
    write_json,
    write_text,
)
from evtoffload.simulate import LayeredDagSpec, gen_layered_dag

from conftest import INSTANCE_DIR, chain_graph


def test_two_node_chain_is_valid():
    graph = chain_graph([0, 5], [100])
    assert validate_graph(graph) == []


def test_two_cycle_reported():
    graph = TaskGraph(
        [TaskModule(1, 0), TaskModule(2, 1)],
        [DataEdge(1, 2, 10), DataEdge(2, 1, 10)],
    )
    violations = validate_graph(graph)
    assert any("cycle" in v for v in violations)


def test_non_contiguous_ids_reported():
    graph = TaskGraph([TaskModule(1, 0), TaskModule(3, 2)], [DataEdge(1, 3, 5)])
    assert any("contiguous" in v for v in validate_graph(graph))


def test_interior_zero_workload_reported():
    graph = chain_graph([1, 0, 1], [5, 5])
    assert any("zero workload" in v for v in validate_graph(graph))


def test_duplicate_edge_and_self_loop_reported():
    graph = TaskGraph(
        [TaskModule(1, 0), TaskModule(2, 1), TaskModule(3, 0)],
        [DataEdge(1, 2, 1), DataEdge(1, 2, 1), DataEdge(3, 3, 1), DataEdge(2, 3, 1)],
    )
    violations = validate_graph(graph)
    assert any("duplicate edge" in v for v in violations)
    assert any("self-loop" in v for v in violations)


def test_endpoint_adjacency_rules():
    graph = TaskGraph(
        [TaskModule(1, 0), TaskModule(2, 1), TaskModule(3, 0)],
        [DataEdge(2, 1, 1), DataEdge(3, 2, 1)],
    )
    violations = validate_graph(graph)
    assert any("node 1 must have no parents" in v for v in violations)
    assert any("must have no children" in v for v in violations)


def test_topological_chain():
    assert topological_order(chain_graph([1, 1, 1], [1, 1])) == [1, 2, 3]


def test_topological_tie_broken_by_id():
    graph = TaskGraph(
        [TaskModule(i, 1) for i in range(1, 5)],
        [DataEdge(1, 2, 1), DataEdge(1, 3, 1), DataEdge(2, 4, 1), DataEdge(3, 4, 1)],
    )
    assert topological_order(graph) == [1, 2, 3, 4]


def test_topological_single_node():
    graph = TaskGraph([TaskModule(1, 0)], [])
    assert topological_order(graph) == [1]


def test_topological_cycle_names_an_edge():
    graph = TaskGraph(
        [TaskModule(i, 1) for i in range(1, 4)],
        [DataEdge(1, 2, 1), DataEdge(2, 3, 1), DataEdge(3, 2, 1)],
    )
    with pytest.raises(GraphError, match=r"cycle detected through edge \d+->\d+"):
        topological_order(graph)


@st.composite
def messy_graphs(draw):
    """Node ids from 1..8 and edges between ids from 0..9: unknown ids,
    self-loops and duplicate edges come up, and half the graphs point every
    edge up the ids, which leaves their known, non-self edges acyclic."""
    ids = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=14))
    if draw(st.booleans()):
        pairs = [(min(u, v), max(u, v)) for u, v in pairs]
    return TaskGraph([TaskModule(i, 1) for i in ids], [DataEdge(u, v, 1) for u, v in pairs])


def _known_arcs(graph):
    known = {m.id for m in graph.modules}
    return {(e.src, e.dst) for e in graph.edges if e.src in known and e.dst in known and e.src != e.dst}


def _reference_order(graph):
    """Repeatedly place the smallest node whose known, non-self parents are
    all placed; None when some node never gets there."""
    arcs, left, order = _known_arcs(graph), {m.id for m in graph.modules}, []
    while left:
        ready = [v for v in left if not any(dst == v and src in left for src, dst in arcs)]
        if not ready:
            return None
        order.append(min(ready))
        left.remove(order[-1])
    return order


@settings(max_examples=400, deadline=None)
@given(messy_graphs())
@example(graph=TaskGraph([TaskModule(i, 1) for i in (1, 2, 3, 4)], [DataEdge(u, v, 1) for u, v in (
    (1, 2), (2, 3), (3, 1), (4, 4), (4, 9), (2, 4),
)]))
def test_topological_order_matches_a_literal_reference(graph):
    expected = _reference_order(graph)
    if expected is not None:
        assert topological_order(graph) == expected
        return
    with pytest.raises(GraphError) as info:
        topological_order(graph)
    u, v = map(int, re.fullmatch(r"cycle detected through edge (\d+)->(\d+)", str(info.value)).groups())
    arcs = _known_arcs(graph)
    assert (u, v) in arcs
    reached, frontier = {v}, [v]  # the named edge closes a path v ~> u
    for a in frontier:
        for src, dst in arcs:
            if src == a and dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    assert u in reached


def test_smart_diagnosis_instance_loads():
    graph = load_graph(INSTANCE_DIR / "smart_diagnosis.json")
    assert graph.n_nodes == 14
    assert validate_graph(graph) == []


def test_empty_node_list_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [], "edges": []}))
    with pytest.raises(SchemaError, match="empty node list"):
        load_graph(path)


def test_malformed_json_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="malformed JSON"):
        load_graph(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"nodes": [{"id": 1, "workload_cycles": 0, "name": "x"}], "edges": []})
    )
    with pytest.raises(SchemaError):
        load_graph(path)


def test_invalid_graph_raises_on_load(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [{"id": 1, "workload_cycles": 0}, {"id": 2, "workload_cycles": 1}],
                "edges": [{"from": 1, "to": 2, "bits": 1}, {"from": 2, "to": 1, "bits": 1}],
            }
        )
    )
    with pytest.raises(GraphValidationError):
        load_graph(path)


def test_a_graph_is_validated_once(monkeypatch):
    calls = []
    find = graph_module._find_violations
    monkeypatch.setattr(graph_module, "_find_violations", lambda g: calls.append(g) or find(g))
    graph = load_graph(INSTANCE_DIR / "smart_diagnosis.json")
    colgen.solve(graph, SystemParams())
    mincut.solve(graph, SystemParams())
    assert calls == [graph]


def test_validate_graph_returns_a_fresh_list_each_call():
    graph = TaskGraph([TaskModule(1, 0), TaskModule(2, 0)], [DataEdge(2, 1, 1)])
    first = validate_graph(graph)
    assert first == ["node 1 must have no parents", "node 2 must have no children"]
    first.clear()
    assert validate_graph(graph) == ["node 1 must have no parents", "node 2 must have no children"]


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
# Lists of dicts of scalars, the layout `write_json` encodes in one call; some
# hold an empty dict, which it must not.
_FLAT_DICT_LISTS = st.lists(st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3), min_size=1)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.recursive(
        _SCALARS | _FLAT_DICT_LISTS,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | _FLAT_DICT_LISTS,
        max_leaves=20,
    )
)
@example(data=[{"a": 1}, {}])
@example(data=[{"a": (1, 2)}])
@example(data={"nodes": [{"id": 1, "location": "client", "slot": 2}], "psi": 0.5})
def test_write_json_matches_the_indenting_encoder(tmp_path, data):
    path = tmp_path / "data.json"
    write_json(path, data)
    assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"x" * 4096 + b"\n")
    write_json(path, {"a": [1]})
    assert path.read_bytes() == b'{\n  "a": [\n    1\n  ]\n}\n'
    log = [colgen.IterationRecord(0, 2.5, 1.0, 0.5, None), colgen.IterationRecord(1, 2.0, 1.5, 0.25, 3)]
    colgen.write_iteration_log(path, log)
    assert path.read_bytes() == (
        b"iter,psi_upper,psi_lower,r_underbar,admitted_node\r\n0,2.5,1.0,0.5,\r\n1,2.0,1.5,0.25,3\r\n"
    )
    write_text(path, "a\r\n")
    assert path.read_bytes() == b"a\r\n"


def test_save_load_roundtrip(tmp_path):
    graph = chain_graph([0, 5, 7], [100, 200])
    path = tmp_path / "g.json"
    save_graph(graph, path)
    again = load_graph(path)
    assert graph_to_dict(again) == graph_to_dict(graph)
    # Byte-exact on a second save of the reloaded graph.
    path2 = tmp_path / "g2.json"
    save_graph(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("seed", range(25))
def test_generated_graphs_always_validate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    spec = LayeredDagSpec(n_nodes=n, edge_prob=0.2)
    graph = gen_layered_dag(spec, rng)
    assert validate_graph(graph) == []
