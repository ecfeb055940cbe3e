import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evtoffload import colgen, energy, graph as graph_module, mincut
from evtoffload.cli import main
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


def _nodes(*workloads):
    return [{"id": i, "workload_cycles": w} for i, w in enumerate(workloads, 1)]


@pytest.mark.parametrize("data, error, message", [
    ({"nodes": _nodes(0), "edges": []}, GraphValidationError, "graph must contain at least 2 modules"),
    ({"nodes": _nodes(0, 1) + [{"id": 2, "workload_cycles": 1}], "edges": []},
     GraphValidationError, "duplicate node ids"),
    ({"nodes": _nodes(0, -1, 0), "edges": []}, GraphValidationError, "negative workload on node 2"),
    ({"nodes": _nodes(0, 0), "edges": [{"from": 1, "to": 5, "bits": 1}]},
     GraphValidationError, "edge 1->5 references unknown node"),
    ({"nodes": _nodes(0, 0), "edges": [{"from": 1, "to": 2, "bits": -3}]},
     GraphValidationError, "negative bits on edge 1->2"),
    ([{"id": 1, "workload_cycles": 0}], SchemaError, "top level must be a JSON object"),
    ({"nodes": _nodes(0, 0)}, SchemaError, "missing or invalid 'edges' list"),
    ({"nodes": {"1": 0}, "edges": []}, SchemaError, "missing or invalid 'nodes' list"),
    ({"nodes": _nodes(0, 0), "edges": [{"from": 1, "to": 2}]}, SchemaError, "bad edge entry"),
    ({"nodes": _nodes(0, 0), "edges": [[1, 2, 3]]}, SchemaError, "bad edge entry"),
    ({"nodes": [{"id": 1, "workload_cycles": True}, {"id": 2, "workload_cycles": 0}], "edges": []},
     SchemaError, "node fields must be integers: {'id': 1, 'workload_cycles': True}"),
    ({"nodes": _nodes(0, 0), "edges": [{"from": 1, "to": 2, "bits": 1.0}]},
     SchemaError, "edge fields must be integers: {'from': 1, 'to': 2, 'bits': 1.0}"),
])
def test_load_graph_names_each_input_error(tmp_path, capsys, data, error, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error, match=re.escape(message)):
        load_graph(path)
    out = tmp_path / "out.json"
    assert main(["solve", "--dag", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
_FLAT_DICTS = st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3)
# Lists of dicts of scalars and dicts of them, the layouts `write_json`
# encodes in one call per list or member; some hold an empty dict, which it
# must not.
_FLAT_DICT_LISTS = st.lists(_FLAT_DICTS, min_size=1)
_FLAT_DICT_DICTS = st.dictionaries(st.text(max_size=4), _FLAT_DICTS, min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.recursive(
        _SCALARS | _FLAT_DICT_LISTS | _FLAT_DICT_DICTS,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | _FLAT_DICT_LISTS
        | _FLAT_DICT_DICTS,
        max_leaves=20,
    )
)
@example(data=[{"a": 1}, {}])
@example(data=[{"a": (1, 2)}])
@example(data={"nodes": [{"id": 1, "location": "client", "slot": 2}], "psi": 0.5})
@example(data={"1->2": {"rate": 0.5}, "2->3": {}})
@example(data={"1->2": {"direction": '},\n    "x": {\\n', "rate": 0.5}, "2->3": {"a": "\\n},"}})
@example(data={"1->2": {"rate": 0.5}, "2->3": {"a": {"b": 1}}, "3->4": {"c": [1, {"d": 2}]}})
@example(data={"edge_exceedance": {"1->2": {"events": 3, "rate": 1 / 3}}, "seed": 0})
@example(data={"mean_energy": math.inf, "p50": math.nan})
def test_write_json_matches_the_indenting_encoder(tmp_path, data):
    # NaN and the infinities are not JSON: both refuse them, and no file is written.
    path = tmp_path / "data.json"
    path.unlink(missing_ok=True)
    try:
        expected = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, data)
        assert not path.exists()
        return
    write_json(path, data)
    assert path.read_text() == expected


def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"x" * 4096 + b"\n")
    write_json(path, {"a": [1]})
    assert path.read_bytes() == b'{\n  "a": [\n    1\n  ]\n}\n'
    log = [energy.IterationRecord(0, 2.5, 1.0, 0.5, None), energy.IterationRecord(1, 2.0, 1.5, 0.25, 3)]
    energy.write_iteration_log(path, log)
    assert path.read_bytes() == (
        b"iter,psi_upper,psi_lower,r_underbar,admitted_node\r\n0,2.5,1.0,0.5,\r\n1,2.0,1.5,0.25,3\r\n"
    )
    write_text(path, "a\r\n")
    assert path.read_bytes() == b"a\r\n"


def test_a_new_output_file_gets_the_mode_open_gives(tmp_path):
    previous = os.umask(0o027)
    try:
        write_text(tmp_path / "written", "x")
        open(tmp_path / "opened", "w").close()
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("written", "opened")]
    assert modes[0] == modes[1] == 0o640


def test_outputs_can_be_written_to_the_null_device():
    write_json(os.devnull, {"a": [1]})
    write_text(os.devnull, "a\n")


def test_write_json_refuses_nan_before_the_file_is_opened(tmp_path):
    # Opening a path in a missing directory would raise FileNotFoundError.
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "missing" / "data.json", {"a": math.nan})


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


# --- the column loader against a per-entry reference --------------------------

def _reference_load(data):
    """The per-entry loader that the columns replace, with the graph facts it
    derived from the objects: (modules, edges, parents, children, the
    topological order or the cycle message, violations)."""
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    for key in ("nodes", "edges"):
        if key not in data or not isinstance(data[key], list):
            raise SchemaError(f"missing or invalid '{key}' list")
    if not data["nodes"]:
        raise SchemaError("empty node list")
    modules = []
    for item in data["nodes"]:
        if not isinstance(item, dict) or set(item) != {"id", "workload_cycles"}:
            raise SchemaError(f"bad node entry: {item!r}")
        if not all(graph_module.is_int(item[k]) for k in ("id", "workload_cycles")):
            raise SchemaError(f"node fields must be integers: {item!r}")
        modules.append(TaskModule(item["id"], item["workload_cycles"]))
    edges = []
    for item in data["edges"]:
        if not isinstance(item, dict) or set(item) != {"from", "to", "bits"}:
            raise SchemaError(f"bad edge entry: {item!r}")
        if not all(graph_module.is_int(item[k]) for k in ("from", "to", "bits")):
            raise SchemaError(f"edge fields must be integers: {item!r}")
        edges.append(DataEdge(item["from"], item["to"], item["bits"]))

    parents = {m.id: [] for m in modules}
    children = {m.id: [] for m in modules}
    for src, dst in sorted((e.src, e.dst) for e in edges):
        if src in children:
            children[src].append(dst)
        if dst in parents:
            parents[dst].append(src)

    indeg = {v: sum(u in parents and u != v for u in ps) for v, ps in parents.items()}
    heap = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while heap:
        u = heap.pop(0)
        order.append(u)
        for v in children[u]:
            if v in indeg:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heap = sorted(heap + [v])
    if len(order) != len(indeg):
        placed, seen = set(order), set()
        v = min(indeg.keys() - placed)
        while v not in seen:
            seen.add(v)
            u, v = v, next(p for p in parents[v] if p in parents and p != v and p not in placed)
        order = f"cycle detected through edge {v}->{u}"

    violations = []
    ids = [m.id for m in modules]
    n = len(ids)
    if n < 2:
        violations.append("graph must contain at least 2 modules")
    if len(set(ids)) != n:
        violations.append("duplicate node ids")
    elif ids and (min(ids) != 1 or max(ids) != n or set(ids) != set(range(1, n + 1))):
        violations.append("non-contiguous ids (expected 1..N)")
    for m in modules:
        if m.workload_cycles < 0:
            violations.append(f"negative workload on node {m.id}")
        elif 1 < m.id < n and m.workload_cycles == 0:
            violations.append(f"zero workload on interior node {m.id}")
    seen_pairs = set()
    for e in edges:
        if e.src == e.dst:
            violations.append(f"self-loop on node {e.src}")
        if e.src not in parents or e.dst not in parents:
            violations.append(f"edge {e.src}->{e.dst} references unknown node")
            continue
        if (e.src, e.dst) in seen_pairs:
            violations.append(f"duplicate edge {e.src}->{e.dst}")
        seen_pairs.add((e.src, e.dst))
        if e.bits < 0:
            violations.append(f"negative bits on edge {e.src}->{e.dst}")
    if parents.get(1):
        violations.append("node 1 must have no parents")
    if children.get(n):
        violations.append(f"node {n} must have no children")
    if isinstance(order, str):
        violations.append(order)
    return modules, edges, parents, children, order, violations


_NODE_KEYS, _EDGE_KEYS = ("id", "workload_cycles"), ("from", "to", "bits")
_NOT_INTS = st.sampled_from([True, False, 1.5, 2.0, "1", None, [1]])


@st.composite
def dag_dicts(draw):
    """DAG dicts with node ids from 1..8 (duplicates allowed) and edge ends
    from 0..9: unknown ends, self-loops, duplicate edges and cycles come up.
    Some have entries broken: a value that is not an int, a key missing or
    extra, an entry that is not a dict, or a broken top level."""
    ids = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    data = {
        "nodes": [{"id": i, "workload_cycles": draw(st.integers(-1, 3))} for i in ids],
        "edges": [
            {"from": u, "to": v, "bits": draw(st.integers(-1, 5))}
            for u, v in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
        ],
    }
    if draw(st.booleans()):  # point every edge up the ids: acyclic but for self-loops
        for edge in data["edges"]:
            edge["from"], edge["to"] = sorted((edge["from"], edge["to"]))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["nodes", "edges"]))
        entries = data[key]
        if not entries:
            continue
        i = draw(st.integers(0, len(entries) - 1))
        if not isinstance(entries[i], dict):
            continue
        field = draw(st.sampled_from(_NODE_KEYS if key == "nodes" else _EDGE_KEYS))
        kind = draw(st.sampled_from(["value", "missing", "extra", "entry"]))
        entry = dict(entries[i])
        if kind == "value":
            entry[field] = draw(_NOT_INTS)
        elif kind == "missing":
            entry.pop(field, None)
        elif kind == "extra":
            entry["name"] = 0
        else:
            entry = draw(st.sampled_from([[1, 2], 3, "node", None]))
        entries[i] = entry
    top = draw(st.sampled_from(["keep"] * 8 + ["no-edges", "nodes-dict", "empty-nodes", "list"]))
    if top == "no-edges":
        del data["edges"]
    elif top == "nodes-dict":
        data["nodes"] = {"1": 0}
    elif top == "empty-nodes":
        data["nodes"] = []
    elif top == "list":
        data = [data]
    return data


_EARLY_TYPE_THEN_SHAPE = {
    "nodes": [{"id": 1, "workload_cycles": True}, {"id": 2}, {"id": 3, "workload_cycles": 0}],
    "edges": [],
}


@settings(max_examples=300, deadline=None)
@given(dag_dicts())
@example(data=_EARLY_TYPE_THEN_SHAPE)
@example(data={"nodes": _nodes(0, 1, 0), "edges": [
    {"from": 1, "to": 2, "bits": 1.5}, {"from": 2, "to": 3}]})
@example(data={"nodes": _nodes(0, 1, 1, 0), "edges": [
    {"from": 1, "to": 2, "bits": 1}, {"from": 2, "to": 3, "bits": 1},
    {"from": 3, "to": 2, "bits": 1}, {"from": 3, "to": 4, "bits": 1}]})
def test_loader_matches_a_per_entry_reference(data):
    try:
        modules, edges, parents, children, order, violations = _reference_load(data)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as info:
            graph_module.graph_from_dict(data)
        assert str(info.value) == str(exc)
        return
    graph = graph_module.graph_from_dict(data)
    assert graph.modules == modules
    assert graph.edges == edges
    row = graph.row
    for ptr, other, reference in ((graph.parent_ptr, graph.parent_id, parents),
                                  (graph.child_ptr, graph.child_id, children)):
        assert {v: other[ptr[row[v]]:ptr[row[v] + 1]] for v in dict.fromkeys(graph.node_ids)} == reference
    if isinstance(order, str):
        with pytest.raises(GraphError, match=re.escape(order)):
            topological_order(graph)
    else:
        assert topological_order(graph) == order
    assert validate_graph(graph) == violations


def test_a_type_error_is_named_before_a_later_shape_error():
    with pytest.raises(SchemaError) as info:
        graph_module.graph_from_dict(_EARLY_TYPE_THEN_SHAPE)
    assert str(info.value) == "node fields must be integers: {'id': 1, 'workload_cycles': True}"
