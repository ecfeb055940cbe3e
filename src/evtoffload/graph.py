"""Task-graph model for offloadable applications.

An application is a DAG whose nodes carry a CPU-cycle workload and whose
edges carry the number of bits handed from one module to the next.  Node 1
is the entry module and node N the final (display) module; both always run
on the client device.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import json
from dataclasses import dataclass
from pathlib import Path


class GraphError(Exception):
    """Structurally unusable graph (cycle, bad construction input)."""


class SchemaError(GraphError):
    """DAG file does not match the expected JSON schema."""


class GraphValidationError(GraphError):
    """A loaded graph failed invariant validation."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class TaskModule:
    """One computation module: node id and workload in CPU cycles."""

    id: int
    workload_cycles: int


@dataclass(frozen=True)
class DataEdge:
    """Dependency edge carrying `bits` of output data from src to dst."""

    src: int
    dst: int
    bits: int


@dataclass
class TaskGraph:
    """DAG of task modules. Treat as immutable: derived indices are cached on first use.

    `parents` and `children` list, for each node id, the ids at the other
    end of its edges, ascending.
    """

    modules: list[TaskModule]
    edges: list[DataEdge]

    def __post_init__(self):
        self.parents: dict[int, list[int]] = {m.id: [] for m in self.modules}
        self.children: dict[int, list[int]] = {m.id: [] for m in self.modules}
        # In (src, dst) order, so that both lists of every node come out sorted.
        for src, dst in sorted((e.src, e.dst) for e in self.edges):
            if src in self.children:
                self.children[src].append(dst)
            if dst in self.parents:
                self.parents[dst].append(src)

    @property
    def n_nodes(self) -> int:
        return len(self.modules)

    @property
    def node_ids(self) -> list[int]:
        return [m.id for m in self.modules]

    def workload(self, node: int) -> int:
        return self._workloads[node]

    @functools.cached_property
    def _workloads(self) -> dict[int, int]:
        return {m.id: m.workload_cycles for m in self.modules}

    @functools.cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Position in `edges` of each (src, dst) pair."""
        return {(e.src, e.dst): i for i, e in enumerate(self.edges)}

    def bits(self, src: int, dst: int) -> int:
        return self.edges[self.edge_index[(src, dst)]].bits

    @functools.cached_property
    def _slot_tables(self) -> dict:
        """`energy.slot_table`'s tables of this graph, by the config values they read."""
        return {}

    @functools.cached_property
    def _topological_order(self) -> tuple[int, ...]:
        # Kahn's algorithm over the known parents of each node, self-loops
        # aside; the heap breaks ties by ascending id.
        parents, children = self.parents, self.children
        indeg = {v: sum(u in parents and u != v for u in ps) for v, ps in parents.items()}
        heap = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in children[u]:  # a self-loop takes u's own count below 0
                if v in indeg:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        heapq.heappush(heap, v)

        if len(order) != len(indeg):
            # Every unplaced node has an unplaced parent: walk up from the
            # smallest one until a node repeats, which closes a cycle.
            placed = set(order)
            seen: set[int] = set()
            v = min(indeg.keys() - placed)
            while v not in seen:
                seen.add(v)
                u, v = v, next(p for p in parents[v] if p in parents and p != v and p not in placed)
            raise GraphError(f"cycle detected through edge {v}->{u}")
        return tuple(order)

    @functools.cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(_find_violations(self))

    def interior_ids(self) -> list[int]:
        n = self.n_nodes
        return [i for i in self.node_ids if 1 < i < n]


def validate_graph(graph: TaskGraph) -> list[str]:
    """Check every structural invariant; returns the list of violations.

    An empty list means the graph is valid.  Violations are reported as
    data rather than raised, so callers can collect and display all of them.
    The check runs once per graph; later calls return a copy of its findings.
    """
    return list(graph._violations)


def check_graph(graph: TaskGraph) -> None:
    """Raise `GraphValidationError` naming every violation `validate_graph` finds."""
    violations = validate_graph(graph)
    if violations:
        raise GraphValidationError(violations)


def _find_violations(graph: TaskGraph) -> list[str]:
    violations: list[str] = []
    ids = [m.id for m in graph.modules]
    n = len(ids)

    if n < 2:
        violations.append("graph must contain at least 2 modules")
    if len(set(ids)) != n:
        violations.append("duplicate node ids")
    elif ids and (min(ids) != 1 or max(ids) != n or set(ids) != set(range(1, n + 1))):
        violations.append("non-contiguous ids (expected 1..N)")

    id_set = set(ids)
    for m in graph.modules:
        if m.workload_cycles < 0:
            violations.append(f"negative workload on node {m.id}")
        elif 1 < m.id < n and m.workload_cycles == 0:
            violations.append(f"zero workload on interior node {m.id}")

    seen_pairs = set()
    for e in graph.edges:
        if e.src == e.dst:
            violations.append(f"self-loop on node {e.src}")
        if e.src not in id_set or e.dst not in id_set:
            violations.append(f"edge {e.src}->{e.dst} references unknown node")
            continue
        if (e.src, e.dst) in seen_pairs:
            violations.append(f"duplicate edge {e.src}->{e.dst}")
        seen_pairs.add((e.src, e.dst))
        if e.bits < 0:
            violations.append(f"negative bits on edge {e.src}->{e.dst}")

    if n >= 1 and 1 in graph.parents and graph.parents[1]:
        violations.append("node 1 must have no parents")
    if n >= 1 and n in graph.children and graph.children.get(n):
        violations.append(f"node {n} must have no children")

    try:
        topological_order(graph)
    except GraphError as exc:
        violations.append(str(exc))

    return violations


def topological_order(graph: TaskGraph) -> list[int]:
    """Deterministic topological order, ties broken by ascending node id.

    Raises GraphError naming one edge on a cycle if the graph is cyclic.
    """
    return list(graph._topological_order)


def graph_to_dict(graph: TaskGraph) -> dict:
    """Canonical JSON form: nodes ascending by id, edges ascending by (from, to)."""
    nodes = sorted(graph.modules, key=lambda m: m.id)
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst))
    return {
        "nodes": [{"id": m.id, "workload_cycles": m.workload_cycles} for m in nodes],
        "edges": [{"from": e.src, "to": e.dst, "bits": e.bits} for e in edges],
    }


def is_int(value) -> bool:
    """An int of an input file: JSON's true and false are not ints here."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_dict(data: dict) -> TaskGraph:
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
        if not all(is_int(item[k]) for k in ("id", "workload_cycles")):
            raise SchemaError(f"node fields must be integers: {item!r}")
        modules.append(TaskModule(item["id"], item["workload_cycles"]))

    edges = []
    for item in data["edges"]:
        if not isinstance(item, dict) or set(item) != {"from", "to", "bits"}:
            raise SchemaError(f"bad edge entry: {item!r}")
        if not all(is_int(item[k]) for k in ("from", "to", "bits")):
            raise SchemaError(f"edge fields must be integers: {item!r}")
        edges.append(DataEdge(item["from"], item["to"], item["bits"]))

    return TaskGraph(modules, edges)


def load_graph(path: str | Path) -> TaskGraph:
    """Load, schema-check and validate a DAG file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    graph = graph_from_dict(data)
    check_graph(graph)
    return graph


def save_graph(graph: TaskGraph, path: str | Path) -> None:
    """Write the canonical JSON form (save o load is the identity)."""
    write_json(path, graph_to_dict(graph))


def write_json(path: str | Path, data) -> None:
    """Write `data` as every JSON file of the package is written: sorted keys,
    a two-space indent and a final newline.

    The bytes are those of `json.dumps(data, indent=2, sort_keys=True)`.  An
    indent sends `json` to its pure-Python encoder, so the layout is made
    here and the values are encoded by the C encoder.  Keys must be strings.
    """
    write_text(path, _indented(data, 0) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as it is, without newline translation; every
    output file of the package is written here."""
    Path(path).write_text(text, newline="")


def _indented(value, depth: int) -> str:
    """`value` laid out as `json.dumps(..., indent=2, sort_keys=True)` lays
    it out `depth` levels deep."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [json.dumps(key) + ": " + _indented(value[key], depth + 1) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if _are_flat_dicts(value):
            # One C call for the whole list (the `nodes` and `edges` lists):
            # its item separator already carries the dicts' key indent.
            # Encoded JSON has a raw newline only inside a separator, and a
            # scalar never ends in "}", so "},<newline>" ends a dict.
            deeper = inner + "  "
            text = json.dumps(value, sort_keys=True, separators=("," + deeper, ": "))
            body = text[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            return "[" + inner + "{" + deeper + body + inner + "}" + pad + "]"
        items = [_indented(item, depth + 1) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def _are_flat_dicts(items) -> bool:
    """Whether every item is a nonempty dict whose values are all scalars."""
    # map() keeps the per-value work in C: a generator here costs as much
    # as the encoding it serves.
    if set(map(type, items)) != {dict} or not all(items):
        return False
    kinds = set(map(type, itertools.chain.from_iterable(map(dict.values, items))))
    return not any(issubclass(kind, (dict, list, tuple)) for kind in kinds)
