"""Task-graph model for offloadable applications.

An application is a DAG whose nodes carry a CPU-cycle workload and whose
edges carry the number of bits handed from one module to the next.  Node 1
is the entry module and node N the final (display) module; both always run
on the client device.
"""
from __future__ import annotations

import functools
import heapq
import json
from dataclasses import dataclass, field
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
    """DAG of task modules. Treat as immutable: derived indices are cached on first use."""

    modules: list[TaskModule]
    edges: list[DataEdge]
    parents: dict[int, list[int]] = field(default_factory=dict)
    children: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        self.parents = {m.id: [] for m in self.modules}
        self.children = {m.id: [] for m in self.modules}
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
        indeg = {m.id: 0 for m in self.modules}
        adj: dict[int, list[int]] = {m.id: [] for m in self.modules}
        for e in self.edges:
            if e.src in adj and e.dst in indeg and e.src != e.dst:
                adj[e.src].append(e.dst)
                indeg[e.dst] += 1

        heap = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in sorted(adj[u]):
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, v)

        if len(order) != len(indeg):
            u, v = _find_cycle_edge(adj, {i for i, d in indeg.items() if d > 0})
            raise GraphError(f"cycle detected through edge {u}->{v}")
        return tuple(order)

    def interior_ids(self) -> list[int]:
        n = self.n_nodes
        return [i for i in self.node_ids if 1 < i < n]


def validate_graph(graph: TaskGraph) -> list[str]:
    """Check every structural invariant; returns the list of violations.

    An empty list means the graph is valid.  Violations are reported as
    data rather than raised, so callers can collect and display all of them.
    """
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


def _find_cycle_edge(adj: dict[int, list[int]], remaining: set[int]) -> tuple[int, int]:
    # DFS over the unresolved subgraph; the first back edge sits on a cycle.
    color: dict[int, int] = {}
    for start in sorted(remaining):
        if color.get(start):
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            node, idx = stack[-1]
            succs = [v for v in adj[node] if v in remaining]
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                state = color.get(nxt, 0)
                if state == 1:
                    return node, nxt
                if state == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                stack.pop()
    raise GraphError("cycle detected")  # pragma: no cover - defensive


def graph_to_dict(graph: TaskGraph) -> dict:
    """Canonical JSON form: nodes ascending by id, edges ascending by (from, to)."""
    nodes = sorted(graph.modules, key=lambda m: m.id)
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst))
    return {
        "nodes": [{"id": m.id, "workload_cycles": m.workload_cycles} for m in nodes],
        "edges": [{"from": e.src, "to": e.dst, "bits": e.bits} for e in edges],
    }


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
        if not isinstance(item["id"], int) or not isinstance(item["workload_cycles"], int):
            raise SchemaError(f"node fields must be integers: {item!r}")
        modules.append(TaskModule(item["id"], item["workload_cycles"]))

    edges = []
    for item in data["edges"]:
        if not isinstance(item, dict) or set(item) != {"from", "to", "bits"}:
            raise SchemaError(f"bad edge entry: {item!r}")
        if not all(isinstance(item[k], int) for k in ("from", "to", "bits")):
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
    violations = validate_graph(graph)
    if violations:
        raise GraphValidationError(violations)
    return graph


def save_graph(graph: TaskGraph, path: str | Path) -> None:
    """Write the canonical JSON form (save o load is the identity)."""
    write_json(path, graph_to_dict(graph))


def write_json(path: str | Path, data) -> None:
    """Write `data` as every JSON file of the package is written: sorted keys,
    a two-space indent and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
