"""Task-graph model for offloadable applications.

An application is a DAG whose nodes carry a CPU-cycle workload and whose
edges carry the number of bits handed from one module to the next.  Node 1
is the entry module and node N the final (display) module; both always run
on the client device.
"""
from __future__ import annotations

import collections
import functools
import heapq
import itertools
import json
import operator
import os
import stat
from dataclasses import dataclass
from pathlib import Path

# `json.dumps` of one key or scalar that refuses NaN and the infinities, which
# JSON has no form for; built once, as `json.dumps` builds its own default.
_encode = json.JSONEncoder(allow_nan=False).encode


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


class TaskGraph:
    """DAG of task modules, held as flat columns.  Treat as immutable:
    derived tables are cached on first use.

    The columns keep the input order: `node_ids` and `node_workloads` per
    node, `edge_src`, `edge_dst` and `edge_bits` per edge, whose position is
    its edge id.  The CSR lists group the edges by node.  Their rows are the
    distinct node ids ascending, `row_ids`, and `row` maps an id to its row.
    For row r, `parent_edge[parent_ptr[r]:parent_ptr[r + 1]]` are the ids of
    the edges into its node, ascending by source, and the same slice of
    `parent_id` holds those sources; `child_ptr`, `child_edge` and
    `child_id` hold the edges out of it, ascending by target.  An edge end
    that names no node has no row.

    A graph loaded by `graph_from_dict` is built from its columns; its
    `modules` and `edges` objects are made from them on first use.  The CSR
    lists are the graph's one neighbour index: every layer reads a node's
    parents and children from them.
    """

    def __init__(self, modules: list[TaskModule], edges: list[DataEdge]):
        self.modules, self.edges = modules, edges
        self._set_columns(
            [m.id for m in modules], [m.workload_cycles for m in modules],
            [e.src for e in edges], [e.dst for e in edges], [e.bits for e in edges],
        )

    @classmethod
    def from_columns(cls, node_ids, node_workloads, edge_src, edge_dst, edge_bits) -> "TaskGraph":
        """A graph of lists of ints, one per node or edge, in input order."""
        graph = cls.__new__(cls)
        graph._set_columns(node_ids, node_workloads, edge_src, edge_dst, edge_bits)
        return graph

    def _set_columns(self, node_ids, node_workloads, edge_src, edge_dst, edge_bits) -> None:
        self.node_ids, self.node_workloads = node_ids, node_workloads
        self.edge_src, self.edge_dst, self.edge_bits = edge_src, edge_dst, edge_bits
        self.row_ids = sorted(set(node_ids))
        self.row = dict(zip(self.row_ids, itertools.count()))
        self.parent_ptr, self.parent_edge, self.parent_id = _csr(self.row, edge_dst, edge_src)
        self.child_ptr, self.child_edge, self.child_id = _csr(self.row, edge_src, edge_dst)

    @functools.cached_property
    def modules(self) -> list[TaskModule]:
        return list(map(TaskModule, self.node_ids, self.node_workloads))

    @functools.cached_property
    def edges(self) -> list[DataEdge]:
        return list(map(DataEdge, self.edge_src, self.edge_dst, self.edge_bits))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def parent_slice(self, node: int) -> slice:
        """`node`'s part of `parent_edge` and `parent_id`."""
        r = self.row[node]
        return slice(self.parent_ptr[r], self.parent_ptr[r + 1])

    @functools.cached_property
    def _slot_tables(self) -> dict:
        """`energy.slot_table`'s tables of this graph, by the config values they read."""
        return {}

    @functools.cached_property
    def _topological_order(self) -> tuple[int, ...]:
        ptr, row_ids = self.parent_ptr, self.row_ids
        if all(map(operator.lt, self.edge_src, self.edge_dst)):
            # Every edge points up the ids, so the smallest unplaced id is
            # always free, and Kahn's algorithm below places the ids in order.
            return tuple(row_ids)
        # Kahn's algorithm over the rows, which ascend by id, so the heap
        # breaks ties by ascending id.  A parent counts when it is a node
        # other than the child itself.
        parent_row = list(map(self.row.get, self.parent_id, itertools.repeat(-1)))
        known = [[p for p in parent_row[ptr[r]:ptr[r + 1]] if p >= 0 and p != r] for r in range(len(row_ids))]
        indeg = list(map(len, known))
        heap = [r for r, d in enumerate(indeg) if d == 0]
        child_row = list(map(self.row.get, self.child_id, itertools.repeat(-1)))
        cptr = self.child_ptr
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in child_row[cptr[u]:cptr[u + 1]]:  # a self-loop takes u's own count below 0
                if v >= 0:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        heapq.heappush(heap, v)

        if len(order) != len(row_ids):
            # Every unplaced node has an unplaced parent: walk up from the
            # smallest one until a node repeats, which closes a cycle.
            placed = set(order)
            seen: set[int] = set()
            v = min(set(range(len(row_ids))) - placed)
            while v not in seen:
                seen.add(v)
                u, v = v, next(p for p in known[v] if p not in placed)
            raise GraphError(f"cycle detected through edge {row_ids[v]}->{row_ids[u]}")
        return tuple(row_ids[r] for r in order)

    @functools.cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(_find_violations(self))

    def interior_ids(self) -> list[int]:
        n = self.n_nodes
        return [i for i in self.node_ids if 1 < i < n]


def _csr(row: dict[int, int], ends: list[int], others: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(ptr, edge ids, other-end ids) of the edges grouped by the row of
    `ends`, each group ascending by the other end, then by edge id.  An edge
    whose end has no row is left out."""
    end_row = list(map(row.get, ends, itertools.repeat(-1)))
    order = sorted(range(len(ends)), key=others.__getitem__)
    order.sort(key=end_row.__getitem__)  # stable: keeps each row's order
    del order[:end_row.count(-1)]
    counts = collections.Counter(end_row)
    ptr = [0, *itertools.accumulate(map(counts.__getitem__, range(len(row))))]
    return ptr, order, list(map(others.__getitem__, order))


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
    ids, n = graph.node_ids, graph.n_nodes

    if n < 2:
        violations.append("graph must contain at least 2 modules")
    if len(graph.row_ids) != n:
        violations.append("duplicate node ids")
    elif ids and (graph.row_ids[0] != 1 or graph.row_ids[-1] != n):
        violations.append("non-contiguous ids (expected 1..N)")

    for node, workload in zip(ids, graph.node_workloads):
        if workload < 0:
            violations.append(f"negative workload on node {node}")
        elif 1 < node < n and workload == 0:
            violations.append(f"zero workload on interior node {node}")

    src, dst, bits = graph.edge_src, graph.edge_dst, graph.edge_bits
    pairs = set(zip(src, dst))
    # Checked per list; only a graph that fails is walked edge by edge,
    # which names each defect in edge order.
    if (
        len(pairs) != len(src)
        or not graph.row.keys() >= {*src, *dst}
        or any(map(operator.eq, src, dst))
        or min(bits, default=0) < 0
    ):
        seen_pairs = set()
        for u, v, b in zip(src, dst, bits):
            if u == v:
                violations.append(f"self-loop on node {u}")
            if u not in graph.row or v not in graph.row:
                violations.append(f"edge {u}->{v} references unknown node")
                continue
            if (u, v) in seen_pairs:
                violations.append(f"duplicate edge {u}->{v}")
            seen_pairs.add((u, v))
            if b < 0:
                violations.append(f"negative bits on edge {u}->{v}")

    for node, ptr, message in ((1, graph.parent_ptr, "node 1 must have no parents"),
                               (n, graph.child_ptr, f"node {n} must have no children")):
        r = graph.row.get(node)
        if r is not None and ptr[r] != ptr[r + 1]:
            violations.append(message)

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
    node_ids, node_workloads = _columns(data["nodes"], "node", ("id", "workload_cycles"))
    edge_src, edge_dst, edge_bits = _columns(data["edges"], "edge", ("from", "to", "bits"))
    return TaskGraph.from_columns(node_ids, node_workloads, edge_src, edge_dst, edge_bits)


def _columns(items: list, what: str, keys: tuple[str, ...]) -> list[list[int]]:
    """The `keys` columns of a list of entries, each a dict of exactly these
    keys with int values.

    The checks run per list.  Only a list that fails them is walked entry by
    entry, so that the error names its first bad entry.
    """
    if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(keys)}:
        try:
            columns = [list(map(operator.itemgetter(key), items)) for key in keys]
        except KeyError:
            pass
        else:
            if set(map(type, itertools.chain.from_iterable(columns))) <= {int}:
                return columns
    for item in items:
        if not isinstance(item, dict) or set(item) != set(keys):
            raise SchemaError(f"bad {what} entry: {item!r}")
        if not all(is_int(item[key]) for key in keys):
            raise SchemaError(f"{what} fields must be integers: {item!r}")
    # Every entry passed: some are subclasses of dict or int.
    return [[item[key] for item in items] for key in keys]


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

    The bytes are those of `json.dumps(data, indent=2, sort_keys=True)`, and
    a NaN or infinite value raises ValueError before the file is opened.  An
    indent sends `json` to its pure-Python encoder, so the layout is made here
    and the values are encoded by the C encoder: a list of flat dicts
    (nonempty, with scalar values) in one call, a dict of them in one call per
    member, anything else value by value.  Keys must be strings.
    """
    write_text(path, _indented(data, 0) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as it is, without newline translation; every
    output file of the package is written here.  A file is rewritten in
    place and then, if it is a regular file (`/dev/null` is not), cut to the
    length written: truncating it first can make the close wait for the
    disk.  A new file gets the mode `open(path, "w")` gives it."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as out:
        out.write(text)
        out.flush()
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            os.ftruncate(out.fileno(), out.buffer.tell())


def _indented(value, depth: int) -> str:
    """`value` laid out as `json.dumps(..., indent=2, sort_keys=True)` lays
    it out `depth` levels deep."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, dict) and value:
        if _are_flat_dicts(value.values()):
            # One C call per member (each edge of a replay report's
            # `edge_exceedance`): its item separator carries the key indent.
            deeper = inner + "  "
            separators = ("," + deeper, ": ")
            items = [
                _encode(key) + ": {" + deeper
                + json.dumps(value[key], sort_keys=True, separators=separators, allow_nan=False)[1:-1]
                + inner + "}"
                for key in sorted(value)
            ]
        else:
            items = [_encode(key) + ": " + _indented(value[key], depth + 1) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if _are_flat_dicts(value):
            # One C call for the whole list (the `nodes` and `edges` lists):
            # its item separator already carries the dicts' key indent.
            # Encoded JSON has a raw newline only inside a separator, and a
            # scalar never ends in "}", so "},<newline>" ends a dict.
            deeper = inner + "  "
            text = json.dumps(value, sort_keys=True, separators=("," + deeper, ": "), allow_nan=False)
            body = text[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            return "[" + inner + "{" + deeper + body + inner + "}" + pad + "]"
        items = [_indented(item, depth + 1) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _encode(value)


def _are_flat_dicts(items) -> bool:
    """Whether every item is a nonempty dict whose values are all scalars."""
    # map() keeps the per-value work in C: a generator here costs as much
    # as the encoding it serves.
    if set(map(type, items)) != {dict} or not all(items):
        return False
    kinds = set(map(type, itertools.chain.from_iterable(map(dict.values, items))))
    return not any(issubclass(kind, (dict, list, tuple)) for kind in kinds)
