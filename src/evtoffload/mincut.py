"""Exact min cut for the deadline-free problem, and `solve --policy auto`.

Without the deadline psi is a two-terminal cut (Stone, IEEE TSE 1977).  The
network has an arc n -> t with the local energy kappa * w_n * f_c**2 of each
node n and, for each edge (u, v), an arc u -> v with theta_up * b and an arc
v -> u with theta_down * b.  Nodes 1 and N are merged into the source s, and
the source side runs on the client, so a cut costs exactly the psi of its
assignment.  The capacities are the energy terms of `energy.slot_table`,
which `worst_case_expected_energy` sums, as integers over one power of two,
so Dinic's flow is exact.

When the cut's schedule misses the deadline, a chain gets the search over
contiguous offload windows and any other graph column generation.  A chain
is found by its shape, whatever its numbering.
"""
from __future__ import annotations

import math
from dataclasses import replace

from . import colgen
from .energy import CLIENT, SERVER, InfeasibleError, SolveResult, SystemParams, slot_table
from .graph import TaskGraph, check_graph, topological_order
from .oracle import cheapest_feasible

EXIT_MINCUT = "mincut"
EXIT_WINDOW = "window"
SINK, SOURCE = 0, 1


def min_cut(graph: TaskGraph, params: SystemParams) -> tuple[list[int], int, int]:
    """(server nodes, psi * scale, scale) of the cheapest assignment, deadline ignored.

    The server side is every node that can still reach t after the maximum
    flow, the smallest sink side of any minimum cut: an exact tie keeps a
    node on the client.
    """
    n = graph.n_nodes
    table = slot_table(graph, params)
    vertex = list(range(n)) + [SOURCE]  # node id -> vertex; node N joins s
    arcs = [(vertex[node], SINK, table.local[node], 0.0) for node in graph.node_ids]
    arcs += [
        (vertex[src], vertex[dst], up, down)
        for src, dst, up, down in zip(graph.edge_src, graph.edge_dst, table.up, table.down)
        if vertex[src] != vertex[dst]
    ]
    scale = max(x.as_integer_ratio()[1] for arc in arcs for x in arc[2:])
    head, cap, adj = [], [], [[] for _ in range(n)]
    for a, b, forward, backward in arcs:  # arc i and its reverse i ^ 1
        for tail, tip, value in ((a, b, forward), (b, a, backward)):
            numer, denom = value.as_integer_ratio()
            adj[tail].append(len(head))
            head.append(tip)
            cap.append(numer * (scale // denom))
    flow = _max_flow(head, cap, adj)

    reach = [False] * n
    reach[SINK] = True
    queue = [SINK]
    for w in queue:
        for a in adj[w]:
            if cap[a ^ 1] and not reach[head[a]]:
                reach[head[a]] = True
                queue.append(head[a])
    return [m for m in graph.interior_ids() if reach[m]], flow, scale


def _max_flow(head: list[int], cap: list[int], adj: list[list[int]]) -> int:
    """Push a maximum s -> t flow into `cap` (Dinic, without recursion)."""
    total = 0
    while True:
        level = [-1] * len(adj)
        level[SOURCE] = 0
        queue = [SOURCE]
        for v in queue:
            for a in adj[v]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = level[v] + 1
                    queue.append(head[a])
        if level[SINK] < 0:
            return total
        nxt = [0] * len(adj)  # first arc of each vertex not yet found dead
        path: list[int] = []
        v = SOURCE
        while True:
            if v == SINK:
                push = min(cap[a] for a in path)
                total += push
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                del path[next(i for i, a in enumerate(path) if not cap[a]):]
                v = head[path[-1]] if path else SOURCE
                continue
            arcs, i = adj[v], nxt[v]
            while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == level[v] + 1):
                i += 1
            nxt[v] = i
            if i < len(arcs):
                path.append(arcs[i])
                v = head[arcs[i]]
            elif not path:
                break
            else:  # dead end: retreat over the arc into v
                v = head[path.pop() ^ 1]
                nxt[v] += 1


def solve(graph: TaskGraph, params: SystemParams) -> SolveResult:
    """The min cut, certified optimal, when its schedule meets the deadline.

    Otherwise, on a chain, the cheapest feasible contiguous offload window
    (or all-local), and on any other graph the column-generation result.
    A chain is known by its shape: its edges are the consecutive pairs of
    its topological order, whatever its ids.  Either way psi_lower is at
    least the cut, rounded down and shrunk by 2**-50 so that it stays below
    the float psi of every feasible decision.
    """
    check_graph(graph)
    server, cut, scale = min_cut(graph, params)
    local = dict.fromkeys(graph.node_ids, CLIENT)
    decision, report, _ = cheapest_feasible(graph, [local | dict.fromkeys(server, SERVER)], params)
    if decision is not None:
        return SolveResult(decision=decision, report=report, psi_lower=report.psi, log=[],
                           exit_reason=EXIT_MINCUT, optimal_certified=True, epsilon=params.epsilon)
    floor = _round_down(cut, scale) * (1.0 - 2.0**-50)
    path = topological_order(graph)
    if set(zip(graph.edge_src, graph.edge_dst)) == set(zip(path, path[1:])):
        inner = path[1:-1]
        windows = [()] + [inner[i:j] for i in range(len(inner)) for j in range(i + 1, len(inner) + 1)]
        locations = (local | dict.fromkeys(w, SERVER) for w in windows)
        decision, report, _ = cheapest_feasible(graph, locations, params)
        if decision is None:
            raise InfeasibleError("no offload window (including all-local) meets the deadline")
        return SolveResult(decision=decision, report=report, psi_lower=floor, log=[],
                           exit_reason=EXIT_WINDOW, optimal_certified=False, epsilon=params.epsilon)
    result = colgen.solve(graph, params)
    return replace(result, psi_lower=max(result.psi_lower, floor))


def _round_down(numer: int, denom: int) -> float:
    value = numer / denom  # correctly rounded
    p, q = value.as_integer_ratio()
    return math.nextafter(value, 0.0) if p * denom > numer * q else value
