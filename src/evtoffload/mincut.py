"""Exact min cut for the deadline-free problem, and `solve --policy auto`.

Without the deadline psi is a two-terminal cut (Stone, IEEE TSE 1977).  The
network has an arc n -> t with the local energy kappa * w_n * f_c**2 of each
node n and, for each edge (u, v), an arc u -> v with theta_up * b and an arc
v -> u with theta_down * b.  Nodes 1 and N are merged into the source s, and
the source side runs on the client, so a cut costs exactly the psi of its
assignment.  The capacities are the energy terms of `energy.slot_table`,
which `worst_case_expected_energy` sums, as integers over one power of two,
so Dinic's flow is exact.
"""
from __future__ import annotations

import math
from dataclasses import replace

from . import colgen
from .colgen import SolveResult
from .energy import (
    CLIENT, SERVER, InfeasibleError, OffloadDecision, SystemParams, slot_table,
    worst_case_expected_energy,
)
from .graph import TaskGraph, check_graph
from .oracle import cheapest_feasible, earliest_completion

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
    arcs = [(vertex[m.id], SINK, table.local[m.id], 0.0) for m in graph.modules]
    arcs += [
        (vertex[e.src], vertex[e.dst], up, down)
        for e, up, down in zip(graph.edges, table.up, table.down)
        if vertex[e.src] != vertex[e.dst]
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
    Either way psi_lower is at least the cut, rounded down and shrunk by
    2**-50 so that it stays below the float psi of every feasible decision.
    """
    check_graph(graph)
    server, cut, scale = min_cut(graph, params)
    location = dict.fromkeys(graph.node_ids, CLIENT) | dict.fromkeys(server, SERVER)
    schedule = earliest_completion(graph, location, params)
    if schedule.feasible:
        decision = OffloadDecision(location=location, slot=schedule.slots)
        report = worst_case_expected_energy(graph, decision, params)
        return SolveResult(decision, report, report.psi, 0, [], EXIT_MINCUT, True, params.epsilon)
    floor = _round_down(cut, scale) * (1.0 - 2.0**-50)
    n = graph.n_nodes
    if graph.edge_index.keys() == {(i, i + 1) for i in range(1, n)}:
        windows = [()] + [range(u, v + 1) for u in range(2, n) for v in range(u, n)]
        local = dict.fromkeys(graph.node_ids, CLIENT)
        locations = (local | dict.fromkeys(w, SERVER) for w in windows)
        decision, _, _ = cheapest_feasible(graph, locations, params)
        if decision is None:
            raise InfeasibleError("no offload window (including all-local) meets the deadline")
        report = worst_case_expected_energy(graph, decision, params)
        return SolveResult(decision, report, floor, 0, [], EXIT_WINDOW, False, params.epsilon)
    result = colgen.solve(graph, params)
    return replace(result, psi_lower=max(result.psi_lower, floor))


def _round_down(numer: int, denom: int) -> float:
    value = numer / denom  # correctly rounded
    p, q = value.as_integer_ratio()
    return math.nextafter(value, 0.0) if p * denom > numer * q else value
