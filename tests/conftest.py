"""Shared builders and the acceptance-criteria summary printer."""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from evtoffload.energy import SystemParams
from evtoffload.graph import DataEdge, TaskGraph, TaskModule
from evtoffload.simulate import LayeredDagSpec, gen_layered_dag

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

_ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


class GraphViews(NamedTuple):
    parents: dict[int, list[int]]
    children: dict[int, list[int]]
    bits: dict[tuple[int, int], int]
    workload: dict[int, int]


def graph_views(graph: TaskGraph) -> GraphViews:
    """Reference views of `graph`, built from `graph.edges` and
    `graph.modules` without its CSR lists: the ids at the other end of each
    node's parent and child edges (ascending), the bits of each (src, dst)
    pair in edge order, and each node's workload."""
    parents: dict[int, list[int]] = {m.id: [] for m in graph.modules}
    children: dict[int, list[int]] = {m.id: [] for m in graph.modules}
    # In (src, dst) order, so that both lists of every node come out sorted.
    for src, dst in sorted((e.src, e.dst) for e in graph.edges):
        if src in children:
            children[src].append(dst)
        if dst in parents:
            parents[dst].append(src)
    bits = {(e.src, e.dst): e.bits for e in graph.edges}
    return GraphViews(parents, children, bits, {m.id: m.workload_cycles for m in graph.modules})


def chain_graph(workloads: list[int], bits: list[int]) -> TaskGraph:
    assert len(bits) == len(workloads) - 1
    modules = [TaskModule(i + 1, w) for i, w in enumerate(workloads)]
    edges = [DataEdge(i + 1, i + 2, b) for i, b in enumerate(bits)]
    return TaskGraph(modules, edges)


def fan_graph(workloads: list[int], bits_in: list[int], bits_out: list[int]) -> TaskGraph:
    """Node 1 feeds every interior node, and they all feed node N."""
    n = len(workloads)
    assert len(bits_in) == len(bits_out) == n - 2
    modules = [TaskModule(i + 1, w) for i, w in enumerate(workloads)]
    edges = [DataEdge(1, i + 2, bits_in[i]) for i in range(n - 2)]
    edges += [DataEdge(i + 2, n, bits_out[i]) for i in range(n - 2)]
    return TaskGraph(modules, edges)


def toy_params(**overrides) -> SystemParams:
    """Unit-scale params for hand-checkable arithmetic."""
    base = dict(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        delta_s=1.0,
        deadline_slots=100,
        z_up_s=2.0,
        z_down_s=1.0,
        theta_up=1.0,
        theta_down=1.0,
        epsilon=0.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def random_small_instance(seed: int):
    """Random layered DAG (N <= 8) and slot-scale params, serial-feasible.

    The theta multiplier is drawn log-uniform so the mix covers both
    transfer-dominated (all-local optimal) and compute-dominated regimes.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    shallow = bool(rng.random() < 0.4)
    width_min, width_max = ((n - 2, n - 2) if shallow else (1, 3))
    spec = LayeredDagSpec(
        n_nodes=n,
        edge_prob=0.5,
        width_min=width_min,
        width_max=width_max,
        workload_scale=2e9,
        bit_scale=1.5e4,
    )
    graph = gen_layered_dag(spec, rng)
    theta_mult = float(10.0 ** rng.uniform(-2.0, 3.3))
    params = SystemParams(
        f_c_hz=1.5e9,
        f_s_hz=2.4e9,
        kappa=1e-24,
        delta_s=1.0,
        deadline_slots=int(rng.integers(25, 41)),
        z_up_s=float(rng.integers(1, 4)),
        z_down_s=float(rng.integers(1, 3)),
        theta_up=4.81e-4 * theta_mult,
        theta_down=1.11e-5 * theta_mult,
        epsilon=0.0,
    )
    return graph, params
