"""Seeded inputs for the benchmark, written by the benchmark's own code.

Nothing here calls the program's generators (`evtoffload gen`,
`gen_layered_dag`), so a change to those cannot silently change what the
benchmark measures.  Every file is written in the program's documented
input formats: DAG JSON, SystemParams JSON, trace CSV, TraceModel JSON and
decision JSON.

Node workloads and edge bit counts are half-normal, drawn by stratified
sampling (one draw per equal-probability stratum, in random order).  The
strata keep the weight distribution of every instance close to the nominal
one, which keeps run-to-run spread across seeds small without fixing any
instance.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np

# SystemParams defaults of the program, restated so that a change of its
# defaults does not change the benchmark's inputs.
F_CLIENT_HZ = 1.5e9
F_SERVER_HZ = 2.4e9
DELTA_S = 1e-3
Z_UP_S = 0.349
Z_DOWN_S = 0.107

TRACE_HEADER = (
    "t_ms",
    "queue_up_bits",
    "queue_down_bits",
    "rate_up_bps",
    "rate_down_bps",
    "power_up_mw",
    "power_down_mw",
)

_NORMAL = NormalDist()


def half_normal(rng: np.random.Generator, count: int, scale: float) -> list[int]:
    """`count` stratified half-normal integers >= 1 with the given scale."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return [
        max(1, math.ceil(scale * _NORMAL.inv_cdf(0.5 + 0.5 * min(x, 1.0 - 1e-12))))
        for x in u
    ]


def slots(workload: int, freq_hz: float, delta_s: float = DELTA_S) -> int:
    """Whole slots to run `workload` cycles, by the program's exact formula."""
    if workload == 0:
        return 0
    return math.ceil(Fraction(workload) / (Fraction(freq_hz) * Fraction(delta_s)))


def _dag(workloads: list[int], edges: list[tuple[int, int]], bits: list[int]) -> dict:
    return {
        "nodes": [{"id": i + 1, "workload_cycles": w} for i, w in enumerate(workloads)],
        "edges": [
            {"from": s, "to": d, "bits": b} for (s, d), b in zip(sorted(edges), bits)
        ],
    }


def layered_dag(
    rng: np.random.Generator,
    n: int,
    edge_prob: float,
    workload_scale: float,
    bit_scale: float,
    width_max: int = 5,
) -> dict:
    """Layered DAG: node 1, interior layers of width 1..width_max, node n.

    Adjacent layers are joined edge by edge with probability `edge_prob`;
    then every node without a parent gets one from the layer above and every
    node without a child one in the layer below, so all nodes lie on a path
    from 1 to n.
    """
    layers = [[1]]
    node = 2
    while node < n:
        width = min(int(rng.integers(1, width_max + 1)), n - node)
        layers.append(list(range(node, node + width)))
        node += width
    layers.append([n])

    edges: set[tuple[int, int]] = set()
    for upper, lower in zip(layers, layers[1:]):
        for src in upper:
            for dst in lower:
                if rng.random() < edge_prob:
                    edges.add((src, dst))
    has_parent = {d for _, d in edges}
    for upper, lower in zip(layers, layers[1:]):
        for dst in lower:
            if dst not in has_parent:
                edges.add((upper[int(rng.integers(len(upper)))], dst))
    has_child = {s for s, _ in edges}
    for upper, lower in zip(layers, layers[1:]):
        for src in upper:
            if src not in has_child:
                edges.add((src, lower[int(rng.integers(len(lower)))]))
    workloads = half_normal(rng, n, workload_scale)
    return _dag(workloads, list(edges), half_normal(rng, len(edges), bit_scale))


def chain_dag(rng: np.random.Generator, n: int, workload_scale: float, bit_scale: float) -> dict:
    """The path 1 -> 2 -> ... -> n."""
    edges = [(i, i + 1) for i in range(1, n)]
    return _dag(half_normal(rng, n, workload_scale), edges, half_normal(rng, n - 1, bit_scale))


def fan_dag(rng: np.random.Generator, n: int, workload_scale: float, bit_scale: float) -> dict:
    """Node 1 feeds every interior node; every interior node feeds node n."""
    edges = [(1, i) for i in range(2, n)] + [(i, n) for i in range(2, n)]
    return _dag(half_normal(rng, n, workload_scale), edges, half_normal(rng, len(edges), bit_scale))


def _parents(dag: dict) -> dict[int, list[int]]:
    parents: dict[int, list[int]] = {item["id"]: [] for item in dag["nodes"]}
    for e in dag["edges"]:
        parents[e["to"]].append(e["from"])
    return parents


def serial_slots(dag: dict) -> int:
    """All-local execution time with one module at a time."""
    return sum(slots(item["workload_cycles"], F_CLIENT_HZ) for item in dag["nodes"])


def earliest_completion(dag: dict, server: set[int], z_up: int, z_down: int) -> dict[int, int]:
    """Earliest completion slot per node for fixed locations.

    Node ids ascend along every edge in the benchmark's DAGs, so ascending
    id order is a topological order.
    """
    parents = _parents(dag)
    done: dict[int, int] = {}
    for item in sorted(dag["nodes"], key=lambda it: it["id"]):
        node = item["id"]
        on_server = node in server
        ready = 0
        for parent in parents[node]:
            crossing = (parent in server) != on_server
            transfer = (z_down if parent in server else z_up) if crossing else 0
            ready = max(ready, done[parent] + transfer)
        freq = F_SERVER_HZ if on_server else F_CLIENT_HZ
        done[node] = ready + slots(item["workload_cycles"], freq)
    return done


def critical_path_slots(dag: dict) -> int:
    """All-local makespan with unlimited parallelism."""
    return max(earliest_completion(dag, set(), 0, 0).values())


def config(deadline_slots: int, **overrides) -> dict:
    """SystemParams JSON: program defaults restated, plus the deadline."""
    data = {
        "f_c_hz": F_CLIENT_HZ,
        "f_s_hz": F_SERVER_HZ,
        "delta_s": DELTA_S,
        "z_up_s": Z_UP_S,
        "z_down_s": Z_DOWN_S,
        "deadline_slots": int(deadline_slots),
    }
    data.update(overrides)
    return data


def trace_rows(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Columns of TRACE_HEADER: queues, rates and radio power per millisecond."""
    out = np.empty((rows, len(TRACE_HEADER)))
    out[:, 0] = np.arange(rows)
    out[:, 1] = rng.lognormal(9.0, 1.0, rows)
    out[:, 2] = rng.lognormal(8.0, 1.0, rows)
    out[:, 3] = rng.lognormal(math.log(2e5), 0.35, rows)
    out[:, 4] = rng.lognormal(math.log(8e5), 0.35, rows)
    out[:, 5] = rng.uniform(800.0, 1200.0, rows)
    out[:, 6] = rng.uniform(300.0, 500.0, rows)
    return out


# Distributions of trace_rows in TraceModel form, for `simulate --model`.
TRACE_MODEL = {
    "queue_up_bits": {"family": "lognormal", "params": {"mean_log": 9.0, "sigma_log": 1.0}},
    "queue_down_bits": {"family": "lognormal", "params": {"mean_log": 8.0, "sigma_log": 1.0}},
    "rate_up": {"family": "lognormal", "params": {"mean_log": math.log(2e5), "sigma_log": 0.35}},
    "rate_down": {"family": "lognormal", "params": {"mean_log": math.log(8e5), "sigma_log": 0.35}},
    "power_up": {"family": "uniform", "params": {"low": 800.0, "high": 1200.0}},
    "power_down": {"family": "uniform", "params": {"low": 300.0, "high": 500.0}},
}


def write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def write_trace_csv(path: Path, table: np.ndarray) -> Path:
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        np.savetxt(fh, table, fmt=["%d"] + ["%.6f"] * (len(TRACE_HEADER) - 1), delimiter=",")
    return path


def digest(path: Path) -> str:
    """First 16 hex digits of the file's SHA-256."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def digest_many(paths) -> str:
    """One digest over the names and contents of several files."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return h.hexdigest()[:16]
