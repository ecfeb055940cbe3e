"""Trace-driven Monte Carlo replay and random layered DAG generation.

Each cross-boundary transfer draws a (queue, rate, power) triple from the
configured distributions; completion times and realized energy are then
recomputed with those draws.  The client's local execution energy takes no
draw: it is the `slot_table` term that psi sums.  Replications are computed
together, one row of each array per replication, in chunks of at most
`_CHUNK_ELEMENTS` elements per array; `simulate_execution` is the
one-replication case.

Stream contract (reports are reproducible bit for bit):

- Replication r draws from its own generator, `np.random.default_rng([seed,
  r])`, so the chunking never changes a result.
- Cross-boundary edges are taken in the order the earliest-completion
  recurrence visits them: destinations in topological order, the parents
  of each destination in graph order.  Uplink (client to server) and
  downlink edges are numbered separately, in that order.
- Each replication draws one vector over its uplink edges of queue, then
  of rate, then of power, and then the same three over its downlink edges.
  A direction without edges draws nothing.
- An `empirical` quantity consumes no random numbers: it restarts at every
  replication and gives its k-th recorded value to the k-th edge of its
  direction.

Draws are clamped before use: queue and power at 0, rate at
`rate_floor_bps`.  Transfer, execution and completion slot counts saturate
at `deadline_slots + 1`.  That keeps them in int64 whatever the draw, and a
completion past the deadline stays past it, so no verdict changes; a
completion slot past the deadline reads `deadline_slots + 1`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .energy import (
    CLIENT,
    SERVER,
    OffloadDecision,
    SystemParams,
    TraceExhaustedError,
    as_integer,
    is_finite_number,
    slot_table,
)
from .gev import GevParams, gev_sample
from .graph import DataEdge, TaskGraph, TaskModule, topological_order, write_json

# Parameters of each family; all of them must be finite numbers.
_FAMILY_PARAMS = {
    "lognormal": ("mean_log", "sigma_log"),
    "uniform": ("low", "high"),
    "gev": ("mu", "sigma", "xi"),
    "empirical": ("values",),
}
FAMILIES = tuple(_FAMILY_PARAMS)

QUANTITIES = ("rate_up", "rate_down", "queue_up_bits", "queue_down_bits", "power_up", "power_down")

# Largest number of elements of one per-chunk array (about 2 MB of float64).
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class DistSpec:
    """Distribution of one traced quantity; `empirical` replays a recording."""

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        missing = [name for name in _FAMILY_PARAMS[self.family] if name not in self.params]
        if missing:
            raise ValueError(f"{self.family} needs the parameters {missing}")
        p = self.params
        if self.family == "empirical":
            values = p["values"]
            if not isinstance(values, (list, tuple)) or not all(map(is_finite_number, values)):
                raise ValueError("empirical values must be a list of finite numbers")
            return
        for name in _FAMILY_PARAMS[self.family]:
            if not is_finite_number(p[name]):
                raise ValueError(f"{self.family} {name} must be a finite number, got {p[name]!r}")
        if self.family == "lognormal" and p["sigma_log"] < 0:
            raise ValueError(f"lognormal sigma_log must be >= 0, got {p['sigma_log']}")
        if self.family == "uniform" and not (
            p["low"] <= p["high"] and math.isfinite(p["high"] - p["low"])
        ):
            raise ValueError(f"uniform needs low <= high a finite distance apart, got {p}")
        if self.family == "gev" and not p["sigma"] > 0:
            raise ValueError(f"gev sigma must be positive, got {p['sigma']}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` values: the next draws of `rng`, or for `empirical` the
        first `size` recorded values (a replay restarts at every call)."""
        p = self.params
        if self.family == "lognormal":
            return rng.lognormal(p["mean_log"], p["sigma_log"], size)
        if self.family == "uniform":
            return rng.uniform(p["low"], p["high"], size)
        if self.family == "gev":
            return gev_sample(GevParams(p["mu"], p["sigma"], p["xi"]), rng, size)
        if size > len(p["values"]):
            raise TraceExhaustedError("empirical trace exhausted")
        return np.array(p["values"][:size], dtype=float)


@dataclass(frozen=True)
class TraceModel:
    """Distributions for the six traced quantities plus the stream seed."""

    rate_up: DistSpec
    rate_down: DistSpec
    queue_up_bits: DistSpec
    queue_down_bits: DistSpec
    power_up: DistSpec
    power_down: DistSpec
    rate_floor_bps: float = 1e3
    seed: int = 0

    def __post_init__(self):
        if not (is_finite_number(self.rate_floor_bps) and self.rate_floor_bps > 0):
            raise ValueError(f"rate_floor_bps must be a finite number > 0, got {self.rate_floor_bps!r}")
        object.__setattr__(self, "rate_floor_bps", float(self.rate_floor_bps))
        seed = as_integer("seed", self.seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_dict(cls, data: dict) -> "TraceModel":
        if not isinstance(data, dict):
            raise ValueError("trace model must be a JSON object")
        kwargs = {}
        for name in QUANTITIES:
            spec = data.get(name)
            if not isinstance(spec, dict) or "family" not in spec or "params" not in spec:
                raise ValueError(f"trace model needs {name} as {{family, params}}")
            kwargs[name] = DistSpec(spec["family"], spec["params"])
        kwargs["rate_floor_bps"] = data.get("rate_floor_bps", 1e3)
        kwargs["seed"] = data.get("seed", 0)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "TraceModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class SimRun:
    """One replay: realized energy, completion slots, and per-edge transfers."""

    energy: float
    completion: dict[int, int]
    deadline_met: bool
    transfers: list[tuple[int, int, str, float]]  # (src, dst, direction, seconds)


@dataclass
class SimReport:
    replications: int
    mean_energy: float
    energy_quantiles: dict[str, float]
    deadline_violation_rate: float
    edge_exceedance: dict[str, dict]
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


@dataclass
class _Chunk:
    """Replications computed together, one row (column of `done`) each."""

    energy: list[float]
    done: np.ndarray  # (nodes in topological order, rows) completion slots
    seconds: dict[str, np.ndarray]  # direction -> (rows, edges of that direction)


class _Replay:
    """Everything a replay of one decision needs that no draw changes."""

    def __init__(
        self, graph: TaskGraph, decision: OffloadDecision, model: TraceModel, params: SystemParams
    ):
        _check_decision(graph, decision)
        self.rate_floor = model.rate_floor_bps
        self.delta_s = params.delta_s
        self.cap = params.deadline_slots + 1
        self.order = topological_order(graph)
        position = {node: j for j, node in enumerate(self.order)}
        table, index = slot_table(graph, params), graph.edge_index

        # Per node: parent positions, its rows of the edge-slot matrix (the
        # edges into it, contiguous in visit order) and its execution slots.
        self.steps: list[tuple[np.ndarray, int, int, int]] = []
        self.cross: list[tuple[int, int, str, int]] = []  # (src, dst, direction, column)
        edge_rows: dict[str, list[int]] = {"up": [], "down": []}
        bits: dict[str, list[int]] = {"up": [], "down": []}
        n_edges = 0
        for node in self.order:
            parents = graph.parents[node]
            node_client = decision.is_client(node)
            for parent in parents:
                parent_client = decision.is_client(parent)
                if parent_client != node_client:
                    direction = "up" if parent_client else "down"
                    self.cross.append((parent, node, direction, len(bits[direction])))
                    edge_rows[direction].append(n_edges)
                    bits[direction].append(graph.edges[index[(parent, node)]].bits)
                n_edges += 1
            run_slots = min(table.at(node, decision.location[node]), self.cap)
            parent_pos = np.array([position[p] for p in parents], dtype=np.intp)
            self.steps.append((parent_pos, n_edges - len(parents), n_edges, run_slots))
        self.n_edges = n_edges
        self.sink = position[graph.n_nodes]
        self.edge_rows = {d: np.array(rows, dtype=np.intp) for d, rows in edge_rows.items()}
        self.bits = {d: np.array(b, dtype=float) for d, b in bits.items()}
        self.exec_terms = [table.local[m.id] for m in graph.modules if decision.is_client(m.id)]
        self.specs = {  # drawn in this order
            "up": (model.queue_up_bits, model.rate_up, model.power_up),
            "down": (model.queue_down_bits, model.rate_down, model.power_down),
        }
        # Elements per replication of the largest per-chunk arrays.
        self.width = max(len(self.order), n_edges, len(self.exec_terms) + len(self.cross), 1)

    def run(self, rngs: list[np.random.Generator]) -> _Chunk:
        """Replay once per generator; row i of every array belongs to rngs[i]."""
        rows = len(rngs)
        raw = {d: np.empty((3, rows, len(self.bits[d]))) for d in ("up", "down")}
        for i, rng in enumerate(rngs):
            for direction in ("up", "down"):
                size = len(self.bits[direction])
                if size:
                    for q, spec in enumerate(self.specs[direction]):
                        raw[direction][q, i] = spec.draw(rng, size)

        n_exec = len(self.exec_terms)
        terms = np.empty((rows, n_exec + len(self.cross)))
        terms[:, :n_exec] = self.exec_terms
        edge_slots = np.zeros((self.n_edges, rows), dtype=np.int64)
        seconds = {}
        column = n_exec
        for direction in ("up", "down"):
            bits = self.bits[direction]
            queue = np.maximum(raw[direction][0], 0.0)
            rate = np.maximum(raw[direction][1], self.rate_floor)
            power = np.maximum(raw[direction][2], 0.0)
            with np.errstate(over="ignore"):  # an infinite time saturates at the cap
                seconds[direction] = (queue + bits) / rate
                terms[:, column : column + len(bits)] = power * bits / rate
                transfer = np.minimum(np.ceil(seconds[direction] / self.delta_s), self.cap)
            column += len(bits)
            edge_slots[self.edge_rows[direction]] = transfer.T.astype(np.int64)

        done = np.empty((len(self.order), rows), dtype=np.int64)
        for j, (parent_pos, lo, hi, run_slots) in enumerate(self.steps):
            if lo == hi:
                done[j] = run_slots
            else:
                ready = (done[parent_pos] + edge_slots[lo:hi]).max(axis=0)
                np.minimum(ready + run_slots, self.cap, out=done[j])
        return _Chunk(
            energy=[math.fsum(row) for row in terms.tolist()],
            done=done,
            seconds=seconds,
        )


def _check_decision(graph: TaskGraph, decision: OffloadDecision) -> None:
    placed, nodes = set(decision.location), set(graph.node_ids)
    if placed != nodes:
        raise ValueError(
            f"decision must place exactly the graph's nodes: missing {sorted(nodes - placed)}, "
            f"unknown {sorted(placed - nodes)}"
        )
    for node, location in decision.location.items():
        if location not in (CLIENT, SERVER):
            raise ValueError(
                f"location of node {node} must be {CLIENT!r} or {SERVER!r}, got {location!r}"
            )


def simulate_execution(
    graph: TaskGraph,
    decision: OffloadDecision,
    model: TraceModel,
    params: SystemParams,
    rng: np.random.Generator,
) -> SimRun:
    """Replay the DAG once: draw per-transfer traces, recompute timing/energy."""
    replay = _Replay(graph, decision, model, params)
    chunk = replay.run([rng])
    completion = {node: int(chunk.done[j, 0]) for j, node in enumerate(replay.order)}
    return SimRun(
        energy=chunk.energy[0],
        completion=completion,
        deadline_met=completion[graph.n_nodes] <= params.deadline_slots,
        transfers=[
            (src, dst, direction, float(chunk.seconds[direction][0, col]))
            for src, dst, direction, col in replay.cross
        ],
    )


def monte_carlo(
    graph: TaskGraph,
    decision: OffloadDecision,
    model: TraceModel,
    params: SystemParams,
    replications: int,
) -> SimReport:
    """Aggregate independent replays; per-edge exceedance is measured against
    the planning quantiles z_up/z_down (in slot units)."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    replay = _Replay(graph, decision, model, params)
    threshold = {
        "up": params.z_up_slots * params.delta_s,
        "down": params.z_down_slots * params.delta_s,
    }
    energies = np.empty(replications)
    violations = 0
    exceed = {d: np.zeros(len(replay.bits[d]), dtype=np.int64) for d in threshold}
    rows = max(1, _CHUNK_ELEMENTS // replay.width)
    for start in range(0, replications, rows):
        stop = min(start + rows, replications)
        chunk = replay.run([np.random.default_rng([model.seed, r]) for r in range(start, stop)])
        energies[start:stop] = chunk.energy
        violations += int(np.count_nonzero(chunk.done[replay.sink] > params.deadline_slots))
        for direction, seconds in chunk.seconds.items():
            exceed[direction] += np.count_nonzero(seconds > threshold[direction], axis=0)

    quantiles = {
        "p50": float(np.quantile(energies, 0.50)),
        "p90": float(np.quantile(energies, 0.90)),
        "p99": float(np.quantile(energies, 0.99)),
    }
    exceedance = {}
    for src, dst, direction, col in sorted(replay.cross):
        count = int(exceed[direction][col])
        exceedance[f"{src}->{dst}"] = {
            "direction": direction,
            "events": replications,
            "exceedances": count,
            "rate": count / replications,
        }
    return SimReport(
        replications=replications,
        mean_energy=float(energies.mean()),
        energy_quantiles=quantiles,
        deadline_violation_rate=violations / replications,
        edge_exceedance=exceedance,
        seed=model.seed,
    )


@dataclass(frozen=True)
class LayeredDagSpec:
    """Shape and weight distributions for random layer-by-layer DAGs."""

    n_nodes: int
    edge_prob: float
    width_min: int = 1
    width_max: int = 5
    workload_scale: float = 1e6
    bit_scale: float = 1.2e4

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not 0.0 < self.edge_prob <= 1.0:
            raise ValueError("edge probability must lie in (0, 1]")
        if not 1 <= self.width_min <= self.width_max:
            raise ValueError("bad layer width range")
        for name in ("workload_scale", "bit_scale"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")


def _half_normal_int(rng: np.random.Generator, scale: float) -> int:
    return max(1, int(math.ceil(abs(rng.normal(0.0, scale)))))


def gen_layered_dag(spec: LayeredDagSpec, rng: np.random.Generator) -> TaskGraph:
    """Random layered DAG: adjacent-layer edges with probability p, then
    minimal repair edges so every node is reachable from 1 and reaches N."""
    n = spec.n_nodes
    workloads = {node: _half_normal_int(rng, spec.workload_scale) for node in range(1, n + 1)}
    if n == 2:
        modules = [TaskModule(i, workloads[i]) for i in (1, 2)]
        return TaskGraph(modules, [DataEdge(1, 2, _half_normal_int(rng, spec.bit_scale))])

    interior = list(range(2, n))
    layers: list[list[int]] = [[1]]
    idx = 0
    while idx < len(interior):
        width = int(rng.integers(spec.width_min, spec.width_max + 1))
        layers.append(interior[idx : idx + width])
        idx += width
    layers.append([n])

    edge_set: set[tuple[int, int]] = set()
    for upper, lower in zip(layers, layers[1:]):
        for src in upper:
            for dst in lower:
                if rng.random() < spec.edge_prob:
                    edge_set.add((src, dst))

    # Repair pass: orphaned nodes get one parent from the previous layer,
    # childless nodes one child in the next layer.
    parents: dict[int, int] = {node: 0 for node in range(1, n + 1)}
    children: dict[int, int] = {node: 0 for node in range(1, n + 1)}
    for src, dst in edge_set:
        children[src] += 1
        parents[dst] += 1
    for depth in range(1, len(layers)):
        prev = layers[depth - 1]
        for node in layers[depth]:
            if parents[node] == 0:
                src = prev[int(rng.integers(0, len(prev)))]
                if (src, node) not in edge_set:
                    edge_set.add((src, node))
                    children[src] += 1
                    parents[node] += 1
    for depth in range(len(layers) - 2, -1, -1):
        nxt = layers[depth + 1]
        for node in layers[depth]:
            if children[node] == 0:
                dst = nxt[int(rng.integers(0, len(nxt)))]
                if (node, dst) not in edge_set:
                    edge_set.add((node, dst))
                    children[node] += 1
                    parents[dst] += 1

    edges = [
        DataEdge(src, dst, _half_normal_int(rng, spec.bit_scale))
        for src, dst in sorted(edge_set)
    ]
    modules = [TaskModule(node, workloads[node]) for node in range(1, n + 1)]
    return TaskGraph(modules, edges)
