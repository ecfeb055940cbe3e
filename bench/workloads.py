"""The benchmark's workloads: seeded inputs, a closed loop of CLI calls, checks.

Every operation is one in-process call of the public entry point
`evtoffload.cli.main(argv)`, one at a time in one thread; the next call
starts when the previous one returns.  A workload runs operation k = 0, 1,
2, ... until its time is up and at least its minimum number of operations
is done.  The quality figures come from a fixed prefix of operations, so
they repeat exactly for a seed; the timings use every operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import traceback
from collections import defaultdict
from operator import attrgetter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import gen
from spans import LayerTotals


# Pure-Python reference loop, timed between commands.  The speed of the
# shared machine this benchmark was tuned on drifts by +-20% over tens of
# seconds, for the program and for this loop alike; dividing each command's
# wall time by the loop time measured just before it removes most of that
# drift from the `op_ref` metric.
REFERENCE_LOOP = 200_000
REFERENCE_EVERY_S = 0.25


def reference_s() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return perf_counter() - t0


class Sample(NamedTuple):
    """Wall time of one command and the reference-loop time before it."""

    wall: float
    ref: float

    @property
    def norm(self) -> float:
        return self.wall / self.ref


WALL = attrgetter("wall")
NORM = attrgetter("norm")


class Runner:
    """Calls `cli.main` in-process and times each call.

    With a tracer, every command runs twice, untraced and then traced: the
    pair gives the tracing overhead and the traced one the spans, which are
    summed per group of operations (for example per DAG size).
    """

    def __init__(self, program, tracer=None):
        self.program = program
        self.tracer = tracer
        self.totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.group = "all"
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.ref_s = 0.0
        self.ref_samples: list[float] = []
        self._ref_at = -math.inf

    def _reference(self) -> float:
        if perf_counter() - self._ref_at >= REFERENCE_EVERY_S:
            self.ref_s = reference_s()
            self.ref_samples.append(self.ref_s)
            self._ref_at = perf_counter()
        return self.ref_s

    def begin_op(self, group: str) -> None:
        self.group = group
        self.totals[group].ops += 1

    def call(self, argv: list[str]) -> tuple[int, Sample, str]:
        """Exit code, timing and captured stderr of one command."""
        ref = self._reference()
        if self.tracer is None:
            code, wall, err = _timed(self.program.cli.main, argv)
            return code, Sample(wall, ref), err
        _, plain, _ = _timed(self.program.cli.main, argv)
        self.tracer.install()
        try:
            code, wall, err = _timed(self.tracer.command, self.program.cli.main, argv)
        finally:
            self.tracer.uninstall()
        self.plain_s += plain
        self.traced_s += wall
        self.totals[self.group].add(self.tracer.drain())
        return code, Sample(wall, ref), err


def _timed(call, *args) -> tuple[int, float, str]:
    """Run one command with its output captured.

    An exception escaping the program comes back as exit code 1 with its
    traceback, so that it is counted as a failed operation and the run goes on.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = call(*args)
        except Exception:  # noqa: BLE001 - recorded as a failed operation
            code = 1
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
    return code, wall, err.getvalue()


# -- checks ----------------------------------------------------------------

def _finite(*values) -> bool:
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def decision_of(program, data: dict):
    location = {int(item["id"]): item["location"] for item in data["nodes"]}
    slot = {int(item["id"]): int(item["slot"]) for item in data["nodes"]}
    return program.energy.OffloadDecision(location=location, slot=slot)


def check_decision(program, graph, params, data: dict) -> str | None:
    """Why a `solve` or `oracle` output is wrong, or None when it passes."""
    psi, low, high = data.get("psi"), data.get("psi_lower"), data.get("psi_upper")
    if not _finite(psi, low, high):
        return f"non-finite report: psi={psi} lower={low} upper={high}"
    decision = decision_of(program, data)
    if set(decision.location) != set(graph.node_ids):
        return "decision does not cover every node"
    violations = program.energy.check_constraints(graph, decision, params)
    if violations:
        return f"infeasible decision: {violations[0].detail}"
    expected = program.energy.worst_case_expected_energy(graph, decision, params).psi
    if not _close(psi, expected):
        return f"reported psi {psi!r} != psi of the returned nodes {expected!r}"
    if not (low <= psi * (1 + 1e-12) and _close(high, psi)):
        return f"bounds do not hold psi: lower={low!r} psi={psi!r} upper={high!r}"
    return None


def all_local_psi(program, graph, params) -> float:
    location = {n: "client" for n in graph.node_ids}
    decision = program.energy.OffloadDecision(location=location, slot=dict.fromkeys(location, 0))
    return program.energy.worst_case_expected_energy(graph, decision, params).psi


def geomean(values) -> float:
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def quantile(values, q: float) -> float:
    values = list(values)
    return float(np.quantile(values, q)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# -- workloads ---------------------------------------------------------------

class Workload:
    """Shared state and loop; subclasses define `prepare`, `step` and figures.

    `attempted` counts CLI calls; `failed` those that crashed or returned
    output that failed a check.  `declined` counts clean error exits on
    instances the benchmark knows to be feasible; they are a quality defect
    of the program, measured by `answered_ratio`, not a wrong output.
    """

    minimum_ops = 1  # untraced runs; the quality prefix must be complete
    traced_minimum_ops = 1

    def __init__(self, program, runner: Runner, work: Path, seed: int):
        self.program = program
        self.runner = runner
        self.work = work
        self.seed = seed
        self.files: dict[str, Path] = {}
        self.attempted = 0
        self.failed = 0
        self.declined = 0
        self.failures: list[str] = []
        self.quality: list[dict] = []  # one entry per checked operation of the prefix

    def write_json(self, name: str, data: dict) -> Path:
        self.files[name] = gen.write_json(self.work / name, data)
        return self.files[name]

    def call(self, argv: list[str]) -> tuple[int, Sample, str]:
        self.attempted += 1
        return self.runner.call(argv)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def run(self, seconds: float, minimum: int) -> int:
        """Closed loop: operation k starts when operation k-1 has returned."""
        self.prepare()
        start = perf_counter()
        k = 0
        while k < minimum or perf_counter() - start < seconds:
            self.step(k)
            k += 1
        return k

    def energy_ratio(self) -> float:
        """Energy used over all-local energy, summed over the quality prefix."""
        local = sum(q["local"] for q in self.quality)
        return sum(q["used"] for q in self.quality) / local if local else 0.0

    def graph_params(self, dag: dict, config: dict):
        return self.program.graph.graph_from_dict(dag), self.program.energy.SystemParams(**config)


class LayeredSolve(Workload):
    """`solve --policy cg` on layered DAGs (criterion-8 shape), N=100 and 1000.

    Operation k solves a fresh instance of size SIZES[k % 2], generated
    from (seed, k); the two sizes alternate, so both are always measured.
    The quality figures come from the first QUALITY_OPS operations.
    """

    SIZES = (100, 1000)
    QUALITY_OPS = 6
    minimum_ops = QUALITY_OPS
    traced_minimum_ops = len(SIZES)

    def prepare(self) -> None:
        self.times: dict[int, list[Sample]] = {n: [] for n in self.SIZES}

    def instance(self, k: int) -> tuple[int, dict, dict]:
        """Size, DAG and config of operation k."""
        n = self.SIZES[k % len(self.SIZES)]
        rng = np.random.default_rng([self.seed, k])
        dag = gen.layered_dag(rng, n, edge_prob=0.05, workload_scale=3e8, bit_scale=1.2e4)
        return n, dag, gen.config(gen.serial_slots(dag) + 2000)

    def step(self, k: int) -> None:
        n, dag, config = self.instance(k)
        dag_path = self.write_json(f"dag{k}.json", dag)
        config_path = self.write_json(f"config{k}.json", config)
        out = self.work / "solve.json"

        self.runner.begin_op(f"n{n}")
        code, timing, err = self.call(["--config", str(config_path), "solve", "--dag", str(dag_path),
                                       "--policy", "cg", "--out", str(out)])
        self.times[n].append(timing)
        if code != 0:
            self.fail(f"solve exit {code} at N={n}: {err.strip()}")
            return
        graph, params = self.graph_params(dag, config)
        data = json.loads(out.read_text())
        problem = check_decision(self.program, graph, params, data)
        if problem:
            self.fail(f"solve at N={n}: {problem}")
        elif k < self.QUALITY_OPS:
            self.quality.append({
                "used": data["psi"],
                "gap": data["psi_upper"] / data["psi_lower"],
                "local": all_local_psi(self.program, graph, params),
            })

    def op_s(self, key=WALL) -> float:
        # Each size weighs the same, whichever size the run ended on.
        return mean(mean(map(key, t)) for t in self.times.values())

    def answered_ratio(self) -> float:
        return len(self.quality) / self.QUALITY_OPS

    def named(self) -> dict:
        out = {}
        for n, times in self.times.items():
            out[f"solve_s.n{n}"] = (mean(t.wall for t in times), "s", len(times))
        out["psi_gm"] = (geomean(q["used"] for q in self.quality), "energy", len(self.quality))
        out["gap_gm"] = (geomean(q["gap"] for q in self.quality), "ratio", len(self.quality))
        return out


class DeadlineCorpus(Workload):
    """Many small DAGs with deadlines from the critical path to 1.3x serial.

    Operation k decides instance k mod BATCH with `solve --policy auto`; on
    the first pass over the batch `oracle` also gives its exact optimum.  A
    deadline at or above the all-local critical path is always feasible, so
    an error exit of `solve` here is a false infeasibility: it is counted as
    declined, and the user's fallback, all-local, is charged as the energy
    used.
    """

    BATCH = 360
    SHAPES = ("layered", "layered", "layered", "chain", "fan")
    minimum_ops = traced_minimum_ops = BATCH

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 12])
        shapes = [self.SHAPES[int(i) % len(self.SHAPES)] for i in rng.permutation(self.BATCH)]
        sizes = [4 + int(i) % 9 for i in rng.permutation(self.BATCH)]
        slack = (rng.permutation(self.BATCH) + rng.random(self.BATCH)) / self.BATCH
        self.batch = []
        for i, (shape, n, lam) in enumerate(zip(shapes, sizes, slack)):
            if shape == "chain":
                dag = gen.chain_dag(rng, n, workload_scale=1e9, bit_scale=5e6)
            elif shape == "fan":
                dag = gen.fan_dag(rng, n, workload_scale=1e9, bit_scale=5e6)
            else:
                dag = gen.layered_dag(rng, n, edge_prob=0.5, workload_scale=1e9,
                                      bit_scale=5e6, width_max=3)
            low = gen.critical_path_slots(dag)
            high = 1.3 * gen.serial_slots(dag)
            config = gen.config(math.floor(low + lam * (high - low)))
            self.batch.append({
                "dag": dag,
                "config": config,
                "dag_path": self.write_json(f"dag{i}.json", dag),
                "config_path": self.write_json(f"config{i}.json", config),
                "decide": [],
            })
        self.exact_times: list[float] = []

    def step(self, k: int) -> None:
        inst = self.batch[k % self.BATCH]
        common = ["--config", str(inst["config_path"])]
        dag_arg = ["--dag", str(inst["dag_path"])]
        decided = self.work / "decide.json"

        self.runner.begin_op("all")
        code, timing, err = self.call(common + ["solve"] + dag_arg +
                                      ["--policy", "auto", "--out", str(decided)])
        inst["decide"].append(timing)
        graph, params = self.graph_params(inst["dag"], inst["config"])
        data = None
        if code == 0:
            data = json.loads(decided.read_text())
            problem = check_decision(self.program, graph, params, data)
            if problem:
                self.fail(f"solve: {problem}")
                return
        elif code == 2 and err.startswith("error:"):
            self.declined += 1
        else:
            self.fail(f"solve exit {code}: {err.strip()}")
            return
        if k >= self.BATCH:
            return

        exact = self.work / "oracle.json"
        code, timing, err = self.call(common + ["oracle"] + dag_arg + ["--out", str(exact)])
        self.exact_times.append(timing.wall)
        if code != 0:
            self.fail(f"oracle exit {code} on a feasible instance: {err.strip()}")
            return
        truth = json.loads(exact.read_text())
        problem = check_decision(self.program, graph, params, truth)
        if problem:
            self.fail(f"oracle: {problem}")
            return
        psi_star = truth["psi"]
        if data is not None and not (data["psi_lower"] <= psi_star * (1 + 1e-9)
                                     and psi_star <= data["psi_upper"] * (1 + 1e-9)):
            self.fail(f"bounds {data['psi_lower']!r}..{data['psi_upper']!r} "
                      f"miss the optimum {psi_star!r}")
            return
        local = all_local_psi(self.program, graph, params)
        used = data["psi"] if data is not None else local
        self.quality.append({
            "answered": data is not None,
            "regret": used / psi_star - 1.0,
            "used": used,
            "local": local,
            "exact": data is not None and _close(data["psi"], psi_star),
        })

    def _decide_medians(self, key=WALL) -> list[float]:
        return [statistics.median(map(key, inst["decide"])) for inst in self.batch if inst["decide"]]

    def op_s(self, key=WALL) -> float:
        return mean(self._decide_medians(key))

    def answered_ratio(self) -> float:
        return sum(q["answered"] for q in self.quality) / self.BATCH

    def named(self) -> dict:
        decide = self._decide_medians()
        exact = self.exact_times
        done = len(self.quality)
        return {
            "decide_s.p50": (quantile(decide, 0.5), "s", len(decide)),
            "decide_s.p90": (quantile(decide, 0.9), "s", len(decide)),
            "exact_s.p50": (quantile(exact, 0.5), "s", len(exact)),
            "exact_s.p90": (quantile(exact, 0.9), "s", len(exact)),
            "energy_regret": (mean(q["regret"] for q in self.quality), "ratio", done),
            "cg_exact_share": (mean(q["exact"] for q in self.quality), "ratio", done),
        }


class CalibrateReplay(Workload):
    """`fit` on a seeded trace CSV, then `simulate` of a fixed N=1000 decision.

    The decision is an input: interior modules heavier than the median on
    the server, the rest local, completing at earliest-completion slots
    planned with twice the largest transfer time in the traces, so it stays
    feasible under any constants the fit can return.  No solver runs here.
    Every operation repeats the fit and the replay on the same files.
    """

    ROWS = 300_000
    BLOCK = 1500
    NODES = 1000
    REPLICATIONS = 200
    PAYLOAD_BITS = 12000.0

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        table = gen.trace_rows(rng, self.ROWS)
        self.files["traces.csv"] = gen.write_trace_csv(self.work / "traces.csv", table)
        self.dag = gen.layered_dag(rng, self.NODES, edge_prob=0.05, workload_scale=3e8,
                                   bit_scale=1.2e4)
        cutoff = statistics.median(item["workload_cycles"] for item in self.dag["nodes"])
        server = {item["id"] for item in self.dag["nodes"]
                  if 1 < item["id"] < self.NODES and item["workload_cycles"] > cutoff}
        z_up, z_down = (self._planning_slots(table, queue, rate) for queue, rate in ((1, 3), (2, 4)))
        done = gen.earliest_completion(self.dag, server, z_up, z_down)
        decision = {"nodes": [{"id": n, "location": "server" if n in server else "client",
                               "slot": done[n]} for n in sorted(done)]}
        self.deadline = max(done.values())
        self.write_json("dag.json", self.dag)
        self.write_json("decision.json", decision)
        self.write_json("model.json", dict(gen.TRACE_MODEL, seed=int(rng.integers(2**31))))

        self.graph = self.program.graph.graph_from_dict(self.dag)
        self.decision = decision_of(self.program, decision)
        self.cross = set()
        for e in self.graph.edges:
            src, dst = self.decision.location[e.src], self.decision.location[e.dst]
            if src != dst:
                self.cross.add((f"{e.src}->{e.dst}", "up" if src == "client" else "down"))
        self.fit_times: list[Sample] = []
        self.sim_times: list[Sample] = []

    def _planning_slots(self, table: np.ndarray, queue: int, rate: int) -> int:
        seconds = (table[:, queue] + self.PAYLOAD_BITS) / table[:, rate]
        return math.ceil(2.0 * float(seconds.max()) / gen.DELTA_S)

    def step(self, k: int) -> None:
        fitted_path = self.work / "fitted.json"
        config_path = self.work / "config.json"
        report_path = self.work / "replay.json"
        self.runner.begin_op("all")
        code, fit, err = self.call(["fit", "--traces", str(self.files["traces.csv"]),
                                    "--k", str(self.BLOCK), "--out", str(fitted_path)])
        self.fit_times.append(fit)
        if code != 0:
            self.fail(f"fit exit {code}: {err.strip()}")
            return
        fitted = json.loads(fitted_path.read_text())
        constants = ("z_up_s", "z_down_s", "theta_up", "theta_down")
        numbers = [fitted[name] for name in constants]
        numbers += [fitted[q][p] for q in ("v_up", "v_down", "j", "h") for p in ("mu", "sigma", "xi")]
        if not _finite(*numbers):
            self.fail(f"non-finite fit output: {fitted}")
            return
        config = gen.config(self.deadline, **{name: fitted[name] for name in constants})
        gen.write_json(config_path, config)
        params = self.program.energy.SystemParams(**config)
        violations = self.program.energy.check_constraints(self.graph, self.decision, params)
        if violations:
            self.fail(f"fixed decision infeasible under the fit: {violations[0].detail}")
            return

        code, sim, err = self.call(
            ["--config", str(config_path), "simulate", "--dag", str(self.files["dag.json"]),
             "--decision", str(self.files["decision.json"]), "--model", str(self.files["model.json"]),
             "--replications", str(self.REPLICATIONS), "--out", str(report_path)])
        self.sim_times.append(sim)
        if code != 0:
            self.fail(f"simulate exit {code}: {err.strip()}")
            return
        problem = self._check_replay(json.loads(report_path.read_text()))
        if problem:
            self.fail(problem)
        elif not self.quality:
            psi = self.program.energy.worst_case_expected_energy(self.graph, self.decision, params).psi
            self.quality.append({"used": psi, "local": all_local_psi(self.program, self.graph, params)})

    def _check_replay(self, report: dict) -> str | None:
        if report.get("replications") != self.REPLICATIONS:
            return f"replay ran {report.get('replications')} replications"
        quantiles = list(report["energy_quantiles"].values())
        if not _finite(report["mean_energy"], report["deadline_violation_rate"], *quantiles):
            return "non-finite replay report"
        if not 0.0 <= report["deadline_violation_rate"] <= 1.0:
            return "deadline violation rate outside [0, 1]"
        edges = report["edge_exceedance"]
        if {(key, item["direction"]) for key, item in edges.items()} != self.cross:
            return "replayed edge set differs from the decision's cross-boundary edges"
        for key, item in edges.items():
            if not 0.0 <= item["rate"] <= 1.0 or item["events"] != self.REPLICATIONS:
                return f"bad exceedance record for edge {key}: {item}"
        return None

    def op_s(self, key=WALL) -> float:
        pairs = [key(f) + key(s) for f, s in zip(self.fit_times, self.sim_times)]
        return statistics.median(pairs) if pairs else 0.0

    def answered_ratio(self) -> float:
        return float(len(self.quality))

    def named(self) -> dict:
        sim = statistics.median(t.wall for t in self.sim_times) if self.sim_times else math.inf
        return {
            "fit_s": (statistics.median(t.wall for t in self.fit_times), "s", len(self.fit_times)),
            "replay_reps_per_s": (self.REPLICATIONS / sim, "1/s", len(self.sim_times)),
        }


WORKLOADS = {
    "layered-solve": LayeredSolve,
    "deadline-corpus": DeadlineCorpus,
    "calibrate-replay": CalibrateReplay,
}
