"""Byte-identity of exported decisions, iteration logs and replay reports.

`tests/data/golden_digests.json` holds, per input, the sha256 of the
decision JSON (`write_decision_json`) followed by the iteration-log CSV
(`write_iteration_log`), or of a Monte Carlo report JSON.  Three slices:

- `colgen.solve`: `random_small_instance` seeds 0-259 at epsilon 0 and
  0.03, the criterion-8 scaling instances at N=100 and N=1000,
  smart_diagnosis at epsilon 0.03 and 0, and a binding-deadline slice:
  seeds 0-99 at epsilon 0.03 with the deadline set to the all-local
  earliest-completion critical path plus 2 slots, so that many solves
  start from the earliest-completion schedule and the windows are tight.
- `mincut.solve` (`solve --policy auto`) at epsilon 0.03: the same small
  and binding seeds, and chains and fans whose deadline is 1-3 slots
  short of the min-cut schedule, so that the cut misses T.  Together they
  reach the `mincut`, `window` and column-generation exits, and the
  infeasible one.
- `monte_carlo` reports of ten `--policy auto` decisions that offload,
  300 replications under a lognormal and under a gev trace model.

A refactor must leave every digest unchanged; an intended output change
regenerates the file with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from evtoffload import colgen, mincut
from evtoffload.energy import write_decision_json, write_iteration_log
from evtoffload.energy import CLIENT, SERVER, InfeasibleError, SystemParams, exec_slots
from evtoffload.graph import TaskGraph, load_graph
from evtoffload.oracle import earliest_completion
from evtoffload.simulate import DistSpec, LayeredDagSpec, TraceModel, gen_layered_dag, monte_carlo

from conftest import INSTANCE_DIR, chain_graph, fan_graph, random_small_instance

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def _scaling_instance(n: int):
    """The criterion-8 instance of size n."""
    rng = np.random.default_rng(20260800 + n)
    spec = LayeredDagSpec(n_nodes=n, edge_prob=0.05, workload_scale=3e8, bit_scale=1.2e4)
    graph = gen_layered_dag(spec, rng)
    serial = sum(exec_slots(m.workload_cycles, 1.5e9, 1e-3) for m in graph.modules)
    return graph, SystemParams(deadline_slots=serial + 2000)


def corpus():
    """(key, graph, params) for every `colgen.solve` input, in a fixed order."""
    for seed in range(260):
        graph, params = random_small_instance(seed)
        for eps in (0.0, 0.03):
            yield f"small-{seed}-eps{eps}", graph, params.replace(epsilon=eps)
    for n in (100, 1000):
        yield f"scaling-n{n}", *_scaling_instance(n)
    graph = load_graph(INSTANCE_DIR / "smart_diagnosis.json")
    for eps in (0.03, 0.0):
        yield f"smart_diagnosis-eps{eps}", graph, SystemParams(epsilon=eps)
    for seed in range(100):
        yield f"binding-{seed}-eps0.03", *_binding_instance(seed, 0.03)


def _binding_instance(seed: int, eps: float):
    graph, params = random_small_instance(seed)
    local = earliest_completion(graph, dict.fromkeys(graph.node_ids, CLIENT), params)
    return graph, params.replace(deadline_slots=max(local.slots.values()) + 2, epsilon=eps)


def _cut_missing_instance(kind: str, i: int, eps: float):
    """A random chain or fan whose deadline is 1-3 slots short of its min-cut schedule."""
    rng = np.random.default_rng(7000 + i)
    n = int(rng.integers(4, 9))

    def weights(count, scale):
        return [max(1, int(abs(rng.normal(0.0, scale)))) for _ in range(count)]

    work = weights(n, 2e9)
    if kind == "chain":
        graph = chain_graph(work, weights(n - 1, 1.5e4))
    else:
        graph = fan_graph(work, weights(n - 2, 1.5e4), weights(n - 2, 1.5e4))
    mult = float(10.0 ** rng.uniform(-2.0, 1.0))
    params = SystemParams(
        delta_s=1.0, z_up_s=float(rng.integers(1, 4)), z_down_s=float(rng.integers(1, 3)),
        theta_up=4.81e-4 * mult, theta_down=1.11e-5 * mult, epsilon=0.0,
    )
    server, _, _ = mincut.min_cut(graph, params)
    location = dict.fromkeys(graph.node_ids, CLIENT) | dict.fromkeys(server, SERVER)
    cut_end = max(earliest_completion(graph, location, params).slots.values())
    return graph, params.replace(deadline_slots=max(1, cut_end - 1 - i % 3), epsilon=eps)


def auto_corpus():
    """(key, graph, params) for every `mincut.solve` input."""
    for seed in range(260):
        graph, params = random_small_instance(seed)
        yield f"auto-small-{seed}-eps0.03", graph, params.replace(epsilon=0.03)
    for seed in range(100):
        yield f"auto-binding-{seed}-eps0.03", *_binding_instance(seed, 0.03)
    for kind in ("chain", "fan"):
        for i in range(20):
            yield f"auto-{kind}-{i}-eps0.03", *_cut_missing_instance(kind, i, 0.03)


_TRACE_MODELS = {
    "lognormal": TraceModel(
        rate_up=DistSpec("lognormal", {"mean_log": math.log(1e4), "sigma_log": 0.5}),
        rate_down=DistSpec("lognormal", {"mean_log": math.log(2e4), "sigma_log": 0.5}),
        queue_up_bits=DistSpec("lognormal", {"mean_log": math.log(5e3), "sigma_log": 1.0}),
        queue_down_bits=DistSpec("lognormal", {"mean_log": math.log(2e3), "sigma_log": 1.0}),
        power_up=DistSpec("lognormal", {"mean_log": 0.0, "sigma_log": 0.3}),
        power_down=DistSpec("lognormal", {"mean_log": math.log(0.1), "sigma_log": 0.3}),
        seed=11,
    ),
    "gev": TraceModel(
        rate_up=DistSpec("gev", {"mu": 1e4, "sigma": 2e3, "xi": -0.1}),
        rate_down=DistSpec("gev", {"mu": 2e4, "sigma": 4e3, "xi": -0.1}),
        queue_up_bits=DistSpec("gev", {"mu": 5e3, "sigma": 1e3, "xi": 0.2}),
        queue_down_bits=DistSpec("gev", {"mu": 2e3, "sigma": 5e2, "xi": 0.2}),
        power_up=DistSpec("gev", {"mu": 1.0, "sigma": 0.2, "xi": 0.0}),
        power_down=DistSpec("gev", {"mu": 0.1, "sigma": 0.02, "xi": 0.1}),
        seed=12,
    ),
}


def replay_corpus():
    """(key, graph, decision, model, params) for every `monte_carlo` input:
    the first ten small seeds whose `--policy auto` decision offloads."""
    decisions = []
    for seed in itertools.count():
        graph, params = random_small_instance(seed)
        decision = mincut.solve(graph, params).decision
        if decision.server_set():
            decisions.append((seed, graph, decision, params))
        if len(decisions) == 10:
            break
    for family, model in _TRACE_MODELS.items():
        for seed, graph, decision, params in decisions:
            yield f"replay-{family}-small-{seed}", graph, decision, model, params


def digest(solver, graph, params, work: Path) -> str:
    try:
        result = solver(graph, params)
    except InfeasibleError as exc:
        return "infeasible: " + str(exc)
    write_decision_json(work / "decision.json", result)
    write_iteration_log(work / "log.csv", result.log)
    h = hashlib.sha256()
    h.update((work / "decision.json").read_bytes())
    h.update((work / "log.csv").read_bytes())
    return h.hexdigest()


def replay_digest(graph, decision, model, params, work: Path) -> str:
    monte_carlo(graph, decision, model, params, 300).to_json(work / "report.json")
    return hashlib.sha256((work / "report.json").read_bytes()).hexdigest()


def compute_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        digests = {key: digest(colgen.solve, g, p, work) for key, g, p in corpus()}
        digests |= {key: digest(mincut.solve, g, p, work) for key, g, p in auto_corpus()}
        digests |= {key: replay_digest(*case, work) for key, *case in replay_corpus()}
        return digests


def test_exports_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert got.keys() == expected.keys()
    changed = sorted(key for key in expected if got[key] != expected[key])
    assert changed == [], f"{len(changed)} exports changed, first: {changed[:5]}"


def test_exports_do_not_depend_on_edge_order():
    """Shuffling `graph.edges` leaves every export byte-identical.

    The solvers sum each node's terms in the order of the graph's CSR
    parent and child lists, whatever order the edges are listed in.  The
    golden corpus lists them in canonical order only, so this shuffles them,
    on the first 400 `colgen.solve` inputs and every `mincut.solve` input.
    """
    rng = random.Random(20261018)
    cases = [(colgen.solve, *case) for case in itertools.islice(corpus(), 400)]
    cases += [(mincut.solve, *case) for case in auto_corpus()]
    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for solver, key, graph, params in cases:
            edges = list(graph.edges)
            rng.shuffle(edges)
            shuffled = TaskGraph(graph.modules, edges)
            if digest(solver, shuffled, params, work) != digest(solver, graph, params, work):
                changed.append(key)
    assert changed == [], f"{len(changed)} of {len(cases)} exports changed, first: {changed[:5]}"


def test_auto_slice_reaches_every_exit():
    exits = set()
    for _, graph, params in auto_corpus():
        try:
            exits.add(mincut.solve(graph, params).exit_reason)
        except InfeasibleError:
            exits.add("infeasible")
    assert {mincut.EXIT_MINCUT, mincut.EXIT_WINDOW, colgen.EXIT_NO_COLUMN, "infeasible"} <= exits


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src:tests python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
