"""Byte-identity of exported decisions and iteration logs over a fixed corpus.

`tests/data/golden_digests.json` holds, per input, the sha256 of the
decision JSON (`write_decision_json`) followed by the iteration-log CSV
(`write_iteration_log`).  The corpus is `random_small_instance` seeds
0-259 at epsilon 0 and 0.03, the criterion-8 scaling instances at N=100
and N=1000, smart_diagnosis at epsilon 0.03 and 0, and a binding-deadline
slice: seeds 0-99 at epsilon 0.03 with the deadline set to the all-local
earliest-completion critical path plus 2 slots, so that many solves start
from the earliest-completion schedule and the windows are tight.  A solver
refactor must leave every digest unchanged; an intended output change
regenerates the file with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from evtoffload.colgen import solve, write_decision_json, write_iteration_log
from evtoffload.energy import CLIENT, InfeasibleError, SystemParams, exec_slots
from evtoffload.graph import load_graph
from evtoffload.oracle import earliest_completion
from evtoffload.simulate import LayeredDagSpec, gen_layered_dag

from conftest import INSTANCE_DIR, random_small_instance

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def _scaling_instance(n: int):
    """The criterion-8 instance of size n."""
    rng = np.random.default_rng(20260800 + n)
    spec = LayeredDagSpec(n_nodes=n, edge_prob=0.05, workload_scale=3e8, bit_scale=1.2e4)
    graph = gen_layered_dag(spec, rng)
    serial = sum(exec_slots(m.workload_cycles, 1.5e9, 1e-3) for m in graph.modules)
    return graph, SystemParams(deadline_slots=serial + 2000)


def corpus():
    """(key, graph, params, epsilon) for every golden input, in a fixed order."""
    for seed in range(260):
        graph, params = random_small_instance(seed)
        for eps in (0.0, 0.03):
            yield f"small-{seed}-eps{eps}", graph, params, eps
    for n in (100, 1000):
        graph, params = _scaling_instance(n)
        yield f"scaling-n{n}", graph, params, None
    graph = load_graph(INSTANCE_DIR / "smart_diagnosis.json")
    for eps in (0.03, 0.0):
        yield f"smart_diagnosis-eps{eps}", graph, SystemParams(), eps
    for seed in range(100):
        graph, params = random_small_instance(seed)
        local = earliest_completion(graph, dict.fromkeys(graph.node_ids, CLIENT), params)
        binding = params.replace(deadline_slots=max(local.slots.values()) + 2)
        yield f"binding-{seed}-eps0.03", graph, binding, 0.03


def digest(graph, params, eps, work: Path) -> str:
    try:
        result = solve(graph, params, eps)
    except InfeasibleError as exc:
        return "infeasible: " + str(exc)
    write_decision_json(work / "decision.json", result)
    write_iteration_log(work / "log.csv", result.log)
    h = hashlib.sha256()
    h.update((work / "decision.json").read_bytes())
    h.update((work / "log.csv").read_bytes())
    return h.hexdigest()


def compute_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return {key: digest(g, p, eps, work) for key, g, p, eps in corpus()}


def test_exports_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert got.keys() == expected.keys()
    changed = sorted(key for key in expected if got[key] != expected[key])
    assert changed == [], f"{len(changed)} exports changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src:tests python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
