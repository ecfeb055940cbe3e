"""Self-tests of the benchmark (not of the program).

Run from the repository root:  python -m pytest -q bench
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import gen
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return run.load_program(ROOT)


@pytest.fixture
def smoke_sizes(monkeypatch):
    """Shrink every workload so that a whole run takes seconds."""
    monkeypatch.setattr(workloads.LayeredSolve, "SIZES", (12, 30))
    monkeypatch.setattr(workloads.LayeredSolve, "QUALITY_OPS", 2)
    monkeypatch.setattr(workloads.LayeredSolve, "minimum_ops", 2)
    monkeypatch.setattr(workloads.DeadlineCorpus, "BATCH", 12)
    monkeypatch.setattr(workloads.DeadlineCorpus, "minimum_ops", 12)
    monkeypatch.setattr(workloads.DeadlineCorpus, "traced_minimum_ops", 12)
    monkeypatch.setattr(workloads.CalibrateReplay, "ROWS", 30_000)
    monkeypatch.setattr(workloads.CalibrateReplay, "NODES", 60)
    monkeypatch.setattr(workloads.CalibrateReplay, "REPLICATIONS", 5)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _digests(program, name: str, seed: int, work: Path) -> dict[str, str]:
    work.mkdir()
    workload = workloads.WORKLOADS[name](program, workloads.Runner(program), work, seed)
    if name == "layered-solve":
        for k in range(2):
            _, dag, config = workload.instance(k)
            workload.write_json(f"dag{k}.json", dag)
            workload.write_json(f"config{k}.json", config)
    else:
        workload.prepare()
    return {key: gen.digest(path) for key, path in workload.files.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(program, smoke_sizes, tmp_path, name):
    first = _digests(program, name, 5, tmp_path / "a")
    again = _digests(program, name, 5, tmp_path / "b")
    other = _digests(program, name, 6, tmp_path / "c")
    assert first and first == again
    assert first != other


def _run(monkeypatch, capsys, name: str, trace: int) -> tuple[dict, str]:
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


NAMED = {
    "layered-solve": ["solve_s.n12", "solve_s.n30", "psi_gm", "gap_gm"],
    "deadline-corpus": ["decide_s.p50", "decide_s.p90", "exact_s.p50", "exact_s.p90",
                        "energy_regret", "cg_exact_share"],
    "calibrate-replay": ["fit_s", "replay_reps_per_s"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(monkeypatch, capsys, smoke_sizes, name):
    result, out = _run(monkeypatch, capsys, name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in out.splitlines() if line.startswith(name)}
    assert set(NAMED[name] + ["op_s", "reference_s", "declined", "fail_rate"]) <= printed

    traced, _ = _run(monkeypatch, capsys, name, 1)
    assert traced["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected


def test_child_self_times_fit_inside_their_span(program, tmp_path):
    rng = gen.np.random.default_rng(1)
    dag = gen.layered_dag(rng, 20, edge_prob=0.2, workload_scale=3e8, bit_scale=1.2e4)
    dag_path = gen.write_json(tmp_path / "dag.json", dag)
    config_path = gen.write_json(tmp_path / "config.json", gen.config(gen.serial_slots(dag) + 2000))
    argv = ["--config", str(config_path), "solve", "--dag", str(dag_path),
            "--out", str(tmp_path / "out.json")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.command(program.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    recorded = tracer.drain()
    own = spans.self_times(recorded)
    assert len(recorded) > 10
    assert recorded[0][0] == spans.COMMAND
    children: dict[int, int] = {}
    for i, span in enumerate(recorded):
        assert own[i] >= 0, span[0]
        if span[3] >= 0:
            children[span[3]] = children.get(span[3], 0) + own[i]
    for parent, total in children.items():
        duration = recorded[parent][2] - recorded[parent][1]
        assert total <= duration, recorded[parent][0]
    command = recorded[0][2] - recorded[0][1]
    assert sum(own) == command


def test_missing_function_is_an_absent_layer(program, monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "simplex", [("simplex", "no_such_function")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["simplex.no_such_function"]
    totals = spans.LayerTotals()
    assert totals.metrics(tracer.absent)["simplex.calls"] == (0.0, "count")


def test_wrappers_are_removed_after_the_run(program):
    before = program.energy.exact_ceil_div
    tracer = spans.Tracer()
    tracer.install()
    assert program.energy.exact_ceil_div is not before
    tracer.uninstall()
    assert program.energy.exact_ceil_div is before
