"""evtoffload benchmark: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 bench/run.py --workload layered-solve --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the working directory; nothing is
installed.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics, with `--trace 1` one with the per-layer
metrics of a traced run.  The lines before it give the same numbers for
people, the workload's own named figures, input digests and run metadata.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import LayerTotals, Tracer  # noqa: E402

SETUP_REPEATS = 5
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import evtoffload.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program(root: Path) -> types.SimpleNamespace:
    """Import evtoffload from `root/src`, refusing any other copy."""
    src = root / "src"
    if not (src / "evtoffload" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source at {src / 'evtoffload'}; "
                         "run from the root of an evtoffload checkout")
    sys.path.insert(0, str(src))
    import evtoffload.cli
    import evtoffload.energy
    import evtoffload.graph

    if Path(evtoffload.cli.__file__).resolve().parent != (src / "evtoffload").resolve():
        raise SystemExit(f"bench: imported evtoffload from {evtoffload.cli.__file__}, not {src}")
    return types.SimpleNamespace(cli=evtoffload.cli, energy=evtoffload.energy, graph=evtoffload.graph)


def measure_setup(root: Path) -> list[float]:
    """Seconds to import evtoffload.cli in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def metadata(root: Path, workload, setup_samples, ops: int) -> dict:
    import numpy
    import scipy

    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    return {
        "git_revision": revision,
        "src_digest": gen.digest_many(sorted((root / "src" / "evtoffload").glob("*.py"))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "setup_samples": len(setup_samples),
        "operations": ops,
        "cli_calls": workload.attempted,
        "inputs": {name: gen.digest(path) for name, path in sorted(workload.files.items())},
    }


def end_to_end(setup_samples, workload) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ref": (workload.op_s(workloads.NORM), "ref"),
        "answered_ratio": (workload.answered_ratio(), "ratio"),
        "energy_ratio": (workload.energy_ratio(), "ratio"),
    }


def per_layer(runner, tracer) -> dict:
    merged = LayerTotals()
    for totals in runner.totals.values():
        merged.merge(totals)
    metrics = merged.metrics(tracer.absent)
    overhead = runner.traced_s / runner.plain_s - 1.0 if runner.plain_s else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    program = load_program(root)
    setup_samples = measure_setup(root)

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    runner = workloads.Runner(program, tracer)
    workload = workloads.WORKLOADS[args.workload](program, runner, work, args.seed)
    minimum = workload.traced_minimum_ops if args.trace else workload.minimum_ops
    try:
        ops = workload.run(args.seconds, minimum)
        meta = metadata(root, workload, setup_samples, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    named = workload.named()
    named["op_s"] = (workload.op_s(), "s", meta["operations"])
    named["reference_s"] = (statistics.median(runner.ref_samples), "s", len(runner.ref_samples))
    named["declined"] = (workload.declined, "count", workload.attempted)
    named["fail_rate"] = ((workload.failed + workload.declined) / max(workload.attempted, 1),
                          "ratio", workload.attempted)
    metrics = per_layer(runner, tracer) if tracer else end_to_end(setup_samples, workload)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:17s} {name:28s} {value:14.6g} {unit}")
    for name, (value, unit, samples) in named.items():
        print(f"{args.workload:17s} {name:28s} {value:14.6g} {unit:7s} n={samples}")
    if tracer is not None and len(runner.totals) > 1:
        for group, totals in sorted(runner.totals.items()):
            for name, (value, unit) in totals.metrics(tracer.absent).items():
                print(f"{args.workload + ':' + group:17s} {name:28s} {value:14.6g} {unit}")
    for failure in workload.failures:
        print(f"FAILED: {failure}")
    if tracer is not None and tracer.absent:
        print("absent (not wrapped): " + ", ".join(tracer.absent))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "meta": meta, "named": {k: v[0] for k, v in named.items()}}, sort_keys=True))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
