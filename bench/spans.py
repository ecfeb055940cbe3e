"""In-memory spans around the program's public functions, for the traced run.

The tracer replaces module attributes of `evtoffload` with wrappers that
record one span per call: name, start, end and the index of the enclosing
span.  A function is replaced under every module that binds it, because the
program looks names up at call time in the calling module (`colgen` calls
its own imported `solve_standard_form`, `check_constraints`, ...).  The
wrappers are installed only around a traced command, so the benchmark's own
checks and the untraced runs of the same command never go through them.

Self time of a span is its duration minus the durations of its direct
children; over all spans under one command the self times add up to the
command's duration exactly.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function) pairs wrapped in the traced run, by layer.
TARGETS = {
    "graph": [("graph", "load_graph")],
    "gev": [
        ("gev", "load_trace_samples"),
        ("gev", "block_maxima"),
        ("gev", "fit_gev_mle"),
        ("gev", "gev_neg_log_likelihood"),
    ],
    "energy": [
        ("energy", "exact_ceil_div"),
        ("energy", "check_constraints"),
        ("energy", "worst_case_expected_energy"),
    ],
    "simplex": [("simplex", "solve_standard_form")],
    "colgen": [
        ("colgen", "solve"),
        ("colgen", "solve_rmp"),
        ("colgen", "phase_one_duals"),
        ("colgen", "tightness_duals"),
        ("colgen", "_price_all"),
        ("colgen", "solve_td"),
        ("colgen", "feasible_slot_range"),
        ("colgen", "_grid_verification"),
    ],
    "policies": [("policies", "solve_sequential"), ("policies", "solve_parallel")],
    "oracle": [("oracle", "brute_force_optimum"), ("oracle", "earliest_completion")],
    "simulate": [("simulate", "monte_carlo"), ("simulate", "simulate_execution")],
}

COMMAND = "cli.command"


class Tracer:
    """Span recorder; spans of one command are summarised and then dropped."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, result]
        self._stack: list[int] = []
        self.absent: list[str] = []
        self._patch_list: list[tuple[object, str, object, object]] | None = None

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, result=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        span[4] = result
        self._stack.pop()

    def command(self, call, *args):
        """Run `call(*args)` inside a command span; returns its result."""
        index = self._open(COMMAND)
        try:
            result = call(*args)
        finally:
            self._close(index)
        return result

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(index, result)

        return wrapper

    # -- installation ----------------------------------------------------
    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a target.

        A target missing from the program is recorded in `absent` (its
        metrics then read 0), so a later refactor that deletes a function
        does not break the traced run.
        """
        if self._patch_list is None:
            self._patch_list = []
            modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("evtoffload")]
            for targets in TARGETS.values():
                for module_name, attr in targets:
                    home = sys.modules.get(f"evtoffload.{module_name}")
                    original = getattr(home, attr, None) if home else None
                    if original is None:
                        self.absent.append(f"{module_name}.{attr}")
                        continue
                    wrapper = self.wrap(f"{module_name}.{attr}", original)
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            self._patch_list.append((module, attr, original, wrapper))
        return self._patch_list

    def install(self) -> None:
        """Wrap every target under every `evtoffload` module that binds it."""
        for module, attr, _, wrapper in self._patches():
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches():
            setattr(module, attr, original)

    def drain(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[int]:
    """Self time in ns of every span: duration minus its direct children's."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


class LayerTotals:
    """Per-layer sums over the traced commands of a run."""

    def __init__(self):
        self.ns: dict[str, int] = defaultdict(int)  # self time per span name
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0

    def add(self, spans: list[list]) -> None:
        own = self_times(spans)
        for i, (name, start, end, parent, result) in enumerate(spans):
            self.ns[name] += own[i]
            self.calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            _count(self.counters, name, parent_name, result, end - start)

    def merge(self, other: "LayerTotals") -> None:
        for mine, theirs in ((self.ns, other.ns), (self.calls, other.calls),
                             (self.counters, other.counters)):
            for key, value in theirs.items():
                mine[key] += value
        self.ops += other.ops

    def metrics(self, absent: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), averaged per workload op."""
        ops = max(self.ops, 1)
        ns, calls, c = self.ns, self.calls, self.counters

        def sec(*names):
            return sum(ns[n] for n in names) / 1e9 / ops

        def per_op(value):
            return value / ops

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "simplex.solve_s": (sec("simplex.solve_standard_form"), "s"),
            "simplex.calls": (per_op(calls["simplex.solve_standard_form"]), "count"),
            "simplex.pivots": (per_op(c["simplex.pivots"]), "count"),
            "energy.ceil_div_calls": (per_op(calls["energy.exact_ceil_div"]), "count"),
            "energy.ceil_div_s": (sec("energy.exact_ceil_div"), "s"),
            "energy.check_s": (sec("energy.check_constraints"), "s"),
            "energy.check_calls": (per_op(calls["energy.check_constraints"]), "count"),
            "energy.psi_s": (sec("energy.worst_case_expected_energy"), "s"),
            "energy.psi_calls": (per_op(calls["energy.worst_case_expected_energy"]), "count"),
            "colgen.master_s": (sec("colgen.solve_rmp"), "s"),
            "colgen.duals_s": (sec("colgen.phase_one_duals", "colgen.tightness_duals"), "s"),
            "colgen.duals_nonzero_ratio": (
                ratio(c["colgen.duals_nonzero"], calls["colgen.phase_one_duals"]),
                "ratio",
            ),
            "colgen.pricing_s": (
                sec("colgen._price_all", "colgen.solve_td", "colgen.feasible_slot_range"),
                "s",
            ),
            "colgen.verify_s": (sec("colgen._grid_verification"), "s"),
            "colgen.other_s": (sec("colgen.solve"), "s"),
            "colgen.candidates_priced": (per_op(calls["colgen.solve_td"]), "count"),
            "colgen.slots_scanned": (per_op(c["colgen.slots_scanned"]), "count"),
            "colgen.rounds": (per_op(c["colgen.rounds"]), "count"),
            "colgen.admissions": (per_op(c["colgen.admissions"]), "count"),
            "colgen.admit_ratio": (ratio(c["colgen.admissions"], c["colgen.rounds"]), "ratio"),
            "policies.sequential_s": (sec("policies.solve_sequential"), "s"),
            "policies.parallel_s": (sec("policies.solve_parallel"), "s"),
            "policies.calls": (
                per_op(calls["policies.solve_sequential"] + calls["policies.solve_parallel"]),
                "count",
            ),
            "oracle.enum_s": (sec("oracle.brute_force_optimum"), "s"),
            "oracle.ec_s": (sec("oracle.earliest_completion"), "s"),
            "oracle.ec_calls": (per_op(calls["oracle.earliest_completion"]), "count"),
            "oracle.us_per_assignment": (
                ratio(c["oracle.enum_total_ns"] / 1e3, c["oracle.assignments"]),
                "us",
            ),
            "oracle.feasible_ratio": (
                ratio(c["oracle.feasible"], c["oracle.assignments"]),
                "ratio",
            ),
            "graph.load_s": (sec("graph.load_graph"), "s"),
            "graph.load_calls": (per_op(calls["graph.load_graph"]), "count"),
            "simulate.replay_s": (sec("simulate.monte_carlo", "simulate.simulate_execution"), "s"),
            "simulate.rep_us": (
                ratio(c["simulate.total_ns"] / 1e3, c["simulate.replications"]),
                "us",
            ),
            "simulate.transfers_per_rep": (
                ratio(c["simulate.transfers"], calls["simulate.simulate_execution"]),
                "count",
            ),
            "gev.load_s": (sec("gev.load_trace_samples"), "s"),
            "gev.rows": (per_op(c["gev.rows"]), "count"),
            "gev.block_s": (sec("gev.block_maxima"), "s"),
            "gev.mle_s": (sec("gev.fit_gev_mle", "gev.gev_neg_log_likelihood"), "s"),
            "gev.nll_evals": (per_op(calls["gev.gev_neg_log_likelihood"]), "count"),
            "cli.io_s": (sec(COMMAND), "s"),
            "trace.absent_targets": (float(len(absent)), "count"),
        }


def _count(counters, name, parent_name, result, duration_ns) -> None:
    """Counters read off a span's return value."""
    if result is None:
        return
    if name == "simplex.solve_standard_form":
        counters["simplex.pivots"] += getattr(result, "pivots", 0)
    elif name == "colgen.phase_one_duals":
        if any(v > 0.0 for v in result.values()):
            counters["colgen.duals_nonzero"] += 1
    elif name == "colgen.feasible_slot_range" and parent_name == "colgen.solve_td":
        counters["colgen.slots_scanned"] += result[1] - result[0] + 1
    elif name == "colgen.solve":
        counters["colgen.rounds"] += len(result.log)
        counters["colgen.admissions"] += result.iterations
    elif name == "oracle.brute_force_optimum":
        counters["oracle.assignments"] += result.assignments_enumerated
        counters["oracle.feasible"] += result.feasible_count
        counters["oracle.enum_total_ns"] += duration_ns
    elif name == "simulate.monte_carlo":
        counters["simulate.replications"] += result.replications
        counters["simulate.total_ns"] += duration_ns
    elif name == "simulate.simulate_execution":
        counters["simulate.transfers"] += len(result.transfers)
    elif name == "gev.load_trace_samples":
        counters["gev.rows"] += len(next(iter(result.values())).values)
