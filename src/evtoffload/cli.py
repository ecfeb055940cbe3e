"""Command-line interface: fit, solve, oracle, simulate, gen, compare."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import colgen, policies
from .energy import InfeasibleError, OffloadDecision, SystemParams, worst_case_expected_energy
from .gev import (
    FitConvergenceError,
    block_maxima,
    fit_gev_mle,
    gev_mean,
    gev_quantile,
    load_trace_samples,
    GevParams,
)
from .graph import GraphError, load_graph, save_graph
from .oracle import brute_force_optimum
from .simulate import LayeredDagSpec, TraceModel, gen_layered_dag, monte_carlo

PAPER_DEFAULTS = {
    "z_up_s": 0.349,
    "z_down_s": 0.107,
    "theta_up": 4.81e-4,
    "theta_down": 1.11e-5,
}


def _write_json(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _load_params(args) -> SystemParams:
    params = SystemParams.from_json(args.config) if args.config else SystemParams()
    if getattr(args, "seed", None) is not None:
        params = params.replace(seed=args.seed)
    return params


def _decision_from_file(path: str) -> OffloadDecision:
    data = json.loads(Path(path).read_text())
    location = {int(item["id"]): item["location"] for item in data["nodes"]}
    slot = {int(item["id"]): int(item["slot"]) for item in data["nodes"]}
    return OffloadDecision(location=location, slot=slot)


def cmd_fit(args) -> int:
    if args.paper_defaults:
        out = dict(PAPER_DEFAULTS)
        out["eps_m_up"] = args.eps_m_up
        out["eps_m_down"] = args.eps_m_down
        _write_json(args.out, out)
        return 0
    samples = load_trace_samples(args.traces, args.payload_bits)
    fits: dict[str, GevParams] = {}
    for name, sample_set in samples.items():
        fits[name] = fit_gev_mle(block_maxima(sample_set, args.k))
    out = {
        name: {"mu": p.mu, "sigma": p.sigma, "xi": p.xi} for name, p in fits.items()
    }
    out["z_up_s"] = gev_quantile(fits["v_up"], args.eps_m_up)
    out["z_down_s"] = gev_quantile(fits["v_down"], args.eps_m_down)
    out["theta_up"] = gev_mean(fits["j"])
    out["theta_down"] = gev_mean(fits["h"])
    for key, name in (("z_up_s", "v_up"), ("z_down_s", "v_down"),
                      ("theta_up", "j"), ("theta_down", "h")):
        if not math.isfinite(out[key]):
            raise ValueError(
                f"fitted {key} is {out[key]}: the GEV fit of {name} has xi = {fits[name].xi}"
            )
    out["eps_m_up"] = args.eps_m_up
    out["eps_m_down"] = args.eps_m_down
    out["block_size_k"] = args.k
    _write_json(args.out, out)
    return 0


def _dispatch_policy(graph, params, policy: str, epsilon):
    if policy == "sequential" or (policy == "auto" and policies.is_chain(graph)):
        decision = policies.solve_sequential(policies.ChainInstance(graph), params)
        return decision, None
    if policy == "parallel" or (policy == "auto" and policies.is_fan(graph)):
        decision = policies.solve_parallel(policies.FanInstance(graph), params)
        return decision, None
    result = colgen.solve(graph, params, epsilon)
    return result.decision, result


def cmd_solve(args) -> int:
    graph = load_graph(args.dag)
    params = _load_params(args)
    decision, result = _dispatch_policy(graph, params, args.policy, args.epsilon)
    if result is not None:
        colgen.write_decision_json(args.out, result)
        if args.log:
            colgen.write_iteration_log(args.log, result.log)
    else:
        report = worst_case_expected_energy(graph, decision, params)
        nodes = [
            {"id": n, "location": decision.location[n], "slot": decision.slot[n]}
            for n in sorted(decision.location)
        ]
        # The closed-form policies are exact only with a non-binding
        # deadline, so no optimality flag is claimed here.
        _write_json(
            args.out,
            {
                "psi": report.psi,
                "psi_lower": colgen.attribution_lower_bound(graph, params),
                "psi_upper": report.psi,
                "epsilon": 0.0,
                "iterations": 0,
                "exit_reason": "closed_form_policy",
                "optimal_certified": False,
                "nodes": nodes,
            },
        )
    return 0


def cmd_oracle(args) -> int:
    graph = load_graph(args.dag)
    params = _load_params(args)
    result = brute_force_optimum(graph, params)
    nodes = [
        {
            "id": n,
            "location": result.decision.location[n],
            "slot": result.decision.slot[n],
        }
        for n in sorted(result.decision.location)
    ]
    _write_json(
        args.out,
        {
            "psi": result.psi_star,
            "psi_lower": result.psi_star,
            "psi_upper": result.psi_star,
            "epsilon": 0.0,
            "iterations": 0,
            "assignments_enumerated": result.assignments_enumerated,
            "feasible_count": result.feasible_count,
            "nodes": nodes,
        },
    )
    return 0


def cmd_simulate(args) -> int:
    graph = load_graph(args.dag)
    params = _load_params(args)
    decision = _decision_from_file(args.decision)
    model = TraceModel.from_json(args.model)
    if args.seed is not None:
        model = dataclasses.replace(model, seed=args.seed)
    report = monte_carlo(graph, decision, model, params, args.replications)
    report.to_json(args.out)
    return 0


def cmd_gen(args) -> int:
    spec = LayeredDagSpec(
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        width_min=args.width_min,
        width_max=args.width_max,
        workload_scale=args.workload_scale,
        bit_scale=args.bit_scale,
    )
    seed = args.seed if args.seed is not None else 0
    graph = gen_layered_dag(spec, np.random.default_rng(seed))
    save_graph(graph, args.out)
    return 0


def cmd_compare(args) -> int:
    graph = load_graph(args.dag)
    params = _load_params(args)
    gev_data = json.loads(Path(args.gev).read_text())
    v_up = GevParams(**gev_data["v_up"])
    v_down = GevParams(**gev_data["v_down"])
    eps_grid = [float(x) for x in args.eps_grid.split(",")]
    eps_m_grid = [float(x) for x in args.eps_m_grid.split(",")]

    interior = max(graph.n_nodes - 2, 1)
    rows = []
    for eps_m in eps_m_grid:
        swept = params.replace(
            eps_m_up=eps_m,
            eps_m_down=eps_m,
            z_up_s=gev_quantile(v_up, eps_m),
            z_down_s=gev_quantile(v_down, eps_m),
        )
        for eps in eps_grid:
            result = colgen.solve(graph, swept, eps)
            offloaded = sum(
                1 for loc in result.decision.location.values() if loc == "server"
            )
            rows.append(
                {
                    "epsilon": eps,
                    "eps_m": eps_m,
                    "offload_pct": 100.0 * offloaded / interior,
                    "psi": result.report.psi,
                    "iterations": result.iterations,
                }
            )
    _write_json(args.out, {"rows": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtoffload",
        description="Energy-efficient DAG offloading decisions under channel/queue uncertainty",
    )
    parser.add_argument("--config", help="SystemParams JSON (defaults used when omitted)")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit GEV models to a trace CSV")
    p.add_argument("--traces", help="trace CSV path")
    p.add_argument("--k", type=int, default=1500, help="block size for maxima")
    p.add_argument("--eps-m-up", type=float, default=0.1, dest="eps_m_up")
    p.add_argument("--eps-m-down", type=float, default=0.1, dest="eps_m_down")
    p.add_argument("--payload-bits", type=float, default=12000.0, dest="payload_bits")
    p.add_argument("--paper-defaults", action="store_true", dest="paper_defaults",
                   help="emit the reference experiment constants instead of fitting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("--dag", required=True)
    p.add_argument("--policy", choices=["auto", "cg", "sequential", "parallel"], default="cg")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--log", help="iteration log CSV path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum by enumeration (small N)")
    p.add_argument("--dag", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="Monte Carlo replay of a decision")
    p.add_argument("--dag", required=True)
    p.add_argument("--decision", required=True)
    p.add_argument("--model", required=True, help="TraceModel JSON")
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="generate a random layered DAG")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.05, dest="edge_prob")
    p.add_argument("--width-min", type=int, default=1, dest="width_min")
    p.add_argument("--width-max", type=int, default=5, dest="width_max")
    p.add_argument("--workload-scale", type=float, default=1e6, dest="workload_scale")
    p.add_argument("--bit-scale", type=float, default=1.2e4, dest="bit_scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compare", help="sweep epsilon and eps_m grids")
    p.add_argument("--dag", required=True)
    p.add_argument("--gev", required=True, help="fitted GEV JSON from `fit`")
    p.add_argument("--eps-grid", default="0,0.01,0.03,0.05,0.1", dest="eps_grid")
    p.add_argument("--eps-m-grid", default="0.01,0.05,0.1,0.2,0.3", dest="eps_m_grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, InfeasibleError, FitConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
