"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Stochastic checks are seeded and therefore deterministic; Monte Carlo
confidence intervals use estimators whose error bars are valid for the
distributions involved (heavy tails included).
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from evtoffload import mincut
from evtoffload.cli import main
from evtoffload.colgen import EXIT_PRICING_NONNEG, EXIT_RATIO, solve
from evtoffload.energy import CLIENT, SERVER, InfeasibleError, OffloadDecision, SystemParams
from evtoffload.gev import (
    GevParams,
    SampleSet,
    block_maxima,
    fit_gev_mle,
    gev_cdf,
    gev_mean,
    gev_quantile,
    gev_sample,
)
from evtoffload.graph import load_graph
from evtoffload.oracle import brute_force_optimum, earliest_completion
from evtoffload.simulate import DistSpec, LayeredDagSpec, TraceModel, gen_layered_dag, monte_carlo
from evtoffload.energy import exec_slots, worst_case_expected_energy

from conftest import (
    INSTANCE_DIR,
    chain_graph,
    fan_graph,
    random_small_instance,
    record_criterion,
    toy_params,
)


# --------------------------------------------------------------------------
# Criterion 1: GEV closed forms
# --------------------------------------------------------------------------

def _mc_mean_with_tail(params: GevParams, n: int, seed: int, p_tail: float = 1e-4):
    """Monte Carlo mean with a quadrature tail correction.

    For xi >= 0.5 the GEV has infinite variance, so a naive sample-mean
    3-sigma interval is invalid.  Truncating at an extreme quantile makes
    the MC part finite-variance (valid standard error); the removed tail is
    integrated numerically from the quantile function, which is independent
    of the Gamma-function identity under test.
    """
    rng = np.random.default_rng(seed)
    draws = gev_sample(params, rng, size=n)
    cap = gev_quantile(params, p_tail)
    truncated = np.minimum(draws, cap)
    tail, quad_err = quad(lambda e: gev_quantile(params, e) - cap, 0.0, p_tail, limit=200)
    estimate = float(np.mean(truncated)) + tail
    se = float(np.std(truncated)) / math.sqrt(n)
    return estimate, se, quad_err


def test_criterion_1_gev_closed_forms():
    start = time.perf_counter()
    ok = True
    detail = []

    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for _ in range(1000):
        params = GevParams(
            mu=float(rng.uniform(-10, 10)),
            sigma=float(rng.uniform(0.1, 10)),
            xi=float(rng.uniform(-2, 2)),
        )
        eps = float(rng.uniform(0.001, 0.999))
        gap = abs(gev_cdf(params, gev_quantile(params, eps)) - (1.0 - eps))
        worst_gap = max(worst_gap, gap)
    roundtrip_ok = worst_gap < 1e-9
    ok &= roundtrip_ok
    detail.append(f"roundtrip max err {worst_gap:.2e}")

    mc_ok = True
    for xi in (-0.5, 0.0, 0.5, 0.9):
        params = GevParams(1.0, 2.0, xi)
        estimate, se, quad_err = _mc_mean_with_tail(params, 10_000_000, 20260808)
        gap = abs(estimate - gev_mean(params))
        if gap > 3.0 * se + 10.0 * quad_err:
            mc_ok = False
            detail.append(f"mean mismatch at xi={xi}: gap={gap:.4g} se={se:.4g}")
    ok &= mc_ok
    if mc_ok:
        detail.append("mean MC ok for xi in {-0.5,0,0.5,0.9}")

    cont_gap = 0.0
    for mu, sigma in ((0.0, 1.0), (3.0, 0.4), (-2.0, 5.0)):
        for eps in (0.01, 0.1, 0.5, 0.9, 0.99):
            cont_gap = max(
                cont_gap,
                abs(
                    gev_quantile(GevParams(mu, sigma, 1e-8), eps)
                    - gev_quantile(GevParams(mu, sigma, 0.0), eps)
                ),
            )
    ok &= cont_gap < 1e-5
    detail.append(f"xi->0 continuity gap {cont_gap:.2e}")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    detail.append(f"{elapsed:.1f}s")
    record_criterion("criterion 1: GEV closed forms", ok, "; ".join(detail))
    assert ok, detail


# --------------------------------------------------------------------------
# Criterion 2: MLE recovery
# --------------------------------------------------------------------------

def test_criterion_2_mle_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    hits = 0
    for i in range(20):
        mu = float(rng.uniform(0, 3))
        sigma = float(rng.uniform(0.3, 1.0))
        xi = 0.0 if i % 5 == 0 else float(rng.uniform(-0.3, 0.5))
        maxima = gev_sample(GevParams(mu, sigma, xi), np.random.default_rng(9000 + i), size=500)
        fitted = fit_gev_mle(maxima)
        if (
            abs(fitted.mu - mu) < 0.1
            and abs(fitted.sigma - sigma) < 0.1
            and abs(fitted.xi - xi) < 0.15
        ):
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 18 and elapsed < 60.0
    record_criterion(
        "criterion 2: MLE recovery", ok, f"{hits}/20 within tolerance; {elapsed:.1f}s"
    )
    assert ok, hits


# --------------------------------------------------------------------------
# Criteria 3 + 4: oracle sandwich and exit certificates over 200 DAGs
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sandwich_runs():
    runs = []
    seed = 0
    while len(runs) < 200:
        graph, params = random_small_instance(seed)
        seed += 1
        instance_runs = []
        try:
            for eps in (0.0, 0.05):
                instance_runs.append((eps, solve(graph, params.replace(epsilon=eps))))
        except InfeasibleError:
            continue
        oracle = brute_force_optimum(graph, params)
        runs.append((graph, params, oracle, instance_runs))
    return runs


def test_criterion_3_oracle_sandwich(sandwich_runs):
    start = time.perf_counter()
    violations = 0
    iterations_checked = 0
    for graph, params, oracle, instance_runs in sandwich_runs:
        guard = 1e-9 * max(1.0, abs(oracle.psi_star))
        for _eps, result in instance_runs:
            for rec in result.log:
                iterations_checked += 1
                if not (
                    rec.psi_lower <= oracle.psi_star + guard
                    and oracle.psi_star <= rec.psi_upper + guard
                ):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    record_criterion(
        "criterion 3: oracle sandwich",
        ok,
        f"200 DAGs, {iterations_checked} iterations, {violations} violations",
    )
    assert ok, violations


def test_criterion_4_epsilon_certificates(sandwich_runs):
    ratio_exits = 0
    certified_exits = 0
    violations = 0
    for graph, params, oracle, instance_runs in sandwich_runs:
        guard = 1e-9 * max(1.0, abs(oracle.psi_star))
        for eps, result in instance_runs:
            if result.exit_reason == EXIT_RATIO:
                ratio_exits += 1
                if not result.report.psi <= (1.0 + eps) * result.psi_lower:
                    violations += 1
            if result.exit_reason == EXIT_PRICING_NONNEG and result.optimal_certified:
                certified_exits += 1
                if abs(result.report.psi - oracle.psi_star) > guard:
                    violations += 1
    ok = violations == 0
    record_criterion(
        "criterion 4: epsilon certificates",
        ok,
        f"{ratio_exits} ratio exits, {certified_exits} certified exits, {violations} violations",
    )
    assert ok, violations


# --------------------------------------------------------------------------
# Criterion 5: one-climb structure on chains
# --------------------------------------------------------------------------

def _random_chain_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    graph = chain_graph(
        [int(rng.integers(1, 20)) for _ in range(n)],
        [int(rng.integers(1, 60)) for _ in range(n - 1)],
    )
    total = sum(m.workload_cycles for m in graph.modules)
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=float(rng.uniform(0.05, 2.0)),
        theta_up=float(rng.uniform(0.01, 0.6)),
        theta_down=float(rng.uniform(0.01, 0.6)),
        z_up_s=float(rng.integers(1, 4)),
        z_down_s=float(rng.integers(1, 3)),
        deadline_slots=10 * total + 200,
    )
    return graph, params


def test_criterion_5_one_climb_chains():
    start = time.perf_counter()
    contiguous = 0
    exact = 0
    for seed in range(100):
        graph, params = _random_chain_instance(5000 + seed)
        oracle = brute_force_optimum(graph, params)
        server = sorted(oracle.decision.server_set())
        if not server or server == list(range(server[0], server[-1] + 1)):
            contiguous += 1
        decision = mincut.solve(graph, params).decision
        psi = worst_case_expected_energy(graph, decision, params).psi
        if abs(psi - oracle.psi_star) <= 1e-9 * max(1.0, oracle.psi_star):
            exact += 1
    elapsed = time.perf_counter() - start
    ok = contiguous == 100 and exact == 100 and elapsed < 120.0
    record_criterion(
        "criterion 5: one-climb chains",
        ok,
        f"contiguous {contiguous}/100, exact {exact}/100, {elapsed:.1f}s",
    )
    assert ok, (contiguous, exact)


# --------------------------------------------------------------------------
# Criterion 6: parallel threshold policy (the min cut decomposes into it on a fan)
# --------------------------------------------------------------------------

def test_criterion_6_parallel_threshold():
    start = time.perf_counter()
    matches = 0
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(4, 11))
        graph = fan_graph(
            [int(rng.integers(1, 20)) for _ in range(n)],
            [int(rng.integers(1, 60)) for _ in range(n - 2)],
            [int(rng.integers(1, 60)) for _ in range(n - 2)],
        )
        total = sum(m.workload_cycles for m in graph.modules)
        params = toy_params(
            f_c_hz=1.0,
            f_s_hz=2.0,
            kappa=float(rng.uniform(0.05, 2.0)),
            theta_up=float(rng.uniform(0.01, 0.6)),
            theta_down=float(rng.uniform(0.01, 0.6)),
            z_up_s=float(rng.integers(1, 4)),
            z_down_s=float(rng.integers(1, 3)),
            deadline_slots=10 * total + 200,
        )
        decision = mincut.solve(graph, params).decision
        oracle = brute_force_optimum(graph, params)
        psi = worst_case_expected_energy(graph, decision, params).psi
        if (
            decision.location == oracle.decision.location
            and abs(psi - oracle.psi_star) <= 1e-9 * max(1.0, oracle.psi_star)
        ):
            matches += 1
    elapsed = time.perf_counter() - start
    ok = matches == 100 and elapsed < 120.0
    record_criterion(
        "criterion 6: parallel threshold", ok, f"matches {matches}/100, {elapsed:.1f}s"
    )
    assert ok, matches


# --------------------------------------------------------------------------
# Criterion 7: eps_m trend on the shipped instance
# --------------------------------------------------------------------------

def test_criterion_7_eps_m_trend():
    graph = load_graph(INSTANCE_DIR / "smart_diagnosis.json")
    v_up = GevParams(0.345, 0.002, 0.05)
    v_down = GevParams(0.105, 0.001, 0.05)
    base = SystemParams()
    offload_pcts = []
    psis = []
    grid = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    for eps_m in grid:
        params = base.replace(
            z_up_s=gev_quantile(v_up, eps_m),
            z_down_s=gev_quantile(v_down, eps_m),
        )
        result = solve(graph, params)
        offloaded = len(result.decision.server_set())
        offload_pcts.append(100.0 * offloaded / (graph.n_nodes - 2))
        psis.append(result.report.psi)
    non_increasing = all(a >= b - 1e-12 for a, b in zip(offload_pcts, offload_pcts[1:]))
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(psis, psis[1:]))
    ok = non_increasing and non_decreasing
    record_criterion(
        "criterion 7: eps_m trend",
        ok,
        f"offload% {offload_pcts[0]:.0f}->{offload_pcts[-1]:.0f} non-increasing={non_increasing}, "
        f"psi non-decreasing={non_decreasing}",
    )
    assert ok, (offload_pcts, psis)


# --------------------------------------------------------------------------
# Criterion 8: scaling study
# --------------------------------------------------------------------------

def test_criterion_8_scaling():
    start = time.perf_counter()
    walls = {}
    iter_ok = True
    for n in (10, 100, 1000):
        rng = np.random.default_rng(20260800 + n)
        spec = LayeredDagSpec(n_nodes=n, edge_prob=0.05, workload_scale=3e8, bit_scale=1.2e4)
        graph = gen_layered_dag(spec, rng)
        serial = sum(
            exec_slots(m.workload_cycles, 1.5e9, 1e-3) for m in graph.modules
        )
        params = SystemParams(deadline_slots=serial + 2000)
        t0 = time.perf_counter()
        result = solve(graph, params)
        walls[n] = time.perf_counter() - t0
        if result.iterations > n - 2:
            iter_ok = False
    ratio = walls[1000] / walls[100]
    elapsed = time.perf_counter() - start
    ok = iter_ok and ratio <= 30.0 and elapsed < 600.0
    record_criterion(
        "criterion 8: scaling",
        ok,
        f"wall 10/100/1000 = {walls[10]:.2f}/{walls[100]:.2f}/{walls[1000]:.2f}s, "
        f"ratio {ratio:.1f} <= 30, iterations within N-2: {iter_ok}",
    )
    assert ok, walls


# --------------------------------------------------------------------------
# Criterion 9: exceedance calibration
# --------------------------------------------------------------------------

def test_criterion_9_exceedance_calibration():
    start = time.perf_counter()
    # Fit a GEV to block maxima of a base process, then drive the simulator
    # with that fitted law and plan z at eps_m = 0.1.
    base = GevParams(2.0, 0.4, 0.1)
    raw = gev_sample(base, np.random.default_rng(31), size=6000)
    fitted = fit_gev_mle(block_maxima(SampleSet(np.maximum(raw, 0.0)), 30))
    z = gev_quantile(fitted, 0.1)

    rate = 1e5
    payload = 10_000
    graph = chain_graph([1, 2, 1], [payload, payload])
    params = toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        delta_s=0.001,
        z_up_s=z,
        z_down_s=z,
        deadline_slots=200_000,
    )
    location = {1: CLIENT, 2: SERVER, 3: CLIENT}
    decision = OffloadDecision(location, earliest_completion(graph, location, params).slots)
    queue_spec = DistSpec(
        "gev",
        {"mu": fitted.mu * rate - payload, "sigma": fitted.sigma * rate, "xi": fitted.xi},
    )
    const_rate = DistSpec("uniform", {"low": rate, "high": rate})
    const_power = DistSpec("uniform", {"low": 1.0, "high": 1.0})
    model = TraceModel(
        rate_up=const_rate,
        rate_down=const_rate,
        queue_up_bits=queue_spec,
        queue_down_bits=queue_spec,
        power_up=const_power,
        power_down=const_power,
        seed=91,
    )
    report = monte_carlo(graph, decision, model, params, 10_000)
    rates = {edge: stats["rate"] for edge, stats in report.edge_exceedance.items()}
    ok = all(abs(r - 0.10) < 0.03 for r in rates.values())
    elapsed = time.perf_counter() - start
    record_criterion(
        "criterion 9: exceedance calibration",
        ok,
        f"rates {rates}; {elapsed:.1f}s",
    )
    assert ok, rates


# --------------------------------------------------------------------------
# Criterion 10: command determinism
# --------------------------------------------------------------------------

def _run_twice(tmp_path, name, argv_builder):
    out_a = tmp_path / f"{name}_a.json"
    out_b = tmp_path / f"{name}_b.json"
    assert main(argv_builder(out_a)) == 0
    assert main(argv_builder(out_b)) == 0
    return out_a.read_bytes() == out_b.read_bytes()


def test_criterion_10_command_determinism(tmp_path):
    config = tmp_path / "config.json"
    toy_params(
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        deadline_slots=300,
        theta_up=0.05,
        theta_down=0.02,
    ).to_json(config)

    dag = tmp_path / "dag.json"
    assert main(["--seed", "11", "gen", "--nodes", "8", "--edge-prob", "0.3",
                 "--workload-scale", "4", "--bit-scale", "9", "--out", str(dag)]) == 0

    rng = np.random.default_rng(17)
    trace = tmp_path / "trace.csv"
    v = gev_sample(GevParams(2.0, 0.4, 0.1), rng, size=2000)
    p_up = gev_sample(GevParams(10.0, 2.0, 0.05), rng, size=2000)
    p_dn = gev_sample(GevParams(5.0, 1.0, 0.05), rng, size=2000)
    lines = ["t_ms,queue_up_bits,queue_down_bits,rate_up_bps,rate_down_bps,power_up_mw,power_down_mw"]
    for i, value in enumerate(v):
        q = max(value * 1e5 - 1e4, 0.0)
        lines.append(f"{i},{q},{q},100000.0,100000.0,{max(p_up[i], 0.1)},{max(p_dn[i], 0.1)}")
    trace.write_text("\n".join(lines) + "\n")

    model = tmp_path / "model.json"
    const = {"family": "uniform", "params": {"low": 1e6, "high": 1e6}}
    model.write_text(json.dumps({
        "rate_up": const, "rate_down": const,
        "queue_up_bits": {"family": "lognormal", "params": {"mean_log": 5.0, "sigma_log": 1.0}},
        "queue_down_bits": {"family": "lognormal", "params": {"mean_log": 5.0, "sigma_log": 1.0}},
        "power_up": {"family": "uniform", "params": {"low": 1, "high": 2}},
        "power_down": {"family": "uniform", "params": {"low": 1, "high": 2}},
        "seed": 9,
    }))

    gev = tmp_path / "gev.json"
    gev.write_text(json.dumps({
        "v_up": {"mu": 2.0, "sigma": 0.01, "xi": 0.05},
        "v_down": {"mu": 1.0, "sigma": 0.01, "xi": 0.05},
    }))

    checks = {}
    checks["gen"] = _run_twice(
        tmp_path, "gen",
        lambda out: ["--seed", "23", "gen", "--nodes", "12", "--edge-prob", "0.2",
                     "--workload-scale", "4", "--bit-scale", "9", "--out", str(out)],
    )
    checks["fit"] = _run_twice(
        tmp_path, "fit",
        lambda out: ["fit", "--traces", str(trace), "--k", "20",
                     "--payload-bits", "10000", "--out", str(out)],
    )

    def solve_args(out):
        return ["--config", str(config), "solve", "--dag", str(dag),
                "--out", str(out), "--log", str(out) + ".csv"]

    checks["solve"] = _run_twice(tmp_path, "solve", solve_args)
    log_a = (tmp_path / "solve_a.json.csv").read_bytes()
    log_b = (tmp_path / "solve_b.json.csv").read_bytes()
    checks["solve_log"] = log_a == log_b
    checks["oracle"] = _run_twice(
        tmp_path, "oracle",
        lambda out: ["--config", str(config), "oracle", "--dag", str(dag), "--out", str(out)],
    )
    decision = tmp_path / "solve_a.json"
    checks["simulate"] = _run_twice(
        tmp_path, "simulate",
        lambda out: ["--config", str(config), "simulate", "--dag", str(dag),
                     "--decision", str(decision), "--model", str(model),
                     "--replications", "50", "--out", str(out)],
    )
    checks["compare"] = _run_twice(
        tmp_path, "compare",
        lambda out: ["--config", str(config), "compare", "--dag", str(dag),
                     "--gev", str(gev), "--eps-grid", "0,0.05",
                     "--eps-m-grid", "0.05,0.2", "--out", str(out)],
    )
    ok = all(checks.values())
    record_criterion(
        "criterion 10: command determinism",
        ok,
        ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in checks.items()),
    )
    assert ok, checks
