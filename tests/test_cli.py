import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evtoffload import cli, colgen, mincut
from evtoffload.cli import main
from evtoffload.energy import MAX_DEADLINE_SLOTS, OffloadDecision, SystemParams
from evtoffload.gev import (
    GevParams,
    block_maxima,
    gev_quantile,
    gev_sample,
    load_trace_samples,
)
from evtoffload.graph import load_graph, save_graph
from evtoffload.lazy import lazy_numpy
from evtoffload.oracle import brute_force_optimum

from conftest import INSTANCE_DIR, chain_graph, random_small_instance, toy_params


def _write_config(tmp_path, **overrides) -> Path:
    params = SystemParams(**overrides) if overrides else SystemParams()
    path = tmp_path / "config.json"
    params.to_json(path)
    return path


def _toy_config(tmp_path) -> Path:
    return _write_config(
        tmp_path,
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        delta_s=1.0,
        deadline_slots=200,
        z_up_s=2.0,
        z_down_s=1.0,
        theta_up=0.05,
        theta_down=0.02,
        epsilon=0.0,
    )


def _gen_dag(tmp_path, name="dag.json", nodes=8, seed=5) -> Path:
    out = tmp_path / name
    code = main(
        [
            "--seed",
            str(seed),
            "gen",
            "--nodes",
            str(nodes),
            "--edge-prob",
            "0.3",
            "--workload-scale",
            "4",
            "--bit-scale",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_gen_is_deterministic(tmp_path):
    a = _gen_dag(tmp_path, "a.json", seed=7)
    b = _gen_dag(tmp_path, "b.json", seed=7)
    assert a.read_bytes() == b.read_bytes()


def test_gen_different_seeds_differ(tmp_path):
    a = _gen_dag(tmp_path, "a.json", seed=7)
    b = _gen_dag(tmp_path, "b.json", seed=8)
    assert a.read_bytes() != b.read_bytes()


# 1e308 is finite, but at seed 1 some of its 50-node draws are not.
@pytest.mark.parametrize("flag,value", [
    ("--workload-scale", "inf"), ("--bit-scale", "inf"), ("--workload-scale", "1e400"),
    ("--workload-scale", "1e308"), ("--bit-scale", "1e308"),
])
def test_gen_rejects_non_finite_scale(tmp_path, capsys, flag, value):
    out = tmp_path / "dag.json"
    assert main(["--seed", "1", "gen", "--nodes", "50", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} ")
    assert not out.exists()


def test_solve_then_oracle_dominance(tmp_path):
    dag = _gen_dag(tmp_path)
    config = _toy_config(tmp_path)
    solved = tmp_path / "decision.json"
    log = tmp_path / "iters.csv"
    assert main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(solved), "--log", str(log)]) == 0
    exact = tmp_path / "oracle.json"
    assert main(["--config", str(config), "oracle", "--dag", str(dag), "--out", str(exact)]) == 0
    psi_solve = json.loads(solved.read_text())["psi"]
    psi_star = json.loads(exact.read_text())["psi"]
    assert psi_star <= psi_solve + 1e-9
    header = log.read_text().splitlines()[0]
    assert header == "iter,psi_upper,psi_lower,r_underbar,admitted_node"


def test_decision_export_schema(tmp_path):
    dag = _gen_dag(tmp_path)
    config = _toy_config(tmp_path)
    out = tmp_path / "decision.json"
    main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(out)])
    data = json.loads(out.read_text())
    for key in ("psi", "psi_lower", "psi_upper", "epsilon", "iterations", "nodes"):
        assert key in data
    for entry in data["nodes"]:
        assert set(entry) == {"id", "location", "slot"}
        assert entry["location"] in ("client", "server")


def test_oracle_export_carries_enumeration_count(tmp_path):
    dag = _gen_dag(tmp_path, nodes=6)
    config = _toy_config(tmp_path)
    out = tmp_path / "oracle.json"
    main(["--config", str(config), "oracle", "--dag", str(dag), "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["assignments_enumerated"] == 2 ** (6 - 2)
    assert 1 <= data["feasible_count"] <= data["assignments_enumerated"]


@pytest.mark.parametrize("instance", ["smart_diagnosis", "random-small-3"])
def test_every_decider_writes_a_file_that_reads_back_as_its_decision(tmp_path, instance):
    # Column generation, the cut behind auto and the oracle write one decision
    # format: reading a file back gives the decision the decider returns, and
    # simulate takes the oracle's file as its input.
    if instance == "smart_diagnosis":
        dag, params = INSTANCE_DIR / "smart_diagnosis.json", SystemParams()
        graph = load_graph(dag)
    else:
        graph, params = random_small_instance(3)
        dag = tmp_path / "dag.json"
        save_graph(graph, dag)
    config = tmp_path / "config.json"
    params.to_json(config)
    deciders = {
        "cg": (["solve", "--policy", "cg"], colgen.solve),
        "auto": (["solve", "--policy", "auto"], mincut.solve),
        "oracle": (["oracle"], brute_force_optimum),
    }
    for name, (command, decide) in deciders.items():
        out = tmp_path / f"{name}.json"
        assert main(["--config", str(config), *command, "--dag", str(dag), "--out", str(out)]) == 0
        assert OffloadDecision.from_json(out) == decide(graph, params).decision
    argv = ["--config", str(config), "simulate", "--dag", str(dag), "--decision", str(tmp_path / "oracle.json"),
            "--model", str(_write_model(tmp_path)), "--replications", "20", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0


def _write_trace_csv(path: Path, n_rows=4000, seed=2):
    rng = np.random.default_rng(seed)
    v = gev_sample(GevParams(2.0, 0.4, 0.1), rng, size=n_rows)
    rate = 1e5
    payload = 10_000.0
    queue = np.maximum(v * rate - payload, 0.0)
    j = gev_sample(GevParams(1e-4, 2e-5, 0.05), rng, size=n_rows)
    h = gev_sample(GevParams(5e-5, 1e-5, 0.05), rng, size=n_rows)
    lines = ["t_ms,queue_up_bits,queue_down_bits,rate_up_bps,rate_down_bps,power_up_mw,power_down_mw"]
    for i in range(n_rows):
        lines.append(
            f"{i},{queue[i]},{queue[i]},{rate},{rate},{j[i] * rate},{h[i] * rate}"
        )
    path.write_text("\n".join(lines) + "\n")


def test_fit_on_synthetic_traces(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace)
    out = tmp_path / "fit.json"
    code = main(
        [
            "fit",
            "--traces",
            str(trace),
            "--k",
            "20",
            "--payload-bits",
            "10000",
            "--eps-m-up",
            "0.1",
            "--eps-m-down",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    # With rate fixed, v_up block maxima are GEV(k-maxima of the base draw);
    # the derived quantile must be close to the analytic one for that fit.
    fitted = GevParams(**data["v_up"])
    assert abs(data["z_up_s"] - gev_quantile(fitted, 0.1)) < 1e-9
    assert data["theta_up"] > 0
    assert data["block_size_k"] == 20


def _fresh_python(code: str) -> str:
    """Stdout of `code` run by a fresh interpreter that imports this evtoffload."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout.strip()


def test_every_command_runs_where_scipy_cannot_load(tmp_path):
    config, dag, decision = str(_toy_config(tmp_path)), _gen_dag(tmp_path), tmp_path / "decision.json"
    assert main(["--config", config, "solve", "--dag", str(dag), "--out", str(decision)]) == 0
    model = _write_model(tmp_path)
    gev = tmp_path / "gev.json"
    gev.write_text(json.dumps({"v_up": _GEV, "v_down": _GEV}))
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace)
    out = str(tmp_path / "out.json")
    commands = [
        ["fit", "--traces", str(trace), "--k", "20", "--payload-bits", "10000", "--out", out],
        ["gen", "--nodes", "6", "--out", out],
        ["solve", "--dag", str(dag), "--out", out],
        ["solve", "--policy", "auto", "--dag", str(dag), "--out", out],
        ["oracle", "--dag", str(dag), "--out", out],
        ["simulate", "--dag", str(dag), "--decision", str(decision), "--model", str(model),
         "--replications", "20", "--out", out],
        ["compare", "--dag", str(dag), "--gev", str(gev), "--eps-grid", "0.1",
         "--eps-m-grid", "0.1", "--out", out],
    ]
    # A None entry in sys.modules makes every `import scipy` fail.
    code = (
        "import sys; sys.modules['scipy'] = None; import evtoffload, evtoffload.cli; "
        f"codes = [evtoffload.cli.main(['--config', {config!r}] + c) for c in {commands!r}]; "
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code) == f"{[0] * len(commands)} ['scipy']"


def test_fit_on_traces_never_loads_scipy_and_matches_an_in_process_fit(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace)
    args = ["fit", "--traces", str(trace), "--k", "20", "--payload-bits", "10000"]
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    code = (
        "import sys; from evtoffload import cli; "
        f"print(cli.main({args + ['--out', str(fresh)]!r}), 'scipy' in sys.modules)"
    )
    # scipy is installed here, and the fit imports none of it.
    assert _fresh_python(code) == "0 False"
    assert main(args + ["--out", str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_auto_solve_and_oracle_never_run_numpy(tmp_path):
    # The cut, the chain window search and the oracle are pure Python: numpy
    # is bound at import but its code never runs, so no numpy submodule is
    # loaded.  A later column-generation solve in the same process loads it.
    chain, window_config = tmp_path / "chain.json", tmp_path / "window.json"
    save_graph(chain_graph([1, 12, 12, 1], [1, 1, 14]), chain)
    toy_params(z_up_s=4.0, z_down_s=4.0, deadline_slots=26).to_json(window_config)
    dag = str(INSTANCE_DIR / "smart_diagnosis.json")
    cut, window, oracle, cg = (str(tmp_path / f"{name}.json") for name in ("cut", "window", "oracle", "cg"))
    runs = [
        ["solve", "--policy", "auto", "--dag", dag, "--out", cut],
        ["--config", str(window_config), "solve", "--policy", "auto", "--dag", str(chain), "--out", window],
        ["oracle", "--dag", dag, "--out", oracle],
    ]
    cg_args = ["solve", "--policy", "cg", "--dag", dag, "--out"]
    code = (
        "import sys; from evtoffload import cli; "
        "loaded = lambda: [m for m in sys.modules if m.startswith('numpy.')]; "
        "print(loaded()); "
        f"print([cli.main(args) for args in {runs!r}], loaded()); "
        f"print(cli.main({cg_args + [cg]!r}), bool(loaded()))"
    )
    assert _fresh_python(code).splitlines() == ["[]", "[0, 0, 0] []", "0 True"]
    assert [json.loads(Path(p).read_text())["exit_reason"] for p in (cut, window)] == ["mincut", "window"]
    here = tmp_path / "cg-here.json"
    assert main(cg_args + [str(here)]) == 0
    assert Path(cg).read_bytes() == here.read_bytes()


def test_cli_import_loads_every_module_and_shares_one_numpy():
    # Every module is imported with the CLI, numpy included (lazily), and
    # numpy imported afterwards is that same module object.
    code = (
        "import sys, evtoffload.cli; "
        "print(*(m for m in sys.modules if m.startswith('evtoffload.'))); "
        "import numpy; from evtoffload import cli, colgen, gev, simulate; "
        "from evtoffload.lazy import lazy_numpy; "
        "print(all(m.np is numpy for m in (cli, colgen, gev, simulate)), lazy_numpy() is numpy, "
        "float(numpy.euler_gamma) == gev.EULER_GAMMA)"
    )
    modules, shared = _fresh_python(code).splitlines()
    assert {f"evtoffload.{m}" for m in ("colgen", "gev", "simulate", "mincut", "oracle")} <= set(modules.split())
    assert shared == "True True True"


def test_lazy_numpy_returns_the_imported_numpy():
    # Loading numpy a second time breaks it, so an imported numpy is reused.
    assert lazy_numpy() is sys.modules["numpy"] is np
    assert cli.np is np


def test_fit_rejects_non_finite_constants(tmp_path, monkeypatch, capsys):
    # A fitted xi >= 1 has no finite mean: fit must fail before writing.
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace)
    j_maxima = block_maxima(load_trace_samples(trace, 10000.0)["j"], 20)

    def fake_fit(maxima):
        xi = 1.2 if np.array_equal(maxima, j_maxima) else 0.1
        return GevParams(1.0, 0.1, xi)

    monkeypatch.setattr(cli, "fit_gev_mle", fake_fit)
    out = tmp_path / "fit.json"
    args = ["fit", "--traces", str(trace), "--k", "20", "--payload-bits", "10000"]
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "theta_up" in err and "xi = 1.2" in err


def test_fit_without_traces_or_paper_defaults_fails(tmp_path, capsys):
    out = tmp_path / "fit.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--out", str(out)])
    assert excinfo.value.code == 2
    assert not out.exists()
    assert "error: the following arguments are required: --traces" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps-m-up", "--eps-m-down"])
@pytest.mark.parametrize("value", ["7", "0", "1", "-0.1"])
def test_fit_rejects_eps_m_outside_unit_interval(tmp_path, capsys, flag, value):
    # No quantile lies there, so nothing is written.
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace)
    out = tmp_path / "fit.json"
    args = ["fit", "--traces", str(trace), "--k", "20", "--payload-bits", "10000", flag, value]
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()
    name = flag[2:].replace("-", "_")
    assert f"error: {name} must lie in (0, 1)" in capsys.readouterr().err


def test_fit_block_size_too_large_fails(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace, n_rows=50)
    out = tmp_path / "fit.json"
    assert main(["fit", "--traces", str(trace), "--k", "100", "--out", str(out)]) == 2


def _write_model(tmp_path) -> Path:
    model = tmp_path / "model.json"
    const = {"family": "uniform", "params": {"low": 1e6, "high": 1e6}}
    model.write_text(
        json.dumps(
            {
                "rate_up": const,
                "rate_down": const,
                "queue_up_bits": {"family": "uniform", "params": {"low": 0, "high": 100}},
                "queue_down_bits": {"family": "uniform", "params": {"low": 0, "high": 100}},
                "power_up": {"family": "uniform", "params": {"low": 10, "high": 20}},
                "power_down": {"family": "uniform", "params": {"low": 5, "high": 10}},
                "seed": 3,
            }
        )
    )
    return model


def _uniform_model(path: Path, power: float, rate: float = 1.0, queue: float = 0.0,
                   rate_floor_bps: float = 1.0) -> Path:
    """A trace model whose every quantity is the constant given for it."""
    const = {
        "rate": {"family": "uniform", "params": {"low": rate, "high": rate}},
        "queue": {"family": "uniform", "params": {"low": queue, "high": queue}},
        "power": {"family": "uniform", "params": {"low": power, "high": power}},
    }
    model = {f"{kind}_{direction}": const[kind] for kind in ("rate", "power") for direction in ("up", "down")}
    model.update(queue_up_bits=const["queue"], queue_down_bits=const["queue"], rate_floor_bps=rate_floor_bps)
    path.write_text(json.dumps(model))
    return path


def _diagnosis_decision(tmp_path) -> tuple[str, str]:
    """The shipped instance and its `solve` decision under the default config."""
    dag, decision = str(INSTANCE_DIR / "smart_diagnosis.json"), tmp_path / "decision.json"
    if not decision.exists():
        assert main(["solve", "--dag", dag, "--out", str(decision)]) == 0
    return dag, str(decision)


def test_simulate_refuses_energies_beyond_float_range(tmp_path, capsys):
    # Each transfer's energy term, 1e305 mW times its bits at 1 bps, is beyond
    # float range: the report would hold Infinity and NaN quantiles.
    dag, decision = _diagnosis_decision(tmp_path)
    model, out = _uniform_model(tmp_path / "model.json", power=1e305), tmp_path / "report.json"
    args = ["simulate", "--dag", dag, "--decision", decision, "--model", str(model), "--replications", "2"]
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: mean energy is inf: ")
    assert not out.exists()


_MAGNITUDE = st.floats(-300.0, 308.0).map(lambda exponent: 10.0**exponent)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(power=_MAGNITUDE, rate=_MAGNITUDE, queue=_MAGNITUDE, rate_floor_bps=_MAGNITUDE)
@example(power=1e305, rate=1.0, queue=1e-300, rate_floor_bps=1.0)
@example(power=5e303, rate=1.0, queue=1e-300, rate_floor_bps=1.0)  # finite terms, an infinite sum
def test_simulate_writes_finite_json_or_refuses(tmp_path, capsys, power, rate, queue, rate_floor_bps):
    dag, decision = _diagnosis_decision(tmp_path)
    model = _uniform_model(tmp_path / "model.json", power, rate, queue, rate_floor_bps)
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["simulate", "--dag", dag, "--decision", decision, "--model", str(model),
                 "--replications", "2", "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        # parse_constant sees only NaN, Infinity and -Infinity, which are not JSON.
        report = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
        assert report["replications"] == 2
    else:
        assert code == 2 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_refuses_undefined_transfer_times(tmp_path, capsys):
    # Every uplink queue and rate draw is infinite, so each uplink time is
    # inf/inf: an undefined time must not be replayed as a met deadline.
    dag, decision = _diagnosis_decision(tmp_path)
    model = json.loads(_uniform_model(tmp_path / "model.json", power=10.0, rate=1e6).read_text())
    model["queue_up_bits"] = model["rate_up"] = {"family": "lognormal", "params": {"mean_log": 1000, "sigma_log": 0}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    out = tmp_path / "report.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code = main(["simulate", "--dag", dag, "--decision", decision, "--model", str(tmp_path / "model.json"),
                     "--replications", "4", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.count("\n") == 1 and err.startswith("error: queue_up_bits and rate_up both draw infinity")


def test_simulate_roundtrip(tmp_path):
    config = _toy_config(tmp_path)
    dag = _gen_dag(tmp_path)
    decision = tmp_path / "decision.json"
    main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(decision)])
    model = _write_model(tmp_path)
    report = tmp_path / "report.json"
    code = main(
        [
            "--config",
            str(config),
            "simulate",
            "--dag",
            str(dag),
            "--decision",
            str(decision),
            "--model",
            str(model),
            "--replications",
            "25",
            "--out",
            str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["replications"] == 25
    assert 0.0 <= data["deadline_violation_rate"] <= 1.0


def test_compare_produces_grid(tmp_path):
    config = _toy_config(tmp_path)
    dag = _gen_dag(tmp_path, nodes=6)
    gev = tmp_path / "gev.json"
    gev.write_text(
        json.dumps(
            {
                "v_up": {"mu": 2.0, "sigma": 0.01, "xi": 0.05},
                "v_down": {"mu": 1.0, "sigma": 0.01, "xi": 0.05},
            }
        )
    )
    out = tmp_path / "table.json"
    code = main(
        [
            "--config",
            str(config),
            "compare",
            "--dag",
            str(dag),
            "--gev",
            str(gev),
            "--eps-grid",
            "0,0.05",
            "--eps-m-grid",
            "0.05,0.1,0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 6
    for row in rows:
        assert 0.0 <= row["offload_pct"] <= 100.0
        assert row["psi"] > 0


def test_missing_file_gives_nonzero_exit(tmp_path):
    out = tmp_path / "x.json"
    assert main(["solve", "--dag", str(tmp_path / "nope.json"), "--out", str(out)]) == 2


def test_infeasible_instance_gives_nonzero_exit(tmp_path):
    config = _write_config(
        tmp_path,
        f_c_hz=1.0,
        f_s_hz=2.0,
        kappa=1.0,
        delta_s=1.0,
        deadline_slots=1,
        z_up_s=2.0,
        z_down_s=1.0,
        theta_up=0.05,
        theta_down=0.02,
    )
    dag = _gen_dag(tmp_path)
    out = tmp_path / "x.json"
    assert main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(out)]) == 2


@pytest.mark.parametrize("key,value", [("z_up_s", "Infinity"), ("theta_up", "NaN"),
                                       ("deadline_slots", "2.5")])
def test_out_of_range_config_gives_error_exit(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": {value}}}')
    dag = _gen_dag(tmp_path)
    out = tmp_path / "x.json"
    assert main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(out)]) == 2
    assert f"error: {key}" in capsys.readouterr().err
    assert not out.exists()


# Each sums the energy terms of the gen --nodes 6 DAG (seed 0) beyond float
# range: a term overflows, or (kappa 6e283) every term is finite and only
# their total is not, or a workload is an int beyond float range.
_OVER_RANGE = {
    "kappa-1e290": ({"kappa": 1e290}, 1),
    "theta_up-1e305": ({"theta_up": 1e305}, 1),
    "kappa-6e283": ({"kappa": 6e283}, 1),
    "workload-1e400": ({}, 10**400),
}


@pytest.mark.parametrize("command", ["cg", "auto", "oracle", "simulate"])
@pytest.mark.parametrize("case", list(_OVER_RANGE))
def test_energy_total_beyond_float_range_gives_error_exit(tmp_path, capsys, case, command):
    values, workload = _OVER_RANGE[case]
    dag = tmp_path / "dag.json"
    assert main(["--seed", "0", "gen", "--nodes", "6", "--out", str(dag)]) == 0
    data = json.loads(dag.read_text())
    data["nodes"][1]["workload_cycles"] *= workload
    dag.write_text(json.dumps(data))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = ["--config", str(config)] + _command_argv(tmp_path, command)
    assert main(argv + ["--dag", str(dag), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("deadline", [MAX_DEADLINE_SLOTS + 1, 2**63 - 1, 10**30],
                         ids=["ceiling-plus-1", "int64-max", "1e30"])
@pytest.mark.parametrize("command", ["cg", "auto", "oracle", "simulate"])
def test_deadline_beyond_int64_headroom_gives_error_exit(tmp_path, capsys, command, deadline):
    # The replay and the pricing windows add three slot counts capped at
    # T + 1, so every command refuses a T whose sum leaves int64.
    dag = _gen_dag(tmp_path, nodes=6, seed=0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"deadline_slots": deadline}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = ["--config", str(config)] + _command_argv(tmp_path, command)
    assert main(argv + ["--dag", str(dag), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: deadline_slots must lie in 1..")
    assert not out.exists()


def _command_argv(tmp_path, command: str) -> list[str]:
    """`command`'s arguments but --dag and --out; simulate replays an
    all-client decision of a 6-node DAG under a model in `tmp_path`."""
    decision = tmp_path / "decision.json"
    decision.write_text(json.dumps(_decision_nodes()))
    return {
        "cg": ["solve", "--policy", "cg"],
        "auto": ["solve", "--policy", "auto"],
        "oracle": ["oracle"],
        "simulate": ["simulate", "--decision", str(decision), "--model", str(_write_model(tmp_path))],
    }[command]


_GEV = {"mu": 2.0, "sigma": 0.01, "xi": 0.05}


def _decision_nodes(node: int = 1, **fields) -> dict:
    """An all-client decision of a 6-node DAG, with `fields` set on `node`."""
    nodes = [{"id": i, "location": "client", "slot": 10 * i} for i in range(1, 7)]
    nodes[node - 1].update(fields)
    return {"nodes": nodes}


def _two_node_dag(entry: dict | None = None, edge: dict | None = None) -> dict:
    """A valid 2-node DAG once JSON's true reads as 1 and false as 0."""
    return {
        "nodes": [{"id": 1, "workload_cycles": 0, **(entry or {})}, {"id": 2, "workload_cycles": 1}],
        "edges": [{"from": 1, "to": 2, "bits": 1, **(edge or {})}],
    }


@pytest.mark.parametrize(
    "flag,content",
    [
        ("config", "[]"),
        ("model", "[1]"),
        ("gev", json.dumps({"v_down": _GEV})),
        ("gev", json.dumps({"v_up": {"mu": 2.0, "sigma": 0.01}, "v_down": _GEV})),
        ("gev", json.dumps({"v_up": {"mu": "a", "sigma": 0.01, "xi": 0.05}, "v_down": _GEV})),
        ("gev", json.dumps({"v_up": {"mu": 0.1, "sigma": 0.01, "xi": 200}, "v_down": _GEV})),
        ("dag", json.dumps(_two_node_dag(entry={"id": True}))),
        ("dag", json.dumps(_two_node_dag(entry={"workload_cycles": False}))),
        ("dag", json.dumps(_two_node_dag(edge={"from": True}))),
        ("decision", json.dumps(_decision_nodes(3, id="3"))),
        ("decision", json.dumps(_decision_nodes(1, id=True))),
        ("decision", json.dumps(_decision_nodes(2, slot=2.7))),
    ],
    ids=["config-list", "model-list", "gev-no-v_up", "gev-no-xi", "gev-string-mu", "gev-xi-200",
         "dag-bool-id", "dag-bool-workload", "dag-bool-from",
         "decision-string-id", "decision-bool-id", "decision-float-slot"],
)
def test_wrong_shaped_json_gives_error_exit(tmp_path, capsys, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    config = _toy_config(tmp_path)
    dag = _gen_dag(tmp_path, nodes=6)
    decision = tmp_path / "decision.json"
    assert main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(decision)]) == 0
    argv = {
        "config": ["--config", str(bad), "solve", "--dag", str(dag)],
        "model": ["--config", str(config), "simulate", "--dag", str(dag),
                  "--decision", str(decision), "--model", str(bad)],
        "gev": ["--config", str(config), "compare", "--dag", str(dag), "--gev", str(bad)],
        "dag": ["--config", str(config), "solve", "--dag", str(bad)],
        "decision": ["--config", str(config), "simulate", "--dag", str(dag),
                     "--decision", str(bad), "--model", str(_write_model(tmp_path))],
    }[flag]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_decision_listing_a_node_twice_gives_error_exit(tmp_path, capsys):
    dag = _gen_dag(tmp_path, nodes=6)
    decision = _decision_nodes()
    decision["nodes"].append({"id": 3, "location": "server", "slot": 1})
    bad = tmp_path / "decision.json"
    bad.write_text(json.dumps(decision))
    out = tmp_path / "out.json"
    argv = ["--config", str(_toy_config(tmp_path)), "simulate", "--dag", str(dag), "--decision", str(bad),
            "--model", str(_write_model(tmp_path)), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: decision {bad}: node 3 is listed twice")
    assert not out.exists()


def test_policy_dispatch_sequential(tmp_path):
    from evtoffload.graph import save_graph
    from conftest import chain_graph

    dag = tmp_path / "chain.json"
    save_graph(chain_graph([1, 5, 5, 1], [10, 10, 10]), dag)
    config = _toy_config(tmp_path)
    out = tmp_path / "decision.json"
    code = main(
        ["--config", str(config), "solve", "--dag", str(dag), "--policy", "auto", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["exit_reason"] == "mincut"
    assert data["optimal_certified"] is True
    assert data["psi"] == data["psi_upper"]
    assert data["psi_lower"] == data["psi_upper"]


def test_policy_dispatch_parallel(tmp_path):
    from evtoffload.graph import save_graph
    from conftest import fan_graph

    dag = tmp_path / "fan.json"
    save_graph(fan_graph([1, 8, 9, 1], [2, 2], [2, 2]), dag)
    config = _toy_config(tmp_path)
    out = tmp_path / "decision.json"
    code = main(
        ["--config", str(config), "solve", "--dag", str(dag), "--policy", "auto", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["exit_reason"] == "mincut"
    assert data["optimal_certified"] is True
    offloaded = {n["id"] for n in data["nodes"] if n["location"] == "server"}
    assert offloaded == {2, 3}  # local energy 8, 9 beats transfer 2*(0.05+0.02)


def test_auto_offloads_a_chain_whose_local_schedule_misses_the_deadline(tmp_path):
    # Local execution takes 1 + 20 + 1 = 22 slots; offloading node 2 takes
    # 1 + 2 + 10 + 1 + 1 = 15.  The cut keeps node 2 local (20 < 200), so
    # its schedule misses T = 16 and the chain's window search answers.
    from evtoffload.graph import save_graph
    from conftest import chain_graph

    dag = tmp_path / "chain.json"
    save_graph(chain_graph([1, 20, 1], [1, 1]), dag)
    config = _write_config(
        tmp_path, f_c_hz=1.0, f_s_hz=2.0, kappa=1.0, delta_s=1.0, deadline_slots=16,
        z_up_s=2.0, z_down_s=1.0, theta_up=100.0, theta_down=100.0,
    )
    out = tmp_path / "decision.json"
    argv = ["--config", str(config), "solve", "--dag", str(dag), "--policy", "auto"]
    assert main(argv + ["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["psi"] == data["psi_upper"] == 202.0
    assert data["psi_lower"] == 22.0 * (1 - 2.0**-50)
    assert (data["exit_reason"], data["optimal_certified"]) == ("window", False)
    assert [n["location"] for n in data["nodes"]] == ["client", "server", "client"]
    assert [n["slot"] for n in data["nodes"]] == [1, 13, 15]


@pytest.mark.parametrize("policy", ["sequential", "parallel"])
def test_removed_policies_exit_2(tmp_path, capsys, policy):
    dag = _gen_dag(tmp_path)
    out = tmp_path / "decision.json"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--dag", str(dag), "--policy", policy, "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_auto_writes_an_empty_log(tmp_path):
    from evtoffload.graph import save_graph
    from conftest import fan_graph

    dag = tmp_path / "fan.json"
    save_graph(fan_graph([1, 8, 9, 1], [2, 2], [2, 2]), dag)
    config = _toy_config(tmp_path)
    out, log = tmp_path / "decision.json", tmp_path / "iters.csv"
    argv = ["--config", str(config), "solve", "--dag", str(dag), "--policy", "auto"]
    assert main(argv + ["--out", str(out), "--log", str(log)]) == 0
    assert log.read_text().splitlines() == ["iter,psi_upper,psi_lower,r_underbar,admitted_node"]


def test_smart_diagnosis_solves_with_defaults(tmp_path):
    out = tmp_path / "decision.json"
    code = main(["solve", "--dag", str(INSTANCE_DIR / "smart_diagnosis.json"), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    offloaded = {n["id"] for n in data["nodes"] if n["location"] == "server"}
    assert {3, 4, 5, 6, 9, 10} <= offloaded
