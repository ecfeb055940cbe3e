import json
from pathlib import Path

import numpy as np
import pytest

from evtoffload import cli
from evtoffload.cli import main
from evtoffload.energy import SystemParams
from evtoffload.gev import (
    GevParams,
    block_maxima,
    gev_quantile,
    gev_sample,
    load_trace_samples,
)

from conftest import INSTANCE_DIR


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


@pytest.mark.parametrize(
    "flag,value", [("--workload-scale", "inf"), ("--bit-scale", "inf"), ("--workload-scale", "1e400")]
)
def test_gen_rejects_non_finite_scale(tmp_path, capsys, flag, value):
    out = tmp_path / "dag.json"
    assert main(["gen", "--nodes", "6", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
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


def test_fit_paper_defaults(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--paper-defaults", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["z_up_s"] == 0.349
    assert data["z_down_s"] == 0.107
    assert data["theta_up"] == 4.81e-4
    assert data["theta_down"] == 1.11e-5


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


def test_fit_rejects_non_finite_constants(tmp_path, monkeypatch, capsys):
    # A fitted xi >= 1 has no finite mean: fit must fail before writing.
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace)
    j_maxima = block_maxima(load_trace_samples(trace, 10000.0)["j"], 20).maxima

    def fake_fit(maxima):
        xi = 1.2 if np.array_equal(maxima.maxima, j_maxima) else 0.1
        return GevParams(1.0, 0.1, xi)

    monkeypatch.setattr(cli, "fit_gev_mle", fake_fit)
    out = tmp_path / "fit.json"
    args = ["fit", "--traces", str(trace), "--k", "20", "--payload-bits", "10000"]
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "theta_up" in err and "xi = 1.2" in err


def test_fit_block_size_too_large_fails(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_trace_csv(trace, n_rows=50)
    out = tmp_path / "fit.json"
    assert main(["fit", "--traces", str(trace), "--k", "100", "--out", str(out)]) == 2


def test_simulate_roundtrip(tmp_path):
    config = _toy_config(tmp_path)
    dag = _gen_dag(tmp_path)
    decision = tmp_path / "decision.json"
    main(["--config", str(config), "solve", "--dag", str(dag), "--out", str(decision)])
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


_GEV = {"mu": 2.0, "sigma": 0.01, "xi": 0.05}


@pytest.mark.parametrize(
    "flag,content",
    [
        ("config", "[]"),
        ("model", "[1]"),
        ("gev", json.dumps({"v_down": _GEV})),
        ("gev", json.dumps({"v_up": {"mu": 2.0, "sigma": 0.01}, "v_down": _GEV})),
        ("gev", json.dumps({"v_up": {"mu": "a", "sigma": 0.01, "xi": 0.05}, "v_down": _GEV})),
    ],
    ids=["config-list", "model-list", "gev-no-v_up", "gev-no-xi", "gev-string-mu"],
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
    }[flag]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
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
