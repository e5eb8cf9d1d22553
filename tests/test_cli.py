import json

import numpy as np
import pytest

from dynbc import cli
from dynbc.cli import ConfigError, ExperimentConfig, main, run


def base_config(task="simulate", **overrides):
    cfg = {
        "task": task,
        "geometry": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 8},
        "gamma": 1.0,
        "delta": 0.0,
        "beta": {"kind": "constant", "value": 1.0},
        "beta0": 1.0,
        "T": 0.5,
        "nt": 8,
        "theta": 0.5,
        "params": {"u0": {"kind": "zero"}, "g": {"kind": "zero"}},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_zero_simulation(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    lines = (out / "simulate_trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,node_id,value"
    assert all(float(line.split(",")[2]) == 0.0 for line in lines[2:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["summary"]["simulate_final_norm"] == 0.0


def test_determinism_byte_identical(tmp_path):
    sim = base_config()
    sim["params"] = {"u0": {"kind": "random", "seed": 3}, "g": {"kind": "random", "seed": 4}}
    obs = base_config(task="observability")
    obs["geometry"] = {"kind": "disk", "rho": 1.0, "nr": 4, "ntheta": 16}
    obs["params"] = {"samples": 6, "seed": 2}
    for cfg, artifact in (
        (sim, "simulate_trajectory.csv"),
        (obs, "observability_samples.csv"),
    ):
        path = write_config(tmp_path, cfg, name=f"{cfg['task']}.json")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / cfg["task"] / name
            assert main(["run", path, "--out", str(out)]) == 0
            outs.append((out / artifact).read_bytes())
        assert outs[0] == outs[1]


def test_config_round_trip_hash_stable(tmp_path):
    cfg = base_config()
    c1 = ExperimentConfig.from_dict(cfg)
    c2 = ExperimentConfig.from_dict(json.loads(json.dumps(cfg)))
    assert c1.config_hash == c2.config_hash


def test_malformed_geometry_exit_2(tmp_path, capsys):
    cfg = base_config()
    cfg["geometry"] = {"kind": "interval", "a": 0.0, "b": 1.0, "n": 1}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "geometry.n" in err


def test_control_nt_1_exit_2(tmp_path, capsys):
    cfg = base_config(task="control", nt=1)
    cfg["params"] = {"u0": {"kind": "eigenmode"}, "eps": 1e-4}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: nt:")
    assert not out.exists()


def test_missing_field_named(tmp_path, capsys):
    cfg = base_config()
    del cfg["gamma"]
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["lambda_grid", "R_grid"])
def test_carleman_repeated_grid_value_exit_2(tmp_path, capsys, grid):
    cfg = base_config(task="carleman")
    cfg["params"] = {"lambda_grid": [1.0, 2.0], "R_grid": [1.0, 2.0], "m": 1.5,
                     "samples": 2, "seed": 1}
    cfg["params"][grid] = [1, 2, 1.0]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: params.{grid}:")
    assert not out.exists()


def test_unknown_task_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(task="explode"))


def test_beta0_checked_against_profile(tmp_path):
    cfg = base_config()
    cfg["beta"] = {"kind": "constant", "value": 0.5}
    cfg["beta0"] = 1.0
    config = ExperimentConfig.from_dict(cfg)
    with pytest.raises(ConfigError):
        run(config, out_dir=str(tmp_path / "out"))


def test_control_eps_sweep_artifacts(tmp_path):
    cfg = base_config(task="control")
    cfg["geometry"]["n"] = 16
    cfg["T"] = 1.0
    cfg["nt"] = 32
    cfg["params"] = {"u0": {"kind": "eigenmode"}, "eps": [1e-2, 1e-4, 1e-6]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    for idx in range(3):
        result = json.loads((out / f"result_{idx}.json").read_text())
        assert 0.0 <= result["true_residual"] <= 10 * 1e-8
        assert (out / f"control_{idx}.csv").exists()
    scaling = (out / "eps_scaling.csv").read_text().splitlines()
    assert scaling[1] == "eps,final_norm,control_norm,iterations,cost"
    assert len(scaling) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert "final_norm_eps2" in manifest["summary"]


def test_adjoint_task(tmp_path):
    cfg = base_config(task="adjoint")
    cfg["params"] = {"phi_T": {"kind": "random", "seed": 9}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    summary = json.loads((out / "adjoint_summary.json").read_text())
    norms = summary["m_norms"]
    # dissipative backward solve: stored norms non-decreasing in forward time
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_carleman_task_is_deterministic(tmp_path):
    cfg = base_config(task="carleman")
    cfg["geometry"]["n"] = 16
    cfg["T"] = 1.0
    cfg["nt"] = 32
    cfg["params"] = {
        "lambda_grid": [2.0],
        "R_grid": [2.0, 4.0],
        "m": 1.5,
        "samples": 3,
        "seed": 7,
    }
    path = write_config(tmp_path, cfg)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", path, "--out", str(first)]) == 0
    assert main(["run", path, "--out", str(second)]) == 0
    assert (first / "carleman_sweep.csv").read_bytes() == (
        second / "carleman_sweep.csv"
    ).read_bytes()
    config_hash = json.loads((first / "manifest.json").read_text())["config_hash"]
    lines = (first / "carleman_sweep.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={config_hash}"
    assert lines[1] == "lambda,R,sample_id,lhs,rhs,ratio"
    assert len(lines) == 2 + 2 * 3  # one row per (lambda, R) cell and sample
    summary = json.loads((first / "carleman_summary.json").read_text())
    assert len(summary["max_ratio"]) == 2
    assert summary["lambda_floor_unbounded_nodes"] == 1


def test_observability_task(tmp_path):
    cfg = base_config(task="observability")
    cfg["geometry"]["n"] = 16
    cfg["T"] = 1.0
    cfg["nt"] = 32
    cfg["params"] = {"samples": 5, "seed": 2}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    report = json.loads((out / "observability_report.json").read_text())
    assert report["CT_estimate"] > 0
    rows = (out / "observability_samples.csv").read_text().splitlines()
    assert len(rows) == 2 + 5


def test_observability_beta_zero_fails_gracefully(tmp_path):
    cfg = base_config(task="observability")
    cfg["beta"] = {"kind": "constant", "value": 0.0}
    cfg["beta0"] = 0.0
    cfg["params"] = {"samples": 2, "seed": 2}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "beta" in manifest["error"]


def test_config_hash_in_all_artifacts(tmp_path):
    cfg = base_config(task="observability")
    cfg["params"] = {"samples": 2, "seed": 0}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digest = manifest["config_hash"]
    for name in manifest["artifacts"]:
        content = (out / name).read_text()
        assert digest in content


def test_output_dir_precedence(tmp_path, monkeypatch):
    # --out, else the config's output_dir, else the working directory
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, base_config(output_dir="from_config"))
    assert main(["run", path, "--out", "from_flag"]) == 0
    assert (tmp_path / "from_flag" / "manifest.json").exists()
    assert not (tmp_path / "from_config").exists()
    assert main(["run", path]) == 0
    assert (tmp_path / "from_config" / "manifest.json").exists()
    assert not (tmp_path / "manifest.json").exists()
    assert main(["run", write_config(tmp_path, base_config(), "plain.json")]) == 0
    assert (tmp_path / "manifest.json").exists()


def test_profile_beta(tmp_path):
    cfg = base_config()
    cfg["beta"] = {
        "kind": "profile",
        "name": "cosine_bump",
        "base": 1.0,
        "amplitude": 0.5,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0


def test_control_csv_bytes_equal_loop_oracle(tmp_path, monkeypatch):
    results = []
    synthesize = cli.synthesize_ladder

    def capture(problems):
        out = synthesize(problems)
        results.extend(out)
        return out

    monkeypatch.setattr(cli, "synthesize_ladder", capture)
    cfg = base_config(task="control")
    cfg["geometry"] = {"kind": "disk", "rho": 1.0, "nr": 2, "ntheta": 8}
    cfg["params"] = {"u0": {"kind": "random", "seed": 5}, "eps": [1e-2, 1e-4]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    config_hash = json.loads((out / "manifest.json").read_text())["config_hash"]

    def fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.17g}"

    assert len(results) == 2
    for idx, result in enumerate(results):
        oracle = tmp_path / f"oracle_{idx}.csv"
        with open(oracle, "w") as fh:
            fh.write(f"# config_hash={config_hash}\n")
            fh.write("t,boundary_node,g\n")
            for n, t in enumerate(result.g_times):
                for j in range(result.g.values.shape[1]):
                    row = (t, j, result.g.values[n, j])
                    fh.write(",".join(fmt(v) for v in row) + "\n")
        assert (out / f"control_{idx}.csv").read_bytes() == oracle.read_bytes()
