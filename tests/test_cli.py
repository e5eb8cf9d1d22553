import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import dynbc
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
    # nx > ny: the rectangle numbers its nodes along y fastest
    rect = base_config(
        geometry={"kind": "rect", "lx": 1.3, "ly": 0.7, "nx": 9, "ny": 4},
        params=sim["params"],
        delta=0.5,
    )
    obs = base_config(task="observability")
    obs["geometry"] = {"kind": "disk", "rho": 1.0, "nr": 4, "ntheta": 16}
    obs["params"] = {"samples": 6, "seed": 2}
    for cfg, artifact in (
        (sim, "simulate_trajectory.csv"),
        (rect, "simulate_trajectory.csv"),
        (obs, "observability_samples.csv"),
    ):
        kind = cfg["geometry"]["kind"]
        path = write_config(tmp_path, cfg, name=f"{cfg['task']}_{kind}.json")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / cfg["task"] / kind / name
            assert main(["run", path, "--out", str(out)]) == 0
            outs.append((out / artifact).read_bytes())
        assert outs[0] == outs[1]


def test_import_loads_no_sparse_linalg():
    # a fresh interpreter: this test session has loaded scipy.sparse.linalg itself
    src = os.path.dirname(os.path.dirname(dynbc.__file__))
    code = (
        "import sys, dynbc.cli; "
        "print([m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') "
        "if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("task", ["control", "carleman"])
def test_control_nt_1_exit_2(tmp_path, capsys, task):
    cfg = base_config(task=task, nt=1)
    cfg["params"] = {
        "control": {"u0": {"kind": "eigenmode"}, "eps": 1e-4},
        "carleman": {"lambda_grid": [1.0], "R_grid": [1.0], "m": 1.5,
                     "samples": 1, "seed": 0},
    }[task]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: nt:")
    assert not out.exists()


_NON_FINITE_CASES = [
    ("delta", lambda c: c.update(delta=float("nan"))),
    ("T", lambda c: c.update(T=float("inf"))),
    ("geometry.b", lambda c: c["geometry"].update(b=-float("inf"))),
    ("beta.value", lambda c: c["beta"].update(value=True)),
    ("params.u0.value", lambda c: c["params"].update(
        u0={"kind": "constant", "value": float("nan")})),
    ("params.lambda_grid", lambda c: c.update(task="carleman", params={
        "lambda_grid": [True, 2], "R_grid": [1.0], "m": 1.5,
        "samples": 1, "seed": 0})),
    ("params.R_grid", lambda c: c.update(task="carleman", params={
        "lambda_grid": [1.0], "R_grid": [float("inf")], "m": 1.5,
        "samples": 1, "seed": 0})),
    ("params.eps", lambda c: c.update(task="control", params={
        "u0": {"kind": "eigenmode"}, "eps": [1e-2, float("nan")]})),
    ("gamma", lambda c: c.update(gamma=10**400)),
]


@pytest.mark.parametrize(
    "field, edit", _NON_FINITE_CASES, ids=[f for f, _ in _NON_FINITE_CASES]
)
def test_non_finite_or_boolean_number_exit_2(tmp_path, capsys, field, edit):
    cfg = base_config()
    edit(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {field}:")
    assert not out.exists()


def _control(**params):
    return lambda c: c.update(task="control", params={
        "u0": {"kind": "eigenmode"}, "eps": 1e-2, **params})


# (id, field named in the error, edit): an edit is a function of the base
# config, the text of the config file, or None for no config file at all
_INVALID_CONFIG_CASES = [
    ("no-file", "config", None),
    ("not-json", "config", '{"task": "simulate",'),
    ("not-object", "config", "[1, 2]"),
    ("wrong-type", "geometry", lambda c: c.update(geometry="interval")),
    ("not-positive", "gamma", lambda c: c.update(gamma=0)),
    ("negative", "delta", lambda c: c.update(delta=-0.5)),
    ("boolean-integer", "nt", lambda c: c.update(nt=True)),
    ("b-not-above-a", "geometry.b", lambda c: c["geometry"].update(b=0.0)),
    ("geometry-kind", "geometry.kind", lambda c: c["geometry"].update(kind="ball")),
    ("beta-name", "beta.name", lambda c: c.update(beta={
        "kind": "profile", "name": "gaussian", "base": 1.0, "amplitude": 0.5})),
    ("beta-kind", "beta.kind", lambda c: c.update(beta={"kind": "linear"})),
    ("theta", "theta", lambda c: c.update(theta=0.7)),
    ("m", "params.m", lambda c: c.update(task="carleman", params={
        "lambda_grid": [1.0], "R_grid": [1.0], "m": 1, "samples": 1, "seed": 0})),
    ("cg_tol", "params.cg_tol", _control(cg_tol=1)),
    ("cg_maxit", "params.cg_maxit", _control(cg_maxit=0)),
    ("output_dir", "output_dir", lambda c: c.update(output_dir=3)),
    ("field-kind", "params.u0.kind", lambda c: c["params"].update(u0={"kind": "ones"})),
    ("signal-kind", "params.g.kind", lambda c: c["params"].update(g={"kind": "eigenmode"})),
]


@pytest.mark.parametrize(
    "field, edit", [case[1:] for case in _INVALID_CONFIG_CASES],
    ids=[case[0] for case in _INVALID_CONFIG_CASES],
)
def test_invalid_config_exit_2(tmp_path, capsys, field, edit):
    path = tmp_path / "config.json"
    if callable(edit):
        cfg = base_config()
        edit(cfg)
        path.write_text(json.dumps(cfg))
    elif edit is not None:
        path.write_text(edit)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {field}:")
    assert not out.exists()


_RECT = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 4, "ny": 4}
_DISK = {"kind": "disk", "rho": 1.0, "nr": 2, "ntheta": 8}
_CARLEMAN = {"lambda_grid": [1.0], "R_grid": [1.0], "m": 1.5, "samples": 1, "seed": 0}
_OBSERVABILITY = {"samples": 1, "seed": 0}


def _geometry(geo, **fields):
    return lambda c: c.update(geometry=dict(geo, **fields))


def _beta_profile(**fields):
    return lambda c: c.update(beta=dict(
        {"kind": "profile", "name": "cosine_bump", "base": 1.0, "amplitude": 0.5},
        **fields))


def _task(task, params, **fields):
    return lambda c: c.update(task=task, params=dict(params, **fields))


# (id, edit of the base config, the whole stderr line after "error: ")
_EXIT_2_MESSAGES = [
    ("rect-lx", _geometry(_RECT, lx=0), "geometry.lx: must be > 0"),
    ("rect-ly", _geometry(_RECT, ly=-1.0), "geometry.ly: must be > 0"),
    ("rect-nx", _geometry(_RECT, nx=1), "geometry.nx: must be >= 2"),
    ("rect-ny", _geometry(_RECT, ny=2.0), "geometry.ny: expected int, got float"),
    ("rect-nx-missing", lambda c: c.update(geometry={
        "kind": "rect", "lx": 1.0, "ly": 1.0, "ny": 4}), "geometry.nx: missing"),
    ("disk-rho", _geometry(_DISK, rho=0.0), "geometry.rho: must be > 0"),
    ("disk-nr", _geometry(_DISK, nr=1), "geometry.nr: must be >= 2"),
    ("disk-ntheta", _geometry(_DISK, ntheta=7), "geometry.ntheta: must be >= 8"),
    ("beta-base", _beta_profile(base=-1.0), "beta.base: must be >= 0"),
    ("beta-amplitude", _beta_profile(amplitude=-0.5), "beta.amplitude: must be >= 0"),
    ("beta0", lambda c: c.update(beta0=-1), "beta0: must be >= 0"),
    ("carleman-samples", _task("carleman", _CARLEMAN, samples=0),
     "params.samples: must be >= 1"),
    ("carleman-seed", _task("carleman", _CARLEMAN, seed=-1), "params.seed: must be >= 0"),
    ("observability-samples", _task("observability", _OBSERVABILITY, samples=0),
     "params.samples: must be >= 1"),
    ("observability-seed", _task("observability", _OBSERVABILITY, seed=-1),
     "params.seed: must be >= 0"),
    ("observability-seed-boolean", _task("observability", _OBSERVABILITY, seed=True),
     "params.seed: expected integer"),
    ("u0-seed", lambda c: c["params"].update(u0={"kind": "random", "seed": -1}),
     "params.u0.seed: must be >= 0"),
    ("empty-lambda_grid", _task("carleman", _CARLEMAN, lambda_grid=[]),
     "params.lambda_grid: must be a list of finite positive numbers"),
    ("empty-eps", _control(eps=[]),
     "params.eps: must be a finite positive number or list of them"),
    ("cg_tol", _control(cg_tol=1), "params.cg_tol: must be < 1"),
    ("unknown-task", lambda c: c.update(task="explode"),
     "task: must be one of ('simulate', 'adjoint', 'carleman', 'observability', "
     "'control'), got 'explode'"),
]


@pytest.mark.parametrize(
    "edit, message", [case[1:] for case in _EXIT_2_MESSAGES],
    ids=[case[0] for case in _EXIT_2_MESSAGES],
)
def test_exit_2_message_text(tmp_path, capsys, edit, message):
    cfg = base_config()
    edit(cfg)
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_result_fails_without_non_finite_json(tmp_path):
    # pytest turns RuntimeWarning into an error; here the overflow must reach
    # the JSON writer
    cfg = base_config()
    cfg["params"]["u0"] = {"kind": "constant", "value": 1e200}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    manifest = _strict_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert "not JSON compliant" in manifest["error"]
    assert not (out / "simulate_summary.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_run_lists_only_written_artifacts(tmp_path):
    # the overflowing norms fail the summary write: only the CSV is written
    cfg = base_config(nt=8)
    cfg["params"]["u0"] = {"kind": "constant", "value": 1e200}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    manifest = _strict_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["artifacts"] == ["simulate_trajectory.csv"]
    assert all((out / name).is_file() for name in manifest["artifacts"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_summary_is_nulled_in_failed_manifest(tmp_path):
    # only U0_norm overflows: the long horizon keeps every result finite
    cfg = base_config(task="control", T=5.0, nt=16)
    cfg["params"] = {"u0": {"kind": "constant", "value": 1e154}, "eps": 1e-2}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    manifest = _strict_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["summary"]["U0_norm"] is None
    assert np.isfinite(manifest["summary"]["final_norm_eps0"])
    assert _strict_json(out / "result_0.json")["eps"] == 1e-2


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
    # a rejected config leaves no output directory behind
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "geometry, unbounded",
    [
        ({"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32}, 1),
        ({"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 32, "ny": 5}, 0),
        ({"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 5, "ny": 32}, 0),
        ({"kind": "disk", "rho": 1.0, "nr": 16, "ntheta": 64}, 1),
        ({"kind": "interval", "a": 0.0, "b": 1.0, "n": 16}, 1),
    ],
    ids=["rect32x32", "rect32x5", "rect5x32", "disk16x64", "interval16"],
)
def test_lambda_floor_counts_interior_critical_points_only(tmp_path, geometry, unbounded):
    # a rectangle's corners whose one cell lies wholly on Gamma have a
    # recovered gradient of exactly 0, but eta = 0 there: they are not
    # critical points of eta and are not counted
    cfg = base_config(task="carleman", geometry=geometry, T=1.0, nt=4)
    cfg["params"] = {"lambda_grid": [1.0], "R_grid": [1.0], "m": 1.5,
                     "samples": 1, "seed": 7}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "carleman_summary.json").read_text())
    assert summary["lambda_floor_unbounded_nodes"] == unbounded


def test_carleman_cell_without_a_finite_ratio_reads_null(tmp_path):
    # at lambda = 16 exp(-2 R alpha) underflows on Gamma: every rhs is 0
    cfg = base_config(task="carleman", T=1.0, nt=16)
    cfg["params"] = {"lambda_grid": [2.0, 16.0], "R_grid": [2.0], "m": 1.5,
                     "samples": 3, "seed": 7}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "carleman_sweep.csv").read_text().splitlines()[2:]]
    finite = max(float(r[5]) for r in rows if r[0] == "2")
    assert all(r[5] == "nan" for r in rows if r[0] == "16")
    summary = json.loads((out / "carleman_summary.json").read_text())
    assert summary["max_ratio"] == [
        {"lambda": 2.0, "R": 2.0, "ratio": finite, "nonfinite": 0},
        {"lambda": 16.0, "R": 2.0, "ratio": None, "nonfinite": 3},
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["summary"]["max_ratio_overall"] == finite


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


_BETA_NEEDS = {
    "observability": {"samples": 2, "seed": 2},
    "simulate": {"u0": {"kind": "eigenmode"}, "g": {"kind": "zero"}},
    "adjoint": {"phi_T": {"kind": "eigenmode"}},
    "control": {"u0": {"kind": "eigenmode"}, "eps": 1e-4},
}


@pytest.mark.parametrize("task", sorted(_BETA_NEEDS))
def test_beta_with_a_zero_exit_2(tmp_path, capsys, task):
    # observability and the lowest eigenmode need K positive definite
    cfg = base_config(task=task, params=_BETA_NEEDS[task], beta0=0.0)
    cfg["beta"] = {"kind": "constant", "value": 0.0}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: beta:")
    assert not out.exists()
    # a zero of the profile counts; beta > 0 everywhere runs
    cfg["beta"] = {"kind": "profile", "name": "cosine_bump", "base": 0.0,
                   "amplitude": 1.0}
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: beta:")
    cfg["beta"]["base"] = 0.5
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0


def test_beta_zero_runs_tasks_that_need_no_eigenmode(tmp_path):
    cfg = base_config(beta0=0.0)
    cfg["beta"] = {"kind": "constant", "value": 0.0}
    cfg["params"]["u0"] = {"kind": "constant", "value": 1.0}
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("where", ["--out file", "--out file/sub", "output_dir file/sub"])
def test_uncreatable_output_dir_exit_2(tmp_path, capsys, monkeypatch, where):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("keep")
    field, out = where.split()
    cfg = base_config(output_dir=out) if field == "output_dir" else base_config()
    path = write_config(tmp_path, cfg)
    argv = ["run", path] + (["--out", out] if field == "--out" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {field}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]
    assert (tmp_path / "file").read_text() == "keep"


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


def _ladder_config(eps, **params):
    cfg = base_config(task="control", T=1.0, nt=32)
    cfg["geometry"]["n"] = 16
    cfg["params"] = {"u0": {"kind": "eigenmode"}, "eps": eps, **params}
    return cfg


def test_control_ladder_rungs_equal_runs_of_their_eps_alone(tmp_path):
    ladder = [1e-2, 1e-4, 1e-6]
    out = tmp_path / "ladder"
    assert main(["run", write_config(tmp_path, _ladder_config(ladder)), "--out", str(out)]) == 0

    def result(path):
        data = json.loads(path.read_text())
        del data["config_hash"]
        return data

    for k, eps in enumerate(ladder):
        alone = tmp_path / f"alone_{k}"
        path = write_config(tmp_path, _ladder_config(eps), name=f"alone_{k}.json")
        assert main(["run", path, "--out", str(alone)]) == 0
        rung = (out / f"control_{k}.csv").read_bytes().split(b"\n", 1)
        single = (alone / "control_0.csv").read_bytes().split(b"\n", 1)
        assert rung[0] != single[0] and rung[1] == single[1]
        assert result(out / f"result_{k}.json") == result(alone / "result_0.json")


def test_non_converged_rungs_are_flagged_in_the_summary(tmp_path):
    # the eps=1e-2 rung converges at iteration 5, the others need 7 and 9
    cfg = _ladder_config([1e-2, 1e-4, 1e-6], cg_maxit=6)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "[1, 2]" in manifest["error"]
    # every rung's artifacts are written before the run fails
    assert {f"result_{k}.json" for k in range(3)} <= set(manifest["artifacts"])
    summary = manifest["summary"]
    assert sorted(k for k in summary if k.startswith("non_converged")) == [
        "non_converged_eps1", "non_converged_eps2"]
    assert all(summary[f"non_converged_eps{k}"] is True for k in (1, 2))
    converged = [json.loads((out / f"result_{k}.json").read_text())["converged"]
                 for k in range(3)]
    assert converged == [True, False, False]


def _trajectory_bytes(tmp_path, sys_, U0, g, cfg, out):
    """The simulate trajectory CSV the library writes for these inputs."""
    config_hash = json.loads((out / "manifest.json").read_text())["config_hash"]
    traj = dynbc.solve_forward(sys_, U0, g, cfg["T"], cfg["nt"], cfg["theta"])
    path = tmp_path / "library.csv"
    dynbc.trajectory_to_csv(traj, str(path), header_lines=[f"config_hash={config_hash}"])
    return path.read_bytes()


def test_profile_beta_on_a_disk(tmp_path, capsys):
    cfg = base_config(geometry={"kind": "disk", "rho": 1.0, "nr": 2, "ntheta": 8})
    cfg["beta"] = {"kind": "profile", "name": "cosine_bump", "base": 1.0, "amplitude": 0.5}
    cfg["params"]["u0"] = {"kind": "random", "seed": 3}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    # base + amplitude (1 + cos(polar angle)) / 2 at the boundary nodes
    mesh = dynbc.build_disk_mesh(1.0, 2, 8)
    x, y = mesh.bulk_nodes[mesh.boundary_nodes].T
    beta = 1.0 + 0.5 * (1.0 + np.cos(np.arctan2(y, x))) / 2.0
    sys_ = dynbc.assemble(mesh, 1.0, 0.0, beta)
    U0 = np.random.default_rng(3).standard_normal(sys_.ndof)
    want = _trajectory_bytes(tmp_path, sys_, U0, None, cfg, out)
    assert (out / "simulate_trajectory.csv").read_bytes() == want
    # the realized minimum is the base, at polar angle pi
    cfg["beta0"] = 1.001
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: beta0:")


def test_constant_boundary_signal(tmp_path):
    cfg = base_config()
    cfg["params"]["g"] = {"kind": "constant", "value": 2.0}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    sys_ = dynbc.assemble(dynbc.build_interval_mesh(0.0, 1.0, 8), 1.0, 0.0, 1.0)
    g = dynbc.BoundarySignal(np.full((cfg["nt"] + 1, sys_.n_boundary), 2.0))
    want = _trajectory_bytes(tmp_path, sys_, np.zeros(sys_.ndof), g, cfg, out)
    assert (out / "simulate_trajectory.csv").read_bytes() == want
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["simulate_final_norm"] > 0.0


def test_raised_solver_failure_exits_1_with_no_artifacts(tmp_path, monkeypatch):
    # the eigenmode's inverse power iteration stops after one step
    monkeypatch.setattr(dynbc.assembly, "_EIGEN_MAXIT", 1)
    cfg = base_config(task="control", params={"u0": {"kind": "eigenmode"}, "eps": 1e-2})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    manifest = _strict_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("ConvergenceError")
    assert manifest["artifacts"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def _overflowing_draws(monkeypatch):
    # energies of this datum overflow to inf, as in
    # test_nonfinite_sample_energy_raises
    monkeypatch.setattr(
        dynbc.observability,
        "_unit_normal_draws",
        lambda sys_, rng, out: out.fill(1e200),
    )


# case: (config, patch, start of manifest["error"], manifest["artifacts"])
_FORCED_FAILURES = {
    "nonfinite_sample_energy": (
        lambda: base_config(task="observability", T=1.0, nt=16,
                            params={"samples": 3, "seed": 0}),
        _overflowing_draws,
        "RuntimeError: sample 1: initial energy inf or observation energy inf "
        "is not finite",
        [],
    ),
    "control_cg_maxit_1": (
        lambda: _ladder_config(1e-2, cg_maxit=1),
        lambda monkeypatch: None,
        "RuntimeError: control rungs [0] stopped at cg_maxit without meeting cg_tol",
        ["control_0.csv", "result_0.json"],
    ),
    "eigensolver_maxit_1": (
        lambda: base_config(task="control", params={"u0": {"kind": "eigenmode"}, "eps": 1e-2}),
        lambda monkeypatch: monkeypatch.setattr(dynbc.assembly, "_EIGEN_MAXIT", 1),
        "ConvergenceError: inverse power iteration did not converge in 1 iterations",
        [],
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_FORCED_FAILURES))
def test_forced_numerical_failure_exits_1(tmp_path, monkeypatch, case):
    make_config, patch, error, artifacts = _FORCED_FAILURES[case]
    patch(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, make_config()), "--out", str(out)]) == 1
    manifest = _strict_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith(error)
    assert manifest["artifacts"] == artifacts
    assert sorted(p.name for p in out.iterdir()) == sorted(artifacts + ["manifest.json"])


@pytest.mark.parametrize("threads", [None, "3"])
def test_manifest_names_the_blas_build_and_thread_settings(tmp_path, monkeypatch, threads):
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in variables:
        if threads is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, threads)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, base_config()), "--out", str(out)]) == 0
    versions = _strict_json(out / "manifest.json")["versions"]
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions == {
        "dynbc": dynbc.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{var: threads for var in variables},
    }
