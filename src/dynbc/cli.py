"""Batch experiment front-end.

Usage:

    dynbc run <config.json> [--out DIR]

A config is a single JSON object:

    {
      "task": "simulate" | "adjoint" | "carleman" | "observability" | "control",
      "geometry": {"kind": "interval", "a": 0, "b": 1, "n": 32}
                | {"kind": "rect", "lx": 1, "ly": 1, "nx": 8, "ny": 8}
                | {"kind": "disk", "rho": 1, "nr": 8, "ntheta": 32},
      "gamma": 1.0, "delta": 0.0,
      "beta": {"kind": "constant", "value": 1.0}
            | {"kind": "profile", "name": "cosine_bump", "base": 1.0, "amplitude": 0.5},
      "beta0": 1.0,
      "T": 1.0, "nt": 128, "theta": 0.5,
      "params": { ... task-specific ... },
      "output_dir": "runs/exp1"          # optional
    }

Artifacts go to --out DIR if given, else to output_dir, else to the
current directory.

Task parameters:

    simulate:      u0 (field spec), g (signal spec)
    adjoint:       phi_T (field spec)
    carleman:      lambda_grid, R_grid, m, samples, seed
    observability: samples, seed
    control:       u0 (field spec), eps (number or list), cg_tol, cg_maxit
                   (the last two optional)

carleman and control need nt >= 2; observability and an eigenmode field
need beta > 0 at every boundary node.  Every number in a config must be
finite and not a boolean: JSON extensions such as NaN and Infinity are
rejected.

Memory: every solve runs on one band Cholesky factor of 8 (kd + 1) ndof
bytes, with half-bandwidth kd = 1 on the interval, min(nx, ny) + 1 on the
rectangle and ntheta + 1 on the disk (ndof = 1 + nr ntheta), whose centre
node touches every node of the first ring.  So a disk with few rings and
many angles is the costly shape: nr=2, ntheta=2000 needs a 64 MB band,
plus 96 MB of blocks once 32 or more samples are solved as one block.

Field specs: {"kind": "zero"} | {"kind": "constant", "value": c}
           | {"kind": "random", "seed": s} | {"kind": "eigenmode"};
signal specs are the same without "eigenmode".

Every run writes a manifest.json with the config, its hash, package and
library versions, summary scalars, and the list of artifacts written (a
failed run lists only the files it finished writing).  CSV artifacts
carry the config hash in a comment header and are byte-identical across
runs with the same config and seed on one numpy/scipy/BLAS build and BLAS
thread count (blocks of 32 or more samples are solved by BLAS level-3
products, which move by up to 3.7e-14 between 1 and 2 threads).  Exit
codes: 0 success, 1 numerical failure (manifest flags it; this includes a
non-finite value that would have to be written to JSON and a control rung
that stops at cg_maxit unconverged, after every rung's artifacts are
written), 2 invalid config or an output directory that cannot be created
(single-line error naming the offending field).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .assembly import assemble, norm_X2, smallest_eigenpair
from .carleman import CarlemanParams, carleman_sweep, pointwise_lambda_floor
from .control import ControlProblem, synthesize_ladder, verify_null
from .evolution import (
    BoundarySignal,
    _write_series,
    solve_backward,
    solve_forward,
    trajectory_norms,
    trajectory_to_csv,
)
from .mesh import build_disk_mesh, build_eta, build_interval_mesh, build_rect_mesh
from .observability import estimate_CT

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "run", "main"]

_TASKS = ("simulate", "adjoint", "carleman", "observability", "control")


class ConfigError(ValueError):
    """Invalid experiment config; the message starts with the offending field."""


@dataclass
class ExperimentConfig:
    """Validated experiment description plus its canonical hash."""

    raw: dict
    config_hash: str

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        _validate(data)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        return ExperimentConfig(raw=data, config_hash=digest)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        return load_config(path)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; ConfigError says what is wrong."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    return ExperimentConfig.from_dict(data)


def _need(data: dict, field: str, types, where: str = ""):
    prefix = f"{where}." if where else ""
    if field not in data:
        raise ConfigError(f"{prefix}{field}: missing")
    val = data[field]
    if types is not None and not isinstance(val, types):
        raise ConfigError(
            f"{prefix}{field}: expected {getattr(types, '__name__', types)}, "
            f"got {type(val).__name__}"
        )
    return val


def _finite(val) -> bool:
    """A JSON number that is a finite float: no bool, NaN, Infinity or huge integer."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _need_num(data: dict, field: str, where: str = "", positive=False, nonneg=False):
    val = _need(data, field, (int, float), where)
    if not _finite(val):
        raise ConfigError(
            f"{where + '.' if where else ''}{field}: expected finite number"
        )
    if positive and not val > 0:
        raise ConfigError(f"{where + '.' if where else ''}{field}: must be > 0")
    if nonneg and val < 0:
        raise ConfigError(f"{where + '.' if where else ''}{field}: must be >= 0")
    return float(val)


def _need_int(data: dict, field: str, where: str = "", minimum=None):
    val = _need(data, field, int, where)
    if isinstance(val, bool):
        raise ConfigError(f"{where + '.' if where else ''}{field}: expected integer")
    if minimum is not None and val < minimum:
        raise ConfigError(
            f"{where + '.' if where else ''}{field}: must be >= {minimum}"
        )
    return int(val)


def _validate(data: dict) -> None:
    task = _need(data, "task", str)
    if task not in _TASKS:
        raise ConfigError(f"task: must be one of {_TASKS}, got {task!r}")

    geo = _need(data, "geometry", dict)
    kind = _need(geo, "kind", str, "geometry")
    if kind == "interval":
        a = _need_num(geo, "a", "geometry")
        b = _need_num(geo, "b", "geometry")
        if not a < b:
            raise ConfigError("geometry.b: must exceed geometry.a")
        _need_int(geo, "n", "geometry", minimum=2)
    elif kind == "rect":
        _need_num(geo, "lx", "geometry", positive=True)
        _need_num(geo, "ly", "geometry", positive=True)
        _need_int(geo, "nx", "geometry", minimum=2)
        _need_int(geo, "ny", "geometry", minimum=2)
    elif kind == "disk":
        _need_num(geo, "rho", "geometry", positive=True)
        _need_int(geo, "nr", "geometry", minimum=2)
        _need_int(geo, "ntheta", "geometry", minimum=8)
    else:
        raise ConfigError(
            f"geometry.kind: must be interval, rect, or disk, got {kind!r}"
        )

    _need_num(data, "gamma", positive=True)
    _need_num(data, "delta", nonneg=True)
    beta = _need(data, "beta", dict)
    bkind = _need(beta, "kind", str, "beta")
    if bkind == "constant":
        _need_num(beta, "value", "beta", nonneg=True)
    elif bkind == "profile":
        name = _need(beta, "name", str, "beta")
        if name != "cosine_bump":
            raise ConfigError(f"beta.name: unknown profile {name!r}")
        _need_num(beta, "base", "beta", nonneg=True)
        _need_num(beta, "amplitude", "beta", nonneg=True)
    else:
        raise ConfigError(f"beta.kind: must be constant or profile, got {bkind!r}")
    _need_num(data, "beta0", nonneg=True)

    _need_num(data, "T", positive=True)
    nt = _need_int(data, "nt", minimum=1)
    if task in ("carleman", "control") and nt < 2:
        raise ConfigError(f"nt: must be >= 2 for task {task}")
    theta = _need_num(data, "theta")
    if theta not in (0.5, 1.0):
        raise ConfigError(f"theta: must be 0.5 or 1, got {theta}")

    params = _need(data, "params", dict)
    if task == "simulate":
        _validate_field_spec(params, "u0", allow_eigenmode=True)
        _validate_field_spec(params, "g", allow_eigenmode=False)
    elif task == "adjoint":
        _validate_field_spec(params, "phi_T", allow_eigenmode=True)
    elif task == "carleman":
        for grid in ("lambda_grid", "R_grid"):
            vals = _need(params, grid, list, "params")
            if not vals or not all(_finite(v) and v > 0 for v in vals):
                raise ConfigError(
                    f"params.{grid}: must be a list of finite positive numbers"
                )
            if len(set(vals)) < len(vals):
                raise ConfigError(f"params.{grid}: must not repeat a value")
        m = _need_num(params, "m", "params")
        if not m > 1:
            raise ConfigError("params.m: must exceed 1")
        _need_int(params, "samples", "params", minimum=1)
        _need_int(params, "seed", "params", minimum=0)
    elif task == "observability":
        _need_int(params, "samples", "params", minimum=1)
        _need_int(params, "seed", "params", minimum=0)
    elif task == "control":
        _validate_field_spec(params, "u0", allow_eigenmode=True)
        eps = _need(params, "eps", (int, float, list), "params")
        eps_list = eps if isinstance(eps, list) else [eps]
        if not eps_list or not all(_finite(e) and e > 0 for e in eps_list):
            raise ConfigError(
                "params.eps: must be a finite positive number or list of them"
            )
        if "cg_tol" in params:
            tol = _need_num(params, "cg_tol", "params", positive=True)
            if not tol < 1:
                raise ConfigError("params.cg_tol: must be < 1")
        if "cg_maxit" in params:
            _need_int(params, "cg_maxit", "params", minimum=1)

    if "output_dir" in data and not isinstance(data["output_dir"], str):
        raise ConfigError("output_dir: expected string")


def _validate_field_spec(params: dict, name: str, allow_eigenmode: bool) -> None:
    spec = _need(params, name, dict, "params")
    kind = _need(spec, "kind", str, f"params.{name}")
    kinds = ("zero", "constant", "random") + (
        ("eigenmode",) if allow_eigenmode else ()
    )
    if kind not in kinds:
        raise ConfigError(f"params.{name}.kind: must be one of {kinds}, got {kind!r}")
    if kind == "constant":
        _need_num(spec, "value", f"params.{name}")
    if kind == "random":
        _need_int(spec, "seed", f"params.{name}", minimum=0)


def _build_mesh(geo: dict):
    if geo["kind"] == "interval":
        return build_interval_mesh(geo["a"], geo["b"], geo["n"])
    if geo["kind"] == "rect":
        return build_rect_mesh(geo["lx"], geo["ly"], geo["nx"], geo["ny"])
    return build_disk_mesh(geo["rho"], geo["nr"], geo["ntheta"])


def _build_beta(mesh, beta: dict, beta0: float) -> np.ndarray:
    if beta["kind"] == "constant":
        vals = np.full(mesh.n_boundary, float(beta["value"]))
    else:
        # cosine_bump: base + amplitude (1 + cos(polar angle or position)) / 2
        coords = mesh.bulk_nodes[mesh.boundary_nodes]
        if mesh.dim == 1:
            phase = np.pi * np.arange(mesh.n_boundary)
        else:
            phase = np.arctan2(coords[:, 1], coords[:, 0])
        vals = beta["base"] + beta["amplitude"] * (1.0 + np.cos(phase)) / 2.0
    if vals.min() < beta0:
        raise ConfigError(
            f"beta0: declared lower bound {beta0} exceeds realized "
            f"min beta = {vals.min()}"
        )
    return vals


def _build_field(sys, spec: dict) -> np.ndarray:
    kind = spec["kind"]
    if kind == "zero":
        return np.zeros(sys.ndof)
    if kind == "constant":
        return np.full(sys.ndof, float(spec["value"]))
    if kind == "random":
        return np.random.default_rng(int(spec["seed"])).standard_normal(sys.ndof)
    _, vec = smallest_eigenpair(sys)
    return vec


def _build_signal(sys, spec: dict, nt: int) -> BoundarySignal | None:
    kind = spec["kind"]
    if kind == "zero":
        return None
    if kind == "constant":
        return BoundarySignal(
            np.full((nt + 1, sys.n_boundary), float(spec["value"]))
        )
    rng = np.random.default_rng(int(spec["seed"]))
    return BoundarySignal(rng.standard_normal((nt + 1, sys.n_boundary)))


def _write_csv(path, header: str, rows, config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_json(path, payload: dict) -> None:
    # Encoded before the file is opened, so a non-finite value (ValueError)
    # leaves no partial file behind.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def run(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Execute one experiment; writes artifacts and manifest, returns exit status."""
    data = config.raw
    out = out_dir or data.get("output_dir") or "."

    manifest = {
        "config": data,
        "config_hash": config.config_hash,
        "versions": {
            "dynbc": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": [],
        "summary": {},
        "status": "ok",
    }

    try:
        mesh = _build_mesh(data["geometry"])
        beta = _build_beta(mesh, data["beta"], data["beta0"])
        task = data["task"]
        # the observability estimate and the lowest (K, M) eigenmode need K
        # positive definite; validation allows eigenmode in field specs only
        eigenmode = any(
            isinstance(v, dict) and v.get("kind") == "eigenmode"
            for v in data["params"].values()
        )
        if (task == "observability" or eigenmode) and not beta.min() > 0:
            raise ConfigError(
                "beta: must be > 0 at every boundary node for observability or "
                f"an eigenmode field, got min beta = {beta.min()}"
            )
        # made once the config has passed its last check, on beta
        _make_out_dir(out, out_dir)
        sys_ = assemble(mesh, data["gamma"], data["delta"], beta)
        runner = {
            "simulate": _run_simulate,
            "adjoint": _run_adjoint,
            "carleman": _run_carleman,
            "observability": _run_observability,
            "control": _run_control,
        }[task]
        runner(sys_, mesh, config, out, manifest)
        _write_json(os.path.join(out, "manifest.json"), manifest)
        return 0
    except ConfigError:
        raise
    except Exception as exc:  # numerical failure: keep partial outputs, flag them
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        # a non-finite summary scalar may be what failed the manifest write
        manifest["summary"] = {
            k: v if math.isfinite(v) else None for k, v in manifest["summary"].items()
        }
        _make_out_dir(out, out_dir)
        _write_json(os.path.join(out, "manifest.json"), manifest)
        return 1


def _make_out_dir(out: str, out_dir: str | None) -> None:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        field = "--out" if out_dir else "output_dir"
        raise ConfigError(
            f"{field}: cannot create directory {out!r}: {exc.strerror or exc}"
        ) from None


@contextmanager
def _artifact(manifest: dict, out: str, name: str):
    """Yield the path of artifact name; list it in the manifest once written.

    A write that raises leaves the name out of ``manifest["artifacts"]``.
    """
    yield os.path.join(out, name)
    manifest["artifacts"].append(name)


def _trajectory_artifacts(sys_, traj, config, out, manifest, prefix: str) -> None:
    with _artifact(manifest, out, f"{prefix}_trajectory.csv") as path:
        trajectory_to_csv(
            traj, path, header_lines=[f"config_hash={config.config_hash}"]
        )
    norms = trajectory_norms(sys_, traj)
    with _artifact(manifest, out, f"{prefix}_summary.json") as path:
        _write_json(
            path,
            {
                "config_hash": config.config_hash,
                "times": traj.times.tolist(),
                "m_norms": norms.tolist(),
            },
        )
    manifest["summary"][f"{prefix}_final_norm"] = float(norms[-1])


def _run_simulate(sys_, mesh, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    U0 = _build_field(sys_, p["u0"])
    g = _build_signal(sys_, p["g"], data["nt"])
    traj = solve_forward(sys_, U0, g, data["T"], data["nt"], data["theta"])
    _trajectory_artifacts(sys_, traj, config, out, manifest, "simulate")


def _run_adjoint(sys_, mesh, config, out, manifest) -> None:
    data = config.raw
    PhiT = _build_field(sys_, data["params"]["phi_T"])
    traj = solve_backward(sys_, PhiT, data["T"], data["nt"], data["theta"])
    _trajectory_artifacts(sys_, traj, config, out, manifest, "adjoint")


def _run_carleman(sys_, mesh, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=float(lam), R=float(R), m=float(p["m"]),
                       T=float(data["T"]), eta=eta)
        for lam in p["lambda_grid"]
        for R in p["R_grid"]
    ]
    result = carleman_sweep(
        sys_, grid, data["nt"], data["theta"], p["samples"], p["seed"]
    )
    rows, max_ratio = result.rows, result.max_ratio

    with _artifact(manifest, out, "carleman_sweep.csv") as path:
        _write_csv(path, "lambda,R,sample_id,lhs,rhs,ratio", rows, config.config_hash)
    floor = pointwise_lambda_floor(eta)
    finite = floor[np.isfinite(floor)]
    with _artifact(manifest, out, "carleman_summary.json") as path:
        _write_json(
            path,
            {
                "config_hash": config.config_hash,
                "max_ratio": [
                    {"lambda": lam, "R": R, "ratio": r}
                    for (lam, R), r in max_ratio.items()
                ],
                "lambda_floor_unbounded_nodes": int(np.sum(~np.isfinite(floor))),
                "lambda_floor_max_finite": float(finite.max()) if finite.size else None,
            },
        )
    manifest["summary"]["max_ratio_overall"] = float(max(max_ratio.values()))


def _run_observability(sys_, mesh, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    report = estimate_CT(
        sys_, data["T"], data["nt"], p["samples"], p["seed"], theta=data["theta"]
    )
    with _artifact(manifest, out, "observability_samples.csv") as path:
        _write_csv(
            path,
            "sample_id,initial_energy,observation_energy,ratio",
            ((i, a, b, r) for i, (a, b, r) in enumerate(report.per_sample)),
            config.config_hash,
        )
    with _artifact(manifest, out, "observability_report.json") as path:
        _write_json(
            path,
            {
                "config_hash": config.config_hash,
                "CT_estimate": report.CT_estimate,
                "samples": report.samples,
                "T": report.T,
            },
        )
    manifest["summary"]["CT_estimate"] = report.CT_estimate


def _run_control(sys_, mesh, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    U0 = _build_field(sys_, p["u0"])
    eps_list = p["eps"] if isinstance(p["eps"], list) else [p["eps"]]
    solver = {key: p[key] for key in ("cg_tol", "cg_maxit") if key in p}

    problems = [
        ControlProblem(
            sys=sys_, U0=U0, T=data["T"], nt=data["nt"], theta=data["theta"],
            eps=float(eps), **solver,
        )
        for eps in eps_list
    ]
    results = synthesize_ladder(problems)

    scaling_rows = []
    for idx, (eps, problem, result) in enumerate(zip(eps_list, problems, results)):
        report = verify_null(problem, result)
        with _artifact(manifest, out, f"control_{idx}.csv") as path:
            _write_series(
                path,
                result.g_times,
                result.g.values,
                "t,boundary_node,g",
                [f"config_hash={config.config_hash}"],
            )
        with _artifact(manifest, out, f"result_{idx}.json") as path:
            _write_json(
                path,
                {
                    "config_hash": config.config_hash,
                    "eps": float(eps),
                    "final_norm": result.final_norm,
                    "control_norm": result.control_norm,
                    "iterations": result.iterations,
                    "cost": result.cost,
                    "converged": result.converged,
                    "true_residual": result.true_residual,
                    "final_norm_refined": report.final_norm_refined,
                    "optimality_residual": report.optimality_residual,
                },
            )
        scaling_rows.append(
            (eps, result.final_norm, result.control_norm,
             result.iterations, result.cost)
        )
        manifest["summary"][f"final_norm_eps{idx}"] = result.final_norm
        if not result.converged:
            manifest["summary"][f"non_converged_eps{idx}"] = True

    if len(eps_list) > 1:
        with _artifact(manifest, out, "eps_scaling.csv") as path:
            _write_csv(
                path,
                "eps,final_norm,control_norm,iterations,cost",
                scaling_rows,
                config.config_hash,
            )
    manifest["summary"]["U0_norm"] = norm_X2(sys_, U0)
    stalled = [idx for idx, result in enumerate(results) if not result.converged]
    if stalled:
        # every rung's artifacts are written; run() records the failure
        raise RuntimeError(
            f"control rungs {stalled} stopped at cg_maxit without meeting cg_tol"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynbc", description="Batch experiments for the bulk-surface heat system"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to the experiment JSON")
    runp.add_argument("--out", default=None, help="output directory override")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
