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

Memory: the band factor every solve runs on is sized in ``dynbc.assembly``.

Field specs: {"kind": "zero"} | {"kind": "constant", "value": c}
           | {"kind": "random", "seed": s} | {"kind": "eigenmode"};
signal specs are the same without "eigenmode".

Every run writes a manifest.json with the config, its hash, the package,
numpy, scipy and BLAS versions, the BLAS thread variables (null when unset),
summary scalars, and the list of artifacts written (a failed run lists only
the files it finished writing).  CSV artifacts carry the config hash in a
comment header and are byte-identical across runs with the same config and
seed under the BLAS build and thread count the manifest names (LAPACK's
dlauum, which forms the band blocks that solve 32 or more samples, splits its
sums by thread count: they move by up to 3.7e-14 between 1 and 2 threads).  Exit
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
from .carleman import CarlemanParams, build_eta, carleman_sweep, pointwise_lambda_floor
from .control import ControlProblem, synthesize_ladder, verify_null
from .evolution import (
    BoundarySignal,
    _write_series,
    solve_backward,
    solve_forward,
    trajectory_norms,
    trajectory_to_csv,
)
from .mesh import build_disk_mesh, build_interval_mesh, build_rect_mesh
from .observability import estimate_CT

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "run", "main"]

_TASKS = ("simulate", "adjoint", "carleman", "observability", "control")
_SIGNAL_KINDS = ("zero", "constant", "random")
_FIELD_KINDS = _SIGNAL_KINDS + ("eigenmode",)
# the wide-block solves' bytes depend on the BLAS thread count through dlauum
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def _need(data: dict, path: str, types):
    """The value at dotted path's last key in data; errors name the whole path."""
    key = path.rsplit(".", 1)[-1]
    if key not in data:
        raise ConfigError(f"{path}: missing")
    val = data[key]
    if not isinstance(val, types):
        raise ConfigError(
            f"{path}: expected {getattr(types, '__name__', types)}, "
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


def _num(data: dict, path: str, above=None, least=None) -> float:
    val = _need(data, path, (int, float))
    if not _finite(val):
        raise ConfigError(f"{path}: expected finite number")
    if above is not None and not val > above:
        raise ConfigError(f"{path}: must be > {above}")
    if least is not None and val < least:
        raise ConfigError(f"{path}: must be >= {least}")
    return float(val)


def _int(data: dict, path: str, least=None) -> int:
    val = _need(data, path, int)
    if isinstance(val, bool):
        raise ConfigError(f"{path}: expected integer")
    if least is not None and val < least:
        raise ConfigError(f"{path}: must be >= {least}")
    return val


def _geometry(geo: dict):
    """Check a geometry section; return its mesh builder and arguments."""
    kind = _need(geo, "geometry.kind", str)
    if kind == "interval":
        a, b = _num(geo, "geometry.a"), _num(geo, "geometry.b")
        if not a < b:
            raise ConfigError("geometry.b: must exceed geometry.a")
        return build_interval_mesh, (a, b, _int(geo, "geometry.n", least=2))
    if kind == "rect":
        return build_rect_mesh, (
            _num(geo, "geometry.lx", above=0), _num(geo, "geometry.ly", above=0),
            _int(geo, "geometry.nx", least=2), _int(geo, "geometry.ny", least=2),
        )
    if kind == "disk":
        return build_disk_mesh, (
            _num(geo, "geometry.rho", above=0),
            _int(geo, "geometry.nr", least=2), _int(geo, "geometry.ntheta", least=8),
        )
    raise ConfigError(f"geometry.kind: must be interval, rect, or disk, got {kind!r}")


def _validate(data: dict) -> None:
    task = _need(data, "task", str)
    if task not in _TASKS:
        raise ConfigError(f"task: must be one of {_TASKS}, got {task!r}")

    _geometry(_need(data, "geometry", dict))
    _num(data, "gamma", above=0)
    _num(data, "delta", least=0)
    beta = _need(data, "beta", dict)
    bkind = _need(beta, "beta.kind", str)
    if bkind == "constant":
        _num(beta, "beta.value", least=0)
    elif bkind == "profile":
        name = _need(beta, "beta.name", str)
        if name != "cosine_bump":
            raise ConfigError(f"beta.name: unknown profile {name!r}")
        _num(beta, "beta.base", least=0)
        _num(beta, "beta.amplitude", least=0)
    else:
        raise ConfigError(f"beta.kind: must be constant or profile, got {bkind!r}")
    _num(data, "beta0", least=0)

    _num(data, "T", above=0)
    nt = _int(data, "nt", least=1)
    if task in ("carleman", "control") and nt < 2:
        raise ConfigError(f"nt: must be >= 2 for task {task}")
    theta = _num(data, "theta")
    if theta not in (0.5, 1.0):
        raise ConfigError(f"theta: must be 0.5 or 1, got {theta}")

    params = _need(data, "params", dict)
    if task == "simulate":
        _field_spec(params, "u0", _FIELD_KINDS)
        _field_spec(params, "g", _SIGNAL_KINDS)
    elif task == "adjoint":
        _field_spec(params, "phi_T", _FIELD_KINDS)
    elif task == "carleman":
        for grid in ("lambda_grid", "R_grid"):
            vals = _need(params, f"params.{grid}", list)
            if not vals or not all(_finite(v) and v > 0 for v in vals):
                raise ConfigError(
                    f"params.{grid}: must be a list of finite positive numbers"
                )
            if len(set(vals)) < len(vals):
                raise ConfigError(f"params.{grid}: must not repeat a value")
        if not _num(params, "params.m") > 1:
            raise ConfigError("params.m: must exceed 1")
    elif task == "control":
        _field_spec(params, "u0", _FIELD_KINDS)
        eps = _need(params, "params.eps", (int, float, list))
        eps_list = eps if isinstance(eps, list) else [eps]
        if not eps_list or not all(_finite(e) and e > 0 for e in eps_list):
            raise ConfigError(
                "params.eps: must be a finite positive number or list of them"
            )
        if "cg_tol" in params and not _num(params, "params.cg_tol", above=0) < 1:
            raise ConfigError("params.cg_tol: must be < 1")
        if "cg_maxit" in params:
            _int(params, "params.cg_maxit", least=1)
    if task in ("carleman", "observability"):
        _int(params, "params.samples", least=1)
        _int(params, "params.seed", least=0)

    if "output_dir" in data and not isinstance(data["output_dir"], str):
        raise ConfigError("output_dir: expected string")


def _field_spec(params: dict, name: str, kinds: tuple) -> None:
    spec = _need(params, f"params.{name}", dict)
    kind = _need(spec, f"params.{name}.kind", str)
    if kind not in kinds:
        raise ConfigError(f"params.{name}.kind: must be one of {kinds}, got {kind!r}")
    if kind == "constant":
        _num(spec, f"params.{name}.value")
    if kind == "random":
        _int(spec, f"params.{name}.seed", least=0)


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


def _values(sys_, spec: dict, shape) -> np.ndarray:
    """The values of a field or signal spec, as an array of the given shape."""
    if spec["kind"] == "eigenmode":
        return smallest_eigenpair(sys_)[1]
    if spec["kind"] == "random":
        return np.random.default_rng(spec["seed"]).standard_normal(shape)
    return np.full(shape, float(spec["value"] if spec["kind"] == "constant" else 0))


def _write_csv(path, header: str, rows, config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


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
            **_blas_build(),
            **{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        },
        "artifacts": [],
        "summary": {},
        "status": "ok",
    }

    try:
        build_mesh, args = _geometry(data["geometry"])
        mesh = build_mesh(*args)
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
        runner(sys_, config, out, manifest)
        _write_json(os.path.join(out, "manifest.json"), manifest)
        return 0
    except ConfigError:
        raise
    except Exception as exc:  # numerical failure: keep partial outputs, flag them
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        # a non-finite summary scalar may be what failed the manifest write
        manifest["summary"] = {
            k: v if v is not None and math.isfinite(v) else None
            for k, v in manifest["summary"].items()
        }
        _make_out_dir(out, out_dir)
        _write_json(os.path.join(out, "manifest.json"), manifest)
        return 1


def _blas_build() -> dict:
    """The BLAS scipy's band solves run on, null where scipy does not report it."""
    try:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a scipy without show_config(mode="dicts")
        blas = {}
    return {"blas": blas.get("name"), "blas_version": blas.get("version")}


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


def _run_simulate(sys_, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    U0 = _values(sys_, p["u0"], sys_.ndof)
    # a zero signal is no source term at all
    g = None if p["g"]["kind"] == "zero" else BoundarySignal(
        _values(sys_, p["g"], (data["nt"] + 1, sys_.n_boundary))
    )
    traj = solve_forward(sys_, U0, g, data["T"], data["nt"], data["theta"])
    _trajectory_artifacts(sys_, traj, config, out, manifest, "simulate")


def _run_adjoint(sys_, config, out, manifest) -> None:
    data = config.raw
    PhiT = _values(sys_, data["params"]["phi_T"], sys_.ndof)
    traj = solve_backward(sys_, PhiT, data["T"], data["nt"], data["theta"])
    _trajectory_artifacts(sys_, traj, config, out, manifest, "adjoint")


def _run_carleman(sys_, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    eta = build_eta(sys_.mesh)
    grid = [
        CarlemanParams(lam=float(lam), R=float(R), m=float(p["m"]),
                       T=float(data["T"]), eta=eta)
        for lam in p["lambda_grid"]
        for R in p["R_grid"]
    ]
    result = carleman_sweep(
        sys_, grid, data["nt"], data["theta"], p["samples"], p["seed"]
    )
    with _artifact(manifest, out, "carleman_sweep.csv") as path:
        _write_csv(path, "lambda,R,sample_id,lhs,rhs,ratio", result.rows,
                   config.config_hash)
    floor = pointwise_lambda_floor(eta)
    finite = floor[np.isfinite(floor)]
    with _artifact(manifest, out, "carleman_summary.json") as path:
        _write_json(
            path,
            {
                "config_hash": config.config_hash,
                "max_ratio": [
                    {"lambda": lam, "R": R, "ratio": r,
                     "nonfinite": result.nonfinite[(lam, R)]}
                    for (lam, R), r in result.max_ratio.items()
                ],
                "lambda_floor_unbounded_nodes": int(
                    np.sum(~np.isfinite(floor) & (eta.values > 0.0))
                ),
                "lambda_floor_max_finite": float(finite.max()) if finite.size else None,
            },
        )
    manifest["summary"]["max_ratio_overall"] = max(
        (r for r in result.max_ratio.values() if r is not None), default=None
    )


def _run_observability(sys_, config, out, manifest) -> None:
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


def _run_control(sys_, config, out, manifest) -> None:
    data = config.raw
    p = data["params"]
    U0 = _values(sys_, p["u0"], sys_.ndof)
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
        manifest["summary"][f"final_norm_eps{idx}"] = result.final_norm
        if not result.converged:
            manifest["summary"][f"non_converged_eps{idx}"] = True

    if len(eps_list) > 1:
        rows = [(eps, r.final_norm, r.control_norm, r.iterations, r.cost)
                for eps, r in zip(eps_list, results)]
        with _artifact(manifest, out, "eps_scaling.csv") as path:
            _write_csv(path, "eps,final_norm,control_norm,iterations,cost", rows,
                       config.config_hash)
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
