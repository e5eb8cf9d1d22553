"""Workloads of the dynbc benchmark: configs, set-up and output checks.

Every workload uses gamma=1, delta=0, constant beta=1, beta0=1, T=1 and
theta=1/2.  Random data seeds are derived from the benchmark seed; dynbc
only ever sees the generated configs.

An operation is one ``simulate`` run, one eps of a control ladder, one
Carleman (lambda, R, sample) evaluation or one observability sample.  The
checks below decide per operation whether it failed; they run outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dynbc import assembly, evolution, mesh as dmesh

COMMON = {
    "gamma": 1.0,
    "delta": 0.0,
    "beta": {"kind": "constant", "value": 1.0},
    "beta0": 1.0,
    "T": 1.0,
    "theta": 0.5,
}
RECT128 = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 128, "ny": 128}
DISK16 = {"kind": "disk", "rho": 1.0, "nr": 16, "ntheta": 64}
INTERVAL8 = {"kind": "interval", "a": 0.0, "b": 1.0, "n": 8}
LADDER = [1e-2, 1e-4, 1e-6]

# Relative size of the duality defect accepted as roundoff.
DUALITY_RTOL = 1e-12


@dataclass(frozen=True)
class Seeds:
    """Data seeds derived from the benchmark seed."""

    u0: int
    g: int
    carleman: int
    observability: int
    check: int

    @staticmethod
    def derive(seed: int) -> "Seeds":
        return Seeds(*(int(s) for s in np.random.SeedSequence(seed).generate_state(5)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    geometry: dict
    nt: int
    tasks: Callable[[Seeds], list[tuple[str, dict]]]  # (task, params) in run order

    def configs(self, seeds: Seeds) -> list[dict]:
        return [
            dict(COMMON, task=task, geometry=self.geometry, nt=self.nt, params=params)
            for task, params in self.tasks(seeds)
        ]


def _simulate(s: Seeds) -> list[tuple[str, dict]]:
    return [("simulate", {"u0": {"kind": "random", "seed": s.u0},
                          "g": {"kind": "random", "seed": s.g}})]


def _control(s: Seeds) -> list[tuple[str, dict]]:
    return [("control", {"u0": {"kind": "eigenmode"}, "eps": LADDER})]


def _certify(lambdas, Rs, carleman_samples, obs_samples):
    def tasks(s: Seeds) -> list[tuple[str, dict]]:
        return [
            ("carleman", {"lambda_grid": lambdas, "R_grid": Rs, "m": 2,
                          "samples": carleman_samples, "seed": s.carleman}),
            ("observability", {"samples": obs_samples, "seed": s.observability}),
        ]

    return tasks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-rect128",
            "simulate, rect 128x128, nt=64, random u0 and g: Python-loop assembly "
            "and a 36 MB trajectory CSV dominate; time stepping is ~6%",
            RECT128, 64, _simulate,
        ),
        Workload(
            "control-ladder-disk16",
            "control, disk 16x64, nt=128, eigenmode u0, eps ladder 1e-2/1e-4/1e-6: "
            "LU factorizations and CG Gramian applies dominate; assembly ~1%",
            DISK16, 128, _control,
        ),
        Workload(
            "certify-disk16",
            "carleman 3x3 grid (8 samples) then observability (64 samples) on disk "
            "16x64, nt=128: many independent backward solves and Carleman reductions",
            DISK16, 128, _certify([1, 4, 16], [1, 2, 4], 8, 64),
        ),
    )
}

# Every task on a tiny interval, for the benchmark's own smoke test.
SMOKE = Workload(
    "smoke",
    "all four tasks on interval n=8, nt=4",
    INTERVAL8, 4,
    lambda s: _simulate(s) + _control(s) + _certify([1], [1], 2, 2)(s),
)


def build_system(workload: Workload):
    """Build the workload's mesh and assemble it through the public functions."""
    geo = workload.geometry
    if geo["kind"] == "interval":
        m = dmesh.build_interval_mesh(geo["a"], geo["b"], geo["n"])
    elif geo["kind"] == "rect":
        m = dmesh.build_rect_mesh(geo["lx"], geo["ly"], geo["nx"], geo["ny"])
    else:
        m = dmesh.build_disk_mesh(geo["rho"], geo["nr"], geo["ntheta"])
    return assembly.assemble(m, COMMON["gamma"], COMMON["delta"], COMMON["beta"]["value"])


# --- run-level references and checks ----------------------------------------

def duality_check(sys_, workload: Workload, seeds: Seeds) -> dict:
    """Discrete duality identity on random data, at roundoff scale.

    The defect is compared with the size of the terms it combines:
    max_n |U^n|_M max_n |Phi^n|_M + dt sum_n |g^n| |B^T Phi^n|.
    """
    T, nt, theta = COMMON["T"], workload.nt, COMMON["theta"]
    rng = np.random.default_rng(seeds.check)
    U0 = rng.standard_normal(sys_.ndof)
    g = evolution.BoundarySignal(rng.standard_normal((nt + 1, sys_.n_boundary)))
    PhiT = rng.standard_normal(sys_.ndof)
    fwd = evolution.solve_forward(sys_, U0, g, T, nt, theta)
    adj = evolution.solve_backward(sys_, PhiT, T, nt, theta)
    residual = evolution.duality_residual(sys_, fwd, adj, g)
    u_max = max(assembly.norm_X2(sys_, u) for u in fwd.states)
    p_max = max(assembly.norm_X2(sys_, p) for p in adj.states)
    boundary = np.linalg.norm(g.values, axis=1) @ np.linalg.norm(
        sys_.B.T @ adj.states.T, axis=0
    )
    scale = u_max * p_max + fwd.dt * float(boundary)
    return {
        "residual": float(residual),
        "scale": float(scale),
        "ok": bool(math.isfinite(residual) and residual <= DUALITY_RTOL * scale),
    }


def control_reference(sys_, workload: Workload) -> dict:
    """|b|_M for the CG right-hand side b = free forward solve of the eigenmode u0."""
    _, u0 = assembly.smallest_eigenpair(sys_)
    free = evolution.solve_forward(sys_, u0, None, COMMON["T"], workload.nt, COMMON["theta"])
    return {"b_norm": assembly.norm_X2(sys_, free.states[-1])}


# --- per-repetition output checks -------------------------------------------

@dataclass
class RepCheck:
    """Operations attempted and failed over a run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    null_residual: float | None = None
    problems: list[str] = field(default_factory=list)
    # (label, optimality residual, cg_tol, final norm, eps) per control eps,
    # checked against the CG certificate once the reference norm is known
    pending: list[tuple] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def certify_control(self, refs: dict) -> None:
        """Optimality residual of every eps within its CG-residual certificate.

        With r the CG residual, |r|_M <= tol |b|_M, the optimality residual
        is |<r, PhiHat>_M|, and eps PhiHat = U(T) + r gives
        |PhiHat|_M <= (|U(T)|_M + tol |b|_M) / eps.  An eps that already
        failed another check is not counted twice.
        """
        b = refs["b_norm"]
        for label, residual, tol, final, eps in self.pending:
            certificate = tol * b * (final + tol * b) / eps
            if not (_finite(residual) and residual <= certificate):
                self.fail(1, f"{label}: optimality residual {residual} > {certificate}")
        self.pending.clear()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _manifest(out: str) -> dict | None:
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _csv_rows(path: str) -> list[list[float]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(",")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                continue  # the column header
    return rows


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def operations(config: dict) -> int:
    p = config["params"]
    if config["task"] == "control":
        return len(p["eps"])
    if config["task"] == "carleman":
        return len(p["lambda_grid"]) * len(p["R_grid"]) * p["samples"]
    if config["task"] == "observability":
        return p["samples"]
    return 1


def check_rep(configs: list[dict], outs: list[str], codes: list[int],
              digests: dict, check: RepCheck) -> None:
    """Check one repetition's artifacts; failed operations go into `check`."""
    for i, (config, out, code) in enumerate(zip(configs, outs, codes)):
        task = config["task"]
        n_ops = operations(config)
        check.attempted += n_ops
        manifest = _manifest(out)
        if code != 0 or manifest is None or manifest.get("status") != "ok":
            check.fail(n_ops, f"{task}: exit code {code}")
            continue
        bad = [k for k, v in manifest["summary"].items()
               if not isinstance(v, bool) and not _finite(v)]
        if bad:
            check.fail(n_ops, f"{task}: non-finite summary scalars {bad}")
            continue
        try:
            if task == "simulate":
                _check_simulate(i, out, digests, check)
            elif task == "control":
                _check_control(config, out, manifest, check)
            else:
                _check_rows(task, config, out, n_ops, check)
        except (OSError, KeyError, ValueError) as exc:
            check.fail(n_ops, f"{task}: unreadable artifacts ({exc!r})")


def _check_simulate(i: int, out: str, digests: dict, check: RepCheck) -> None:
    digest = file_digest(os.path.join(out, "simulate_trajectory.csv"))
    if digests.setdefault(i, digest) != digest:
        check.fail(1, "simulate: trajectory CSV differs from the first repetition")


def _check_control(config: dict, out: str, manifest: dict, check: RepCheck) -> None:
    """Per eps: converged, finite refined norm, final norms decreasing along
    the ladder; the optimality residual waits for ``RepCheck.certify_control``.
    """
    tol = float(config["params"].get("cg_tol", 1e-8))
    previous = math.inf
    for k, eps in enumerate(config["params"]["eps"]):
        with open(os.path.join(out, f"result_{k}.json")) as fh:
            res = json.load(fh)
        final = res["final_norm"]
        problems = []
        if res["converged"] is not True:
            problems.append("not converged")
        if not _finite(res["final_norm_refined"]):
            problems.append("refined norm not finite")
        if not (_finite(final) and final < previous):
            problems.append(f"final norm {final} does not decrease")
        if problems:
            check.fail(1, f"control eps{k}: " + "; ".join(problems))
        else:
            check.pending.append((f"control eps{k}", res["optimality_residual"], tol, final, eps))
        previous = final if _finite(final) else previous
    summary = manifest["summary"]
    last = len(config["params"]["eps"]) - 1
    check.null_residual = summary[f"final_norm_eps{last}"] / summary["U0_norm"]


def _check_rows(task: str, config: dict, out: str, n_ops: int, check: RepCheck) -> None:
    """Every Carleman row and observability sample is present and finite."""
    name = "carleman_sweep.csv" if task == "carleman" else "observability_samples.csv"
    rows = _csv_rows(os.path.join(out, name))
    good = sum(1 for row in rows if all(math.isfinite(v) for v in row))
    if good < n_ops:
        check.fail(n_ops - good, f"{task}: {n_ops - good} of {n_ops} rows not finite or missing")
