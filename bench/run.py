"""dynbc benchmark: fixed `dynbc run` workloads, timed end to end and per layer.

One workload, one process, one caller, closed loop (each repetition starts
after the previous one returns), serial path (no ``--threads``), BLAS pinned
to one thread:

    python3 bench/run.py --workload control-ladder-disk16 --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced repetitions and prints the per-layer metrics, including the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every workload:

    python3 bench/run.py --all [--workload NAME] [--trace 1]

Steadiness over seeds (median and quartile spread per end-to-end metric,
flagged when wider than the metric's bound in BENCHMARK.json):

    python3 bench/run.py --steady [--workload NAME]

Smoke test: ``python3 -m pytest bench/test_smoke.py``.  Outputs go to
``.bench_runs/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

MIN_ROUNDS = 3  # plain repetitions per run (rounds of plain + traced with --trace 1: 2)
SETUP_SHARE = 0.1  # set-up burst per round, as a share of the last repetition (>= 1 sample)
STEADY_RUNS = 10  # seeds per workload for --steady
# Time in a traced repetition outside every dynbc span may not exceed the
# tracing overhead or this share of the traced run_s, whichever is larger.
COVERAGE_SLACK = 0.05
CHILD_TIMEOUT = 300

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
)
# Per-layer metrics that do not come from spans.
EXTRA_LAYER = (
    ("trace.overhead_s", "s", "lower"),
)


def import_dynbc():
    """Import dynbc from this checkout's src/, never from anywhere else."""
    init = SRC / "dynbc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found: not a dynbc checkout")
    sys.path.insert(0, str(SRC))
    import dynbc

    if Path(dynbc.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported dynbc from {dynbc.__file__}, expected {init}")
    return dynbc


def git_commit() -> str:
    # the ceiling keeps git from finding a repository above a plain checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "loop": "closed, 1 caller, serial dynbc (no --threads)",
    }


def summarize(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    n = len(values)
    if n > 10:
        p = math.floor(100.0 * (n - 10) / n)
        if p > 0:
            ranked = sorted(values)
            out[f"p{p}"] = ranked[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return out


# --- one workload in this process -------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    from dynbc import cli
    import spans
    import workloads as wl

    seeds = wl.Seeds.derive(seed)
    wdir = RUNS / workload.name
    shutil.rmtree(wdir / "out", ignore_errors=True)
    wdir.mkdir(parents=True, exist_ok=True)
    configs = workload.configs(seeds)
    config_paths = []
    for i, config in enumerate(configs):
        path = wdir / f"config{i}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        config_paths.append(str(path))
    out_dirs = [str(wdir / "out" / str(i)) for i in range(len(configs))]

    # set-up (mesh build + assembly) is timed on its own, in a burst before
    # every plain repetition, so its samples span the run like run_s does
    setup_times: list[float] = []

    def setup() -> None:
        t0 = perf_counter()
        wl.build_system(workload)
        setup_times.append(perf_counter() - t0)

    def repetition() -> list[int]:
        return [
            cli.run(cli.ExperimentConfig.from_file(path), out_dir=out)
            for path, out in zip(config_paths, out_dirs)
        ]

    check = wl.RepCheck()
    digests: dict = {}
    plain: list[float] = []
    tracer = spans.Tracer() if trace else None
    traced_reps: list[int] = []
    names: set[str] = set()
    layers: set[str] = set()
    rounds = 0
    start = perf_counter()
    while True:
        if not trace:
            burst_start = perf_counter()
            setup()
            while perf_counter() - burst_start < SETUP_SHARE * (plain[-1] if plain else 0.0):
                setup()
        for traced in ((False, True) if trace else (False,)):
            shutil.rmtree(wdir / "out", ignore_errors=True)
            if traced:
                tracer.rep = rounds
                with spans.Patch(tracer) as patch:
                    idx = tracer.begin(spans.ROOT_SPAN)
                    try:
                        codes = repetition()
                    finally:
                        tracer.end(idx)
                names, layers = patch.names, patch.layers
                traced_reps.append(rounds)
            else:
                t0 = perf_counter()
                codes = repetition()
                plain.append(perf_counter() - t0)
            wl.check_rep(configs, out_dirs, codes, digests, check)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= (2 if trace else MIN_ROUNDS) and elapsed * (rounds + 1) / rounds > seconds:
            break
    shutil.rmtree(wdir / "out", ignore_errors=True)
    # the process's peak so far is dynbc's: the harness's own reference
    # computations below run after it is read
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    system = wl.build_system(workload)
    duality = wl.duality_check(system, workload, seeds)
    if any(c["task"] == "control" for c in configs):
        check.certify_control(wl.control_reference(system, workload))
    del system

    # run-level problems make the result incorrect; failed operations are counted
    run_problems = []
    if not duality["ok"]:
        run_problems.append(f"duality residual {duality['residual']:.3e} above roundoff scale")
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "configs": configs,
        "env": environment(seed),
        "duality": duality,
        "samples": {"setup": len(setup_times), "plain_reps": len(plain),
                    "traced_reps": len(traced_reps)},
        "timings": {"run_s": summarize(plain)},
        "raw": {"setup_s": setup_times, "run_s": plain},
        "layer_moves": spans.MOVES,
    }
    metrics: dict = {}
    if trace:
        left = spans.still_wrapped()
        if left:
            run_problems.append(f"attributes left wrapped: {left}")
        layer, absent, nondeterministic = per_layer(tracer, traced_reps, names, layers)
        detail["absent"] = absent
        run_problems += [f"count {m} differs between repetitions" for m in nondeterministic]
        overhead = layer["trace.run_s"]["value"] - statistics.median(plain)
        layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        unattributed = layer["trace.unattributed_s"]["value"]
        allowed = max(overhead, COVERAGE_SLACK * layer["trace.run_s"]["value"])
        if unattributed > allowed:
            run_problems.append(f"{unattributed:.6f} s of the traced run lies outside every "
                                f"dynbc span, more than the {allowed:.6f} s allowed")
        metrics = layer
        (wdir / f"spans-seed{seed}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in tracer.records()))
    else:
        detail["timings"]["setup_s"] = summarize(setup_times)
        values = {
            "run_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - check.failed / check.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail["problems"] = run_problems + list(dict.fromkeys(check.problems))
    detail["null_residual"] = check.null_residual
    result = {
        "correct": not run_problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    detail["result"] = result
    (wdir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    return result, detail


def per_layer(tracer, reps: list[int], names: set[str], layers: set[str]):
    """Per-layer metrics over the traced repetitions.

    Times are medians over repetitions.  Counts and bytes must repeat
    exactly; those that do not are returned in the third value.  A metric
    whose functions do not exist at this commit reads 0 in the result line
    and is named in the second value.
    """
    import spans

    views = [spans.RepView(tracer.spans, rep) for rep in reps]
    out, absent, nondeterministic = {}, [], []
    for m in spans.PER_LAYER:
        entry = {"value": 0, "unit": m.unit}
        out[m.name] = entry
        try:
            if not spans.present(m, names, layers):
                raise spans.Absent(m.name)
            values = [m.value(v) for v in views]
        except spans.Absent:
            absent.append(m.name)
            continue
        if m.unit == "s":
            entry["value"] = statistics.median(values)
        else:
            entry["value"] = values[0]
            if any(v != values[0] for v in values):
                nondeterministic.append(m.name)
    return out, absent, nondeterministic


def report(workload, result: dict, detail: dict, trace: bool) -> None:
    import spans

    env = detail["env"]
    print(f"# dynbc benchmark  workload={workload.name}  seed={env['seed']}  trace={int(trace)}")
    print(f"# {workload.why}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(detail["samples"]))
    timings = detail["timings"]
    for name, entry in result["metrics"].items():
        line = f"{name:34s} {entry['value']:>16.6g} {entry['unit']:9s}"
        if name in detail.get("absent", ()):
            line += " (absent: not at this commit, or not in this workload)"
        elif name in timings and not trace:
            line += " " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in timings[name].items())
        if name == "evolution.trajectory_bytes":
            line += " (computed from states.nbytes)"
        if name in spans.MOVES:
            metric, names = spans.MOVES[name]
            line += f" -> {metric} on {', '.join(names)}"
        print(line)
    if trace:
        m = result["metrics"]
        print(f"# self times of all dynbc spans sum to traced run_s minus "
              f"{m['trace.unattributed_s']['value']:.6f} s outside them; "
              f"tracing overhead {m['trace.overhead_s']['value']:.6f} s")
    if detail["null_residual"] is not None:
        print(f"{'null_residual':34s} {detail['null_residual']:>16.6g} ratio  (last-eps final norm / U0 norm)")
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={result['failed'] / result['attempted']:.6g}")
    for problem in detail["problems"][:10]:
        print(f"# problem: {problem}")
    print(json.dumps(result))


# --- several workloads or seeds, one child process each ----------------------

def child(name: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict | None]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(args, names: list[str]) -> int:
    results = {}
    for name in names:
        lines, result = child(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        if result is None:
            print(f"# {name}: FAILED to produce a result")
            return 1
        print(json.dumps(result))
        results[name] = result
    print("\n# summary")
    for name, result in results.items():
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items()
                          if k in dict(END_TO_END) or k.startswith("trace."))
        print(f"{name:24s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {cells}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def steady(args, names: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for name in names:
        values: dict[str, list[float]] = {m: [] for m, _ in END_TO_END}
        for seed in range(args.seed, args.seed + STEADY_RUNS):
            _, result = child(name, seed, args.seconds, 0)
            if result is None:
                print(f"# {name} seed {seed}: no result")
                return 1
            for m in values:
                values[m].append(result["metrics"][m]["value"])
            print(f"# {name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()))
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else math.inf
            bound = bounds.get(m, math.nan)
            flag = "OVER BOUND" if spread > bound else (
                "over bound/3" if spread > bound / 3 else "ok")
            flagged += spread > bound
            print(f"{name:24s} {m:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bound} {flag}")
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (default with --all/--steady: every one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--steady", action="store_true",
                        help=f"spread over {STEADY_RUNS} seeds from --seed")
    args = parser.parse_args(argv)

    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = "1"
    import_dynbc()
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    known = dict(wl.WORKLOADS, smoke=wl.SMOKE)
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(known)}")
    if args.all or args.steady:
        names = [args.workload] if args.workload else list(wl.WORKLOADS)
        return steady(args, names) if args.steady else run_all(args, names)
    if args.workload is None:
        parser.error("give --workload, or --all / --steady")
    workload = known[args.workload]
    result, detail = measure(workload, args.seed, args.seconds, bool(args.trace))
    report(workload, result, detail, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
