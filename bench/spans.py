"""In-memory span tracing of dynbc layers, installed from outside the package.

A traced repetition wraps every public function of every loaded ``dynbc``
submodule (the names in its ``__all__`` that it defines) plus
``scipy.sparse.linalg.splu``.  A function is wrapped under every module
attribute that binds it, because ``from .evolution import solve_backward``
copies the binding into ``control``, ``carleman``, ``observability``, ``cli``
and the package itself.  Every wrapped attribute is restored when the
``Patch`` context exits.

Each span records its name (``<layer>.<function>``), start, end, parent
span and repetition id.  Spans stay in memory until the run writes them
out.  A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so that equals the part of
its interval no child covers.

``PER_LAYER`` names the per-layer metrics and how each is derived from the
spans of one repetition.  A metric whose functions do not exist at the
traced commit is reported as absent (0 in the result line, named as absent
in the report).
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import scipy.sparse.linalg as spla

ROOT_SPAN = "bench.rep"
LU_LAYER = "lu"

_WRAPPED = "__bench_wrapped__"


class Absent(Exception):
    """A metric cannot be read at this commit."""


class Tracer:
    """Records nested spans as [name, start, end, parent index, rep id, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.rep = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        self.spans.append([name, perf_counter(), None, parent, self.rep, None])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "rep": s[4], "attrs": s[5]}
            for i, s in enumerate(self.spans)
        ]


# --- hooks: counters read from a wrapped call's arguments and result -------

def _trajectory_hook(fn):
    sig = inspect.signature(fn)

    def hook(args, kwargs, result):
        nt = sig.bind(*args, **kwargs).arguments.get("nt", 0)
        states = getattr(result, "states", None)
        return {"steps": int(nt), "bytes": int(states.nbytes) if states is not None else 0}

    return hook


def _csv_hook(fn):
    sig = inspect.signature(fn)

    def hook(args, kwargs, result):
        path = sig.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)}

    return hook


def _run_hook(fn):
    sig = inspect.signature(fn)

    def hook(args, kwargs, result):
        out = sig.bind(*args, **kwargs).arguments.get("out_dir")
        total = 0
        if out and os.path.isdir(out):
            total = sum(e.stat().st_size for e in os.scandir(out) if e.is_file())
        return {"bytes": total}

    return hook


def _synthesize_hook(fn):
    return lambda args, kwargs, result: {"iterations": int(result.iterations)}


def _sweep_hook(fn):
    def hook(args, kwargs, result):
        ratios = [row[5] for row in result.rows]
        return {
            "evals": len(ratios),
            "nonfinite": sum(1 for r in ratios if not math.isfinite(r)),
        }

    return hook


def _estimate_hook(fn):
    return lambda args, kwargs, result: {"samples": len(result.per_sample)}


HOOKS = {
    "solve_forward": _trajectory_hook,
    "solve_backward": _trajectory_hook,
    "trajectory_to_csv": _csv_hook,
    "run": _run_hook,
    "synthesize_control": _synthesize_hook,
    "carleman_sweep": _sweep_hook,
    "estimate_CT": _estimate_hook,
}


def _wrap(tracer: Tracer, name: str, fn):
    make_hook = HOOKS.get(name.split(".", 1)[1])
    hook = make_hook(fn) if make_hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            try:
                tracer.spans[idx][5] = hook(args, kwargs, result)
            except (KeyError, TypeError, AttributeError, IndexError, OSError) as exc:
                # a refactor changed the signature or result this hook reads
                tracer.spans[idx][5] = {"hook_error": repr(exc)}
        return result

    setattr(wrapper, _WRAPPED, True)
    return wrapper


def dynbc_modules() -> list:
    """The loaded dynbc package and its submodules."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dynbc" or name.startswith("dynbc."))
    ]


def discover() -> dict[int, tuple[str, Callable]]:
    """Public functions of each dynbc submodule, keyed by id, with span names."""
    targets = {}
    for mod in dynbc_modules():
        if mod.__name__ == "dynbc":
            continue
        layer = mod.__name__.split(".")[-1]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[id(obj)] = (f"{layer}.{attr}", obj)
    targets[id(spla.splu)] = (f"{LU_LAYER}.splu", spla.splu)
    return targets


class Patch:
    """Context manager that wraps every binding of the traced functions."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.names: set[str] = set()
        self.layers: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        targets = discover()
        wrappers = {key: _wrap(self.tracer, name, fn) for key, (name, fn) in targets.items()}
        self.names = {name.split(".", 1)[1] for name, _ in targets.values()}
        self.layers = {name.split(".", 1)[0] for name, _ in targets.values()}
        try:
            for mod in dynbc_modules() + [spla]:
                for attr, val in list(vars(mod).items()):
                    wrapper = wrappers.get(id(val))
                    if wrapper is not None and targets[id(val)][1] is val:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            mod, attr, val = self._saved.pop()
            setattr(mod, attr, val)


def still_wrapped() -> list[str]:
    """Module attributes that still hold a tracing wrapper (should be none)."""
    left = []
    for mod in dynbc_modules() + [spla]:
        for attr, val in vars(mod).items():
            if getattr(val, _WRAPPED, False):
                left.append(f"{mod.__name__}.{attr}")
    return left


# --- per-layer metrics from the spans of one repetition ---------------------

class RepView:
    """Span queries over one repetition (spans share the rep id)."""

    def __init__(self, spans: list[list], rep: int) -> None:
        idx = [i for i, s in enumerate(spans) if s[4] == rep]
        self.spans = spans
        self.idx = idx
        self.children: dict[int, list[int]] = {i: [] for i in idx}
        for i in idx:
            parent = spans[i][3]
            if parent in self.children:
                self.children[parent].append(i)
        self.root = next(i for i in idx if spans[i][0] == ROOT_SPAN)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    @staticmethod
    def func(name: str) -> str:
        return name.split(".", 1)[1]

    @staticmethod
    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def _outermost(self, i: int, same) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if same(self.spans[parent][0]):
                return False
            parent = self.spans[parent][3]
        return True

    def of(self, func: str) -> list[int]:
        return [i for i in self.idx if self.func(self.spans[i][0]) == func]

    def count(self, *funcs: str) -> int:
        return sum(len(self.of(f)) for f in funcs)

    def time(self, *funcs: str) -> float:
        """Inclusive time of the outermost calls of the given functions."""
        total = 0.0
        for f in funcs:
            for i in self.of(f):
                if self._outermost(i, lambda n: self.func(n) == f):
                    total += self.dur(i)
        return total

    def layer_time(self, layer: str) -> float:
        return sum(
            self.dur(i) for i in self.idx
            if self.layer(self.spans[i][0]) == layer
            and self._outermost(i, lambda n: self.layer(n) == layer)
        )

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time(i) for i in self.idx if self.layer(self.spans[i][0]) == layer)

    def attr(self, func: str, key: str) -> list:
        out = []
        for i in self.of(func):
            attrs = self.spans[i][5] or {}
            if "hook_error" in attrs:
                raise Absent(f"{func}: {attrs['hook_error']}")
            out.append(attrs[key])
        return out

    def self_excluding(self, func: str, excluded: tuple[str, ...]) -> float:
        """Duration of func's calls minus their direct children in `excluded`."""
        total = 0.0
        for i in self.of(func):
            total += self.dur(i) - sum(
                self.dur(c) for c in self.children[i]
                if self.func(self.spans[c][0]) in excluded
            )
        return total

    def run_s(self) -> float:
        return self.dur(self.root)

    def unattributed_s(self) -> float:
        """Time of the repetition outside every dynbc span (the root's self time)."""
        return self.self_time(self.root)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # functions (or "layer:<name>") that must exist
    value: Callable[[RepView], float]


def _eps_iterations(k: int):
    def value(v: RepView) -> float:
        its = v.attr("synthesize_control", "iterations")
        return its[k] if k < len(its) else 0

    return value


_STEP_OPS = ("gramian_apply", "solve_forward", "solve_backward")

PER_LAYER = (
    LayerMetric("mesh.build_s", "s", "lower", ("layer:mesh",), lambda v: v.layer_time("mesh")),
    LayerMetric("assembly.assemble_s", "s", "lower", ("assemble",), lambda v: v.time("assemble")),
    LayerMetric("assembly.eigenpair_calls", "count", "lower", ("smallest_eigenpair",),
                lambda v: v.count("smallest_eigenpair")),
    LayerMetric("assembly.eigenpair_s", "s", "lower", ("smallest_eigenpair",),
                lambda v: v.time("smallest_eigenpair")),
    LayerMetric("evolution.forward_calls", "count", "lower", ("solve_forward",),
                lambda v: v.count("solve_forward")),
    LayerMetric("evolution.backward_calls", "count", "lower", ("solve_backward",),
                lambda v: v.count("solve_backward")),
    LayerMetric("evolution.forward_s", "s", "lower", ("solve_forward",),
                lambda v: v.time("solve_forward")),
    LayerMetric("evolution.backward_s", "s", "lower", ("solve_backward",),
                lambda v: v.time("solve_backward")),
    LayerMetric("evolution.steps", "count", "lower", ("solve_forward", "solve_backward"),
                lambda v: sum(v.attr("solve_forward", "steps") + v.attr("solve_backward", "steps"))),
    LayerMetric("evolution.lu_factorizations", "count", "lower", ("splu",), lambda v: v.count("splu")),
    LayerMetric("evolution.lu_s", "s", "lower", ("splu",), lambda v: v.time("splu")),
    LayerMetric("evolution.trajectory_bytes", "bytes", "lower", ("solve_forward", "solve_backward"),
                lambda v: sum(v.attr("solve_forward", "bytes") + v.attr("solve_backward", "bytes"))),
    LayerMetric("evolution.csv_s", "s", "lower", ("trajectory_to_csv",),
                lambda v: v.time("trajectory_to_csv")),
    LayerMetric("evolution.csv_bytes", "bytes", "lower", ("trajectory_to_csv",),
                lambda v: sum(v.attr("trajectory_to_csv", "bytes"))),
    LayerMetric("evolution.self_s", "s", "lower", ("layer:evolution",),
                lambda v: v.layer_self("evolution")),
    LayerMetric("control.synthesize_s", "s", "lower", ("synthesize_control",),
                lambda v: v.time("synthesize_control")),
    LayerMetric("control.verify_s", "s", "lower", ("verify_null",), lambda v: v.time("verify_null")),
    LayerMetric("control.gramian_applies", "count", "lower", ("gramian_apply",),
                lambda v: v.count("gramian_apply")),
    LayerMetric("control.gramian_s", "s", "lower", ("gramian_apply",),
                lambda v: v.time("gramian_apply")),
    LayerMetric("control.cg_iterations", "count", "lower", ("synthesize_control",),
                lambda v: sum(v.attr("synthesize_control", "iterations"))),
    *(
        LayerMetric(f"control.cg_iterations.eps{k}", "count", "lower", ("synthesize_control",),
                    _eps_iterations(k))
        for k in range(3)
    ),
    LayerMetric("control.cg_self_s", "s", "lower", ("synthesize_control",),
                lambda v: v.self_excluding("synthesize_control", _STEP_OPS)),
    LayerMetric("control.self_s", "s", "lower", ("layer:control",), lambda v: v.layer_self("control")),
    LayerMetric("carleman.sweep_s", "s", "lower", ("carleman_sweep",),
                lambda v: v.time("carleman_sweep")),
    LayerMetric("carleman.lhs_s", "s", "lower", ("carleman_lhs",), lambda v: v.time("carleman_lhs")),
    LayerMetric("carleman.rhs_s", "s", "lower", ("carleman_rhs",), lambda v: v.time("carleman_rhs")),
    LayerMetric("carleman.evals", "count", "higher", ("carleman_sweep",),
                lambda v: sum(v.attr("carleman_sweep", "evals"))),
    LayerMetric("carleman.nonfinite_ratios", "count", "lower", ("carleman_sweep",),
                lambda v: sum(v.attr("carleman_sweep", "nonfinite"))),
    LayerMetric("carleman.self_s", "s", "lower", ("layer:carleman",),
                lambda v: v.layer_self("carleman")),
    LayerMetric("observability.estimate_s", "s", "lower", ("estimate_CT",),
                lambda v: v.time("estimate_CT")),
    LayerMetric("observability.samples", "count", "higher", ("estimate_CT",),
                lambda v: sum(v.attr("estimate_CT", "samples"))),
    LayerMetric("observability.self_s", "s", "lower", ("layer:observability",),
                lambda v: v.layer_self("observability")),
    LayerMetric("mesh.self_s", "s", "lower", ("layer:mesh",), lambda v: v.layer_self("mesh")),
    LayerMetric("assembly.self_s", "s", "lower", ("layer:assembly",),
                lambda v: v.layer_self("assembly")),
    LayerMetric("cli.self_s", "s", "lower", ("layer:cli",), lambda v: v.layer_self("cli")),
    LayerMetric("cli.artifact_bytes", "bytes", "lower", ("run",), lambda v: sum(v.attr("run", "bytes"))),
    LayerMetric("trace.run_s", "s", "lower", (), lambda v: v.run_s()),
    LayerMetric("trace.unattributed_s", "s", "lower", (), lambda v: v.unattributed_s()),
)


# Which end-to-end metric each per-layer metric should move, and on which
# workloads; the other workloads should not move.
SIM, CTL, CERT = "simulate-rect128", "control-ladder-disk16", "certify-disk16"
MOVES = {
    "mesh.build_s": ("setup_s", (SIM,)),
    "assembly.assemble_s": ("setup_s, run_s", (SIM,)),
    "assembly.eigenpair_calls": ("run_s", (CERT, CTL)),
    "assembly.eigenpair_s": ("run_s", (CERT, CTL)),
    **{name: ("run_s", (CTL, CERT)) for name in (
        "evolution.forward_calls", "evolution.backward_calls", "evolution.forward_s",
        "evolution.backward_s", "evolution.steps", "evolution.self_s")},
    "evolution.lu_factorizations": ("run_s", (CTL,)),
    "evolution.lu_s": ("run_s", (CTL,)),
    "evolution.trajectory_bytes": ("peak_rss_mb", (SIM,)),
    "evolution.csv_s": ("run_s", (SIM,)),
    "evolution.csv_bytes": ("run_s", (SIM,)),
    **{name: ("run_s", (CTL,)) for name in (
        "control.synthesize_s", "control.verify_s", "control.gramian_applies",
        "control.gramian_s", "control.cg_iterations", "control.cg_iterations.eps0",
        "control.cg_iterations.eps1", "control.cg_iterations.eps2", "control.cg_self_s",
        "control.self_s")},
    **{name: ("run_s", (CERT,)) for name in (
        "carleman.sweep_s", "carleman.lhs_s", "carleman.rhs_s", "carleman.evals",
        "carleman.self_s", "observability.estimate_s", "observability.samples",
        "observability.self_s")},
    "carleman.nonfinite_ratios": ("ok_frac", (CERT,)),
    "mesh.self_s": ("setup_s", (SIM,)),
    "assembly.self_s": ("setup_s, run_s", (SIM,)),
    "cli.self_s": ("run_s", (SIM, CTL)),
    "cli.artifact_bytes": ("run_s", (SIM, CTL)),
    "trace.run_s": ("(traced run_s)", (SIM, CTL, CERT)),
    "trace.unattributed_s": ("(traced run_s minus all span self times)", (SIM, CTL, CERT)),
    "trace.overhead_s": ("(traced minus untraced run_s)", (SIM, CTL, CERT)),
}


def present(metric: LayerMetric, names: set[str], layers: set[str]) -> bool:
    """True when every function or layer the metric reads exists."""
    for need in metric.needs:
        if need.startswith("layer:"):
            if need[len("layer:"):] not in layers:
                return False
        elif need not in names:
            return False
    return True
