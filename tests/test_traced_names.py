"""The public names the benchmark's span tracer reads.

``bench/spans.py`` wraps the functions in each ``dynbc`` submodule's
``__all__``; a per-layer metric whose function is missing there is reported
as absent, not as a failure.  This test names such a loss.
"""

import importlib
import importlib.util
import os
import pkgutil
import sys

import dynbc

_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_public(monkeypatch):
    modules = {
        info.name: importlib.import_module(f"dynbc.{info.name}")
        for info in pkgutil.iter_modules(dynbc.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    }
    public = {name for mod in modules.values() for name in getattr(mod, "__all__", ())}
    needs = {need for metric in _spans(monkeypatch).PER_LAYER for need in metric.needs}
    layers = {need.split(":", 1)[1] for need in needs if need.startswith("layer:")}
    # splu is scipy's sparse LU, which no dynbc solve calls any more; the
    # metrics that count it go with ROADMAP item 3
    functions = {need for need in needs if not need.startswith("layer:")} - {"splu"}
    assert sorted(layers - modules.keys()) == []
    assert sorted(functions - public) == []
