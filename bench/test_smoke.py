"""Smoke test of the benchmark on a tiny config (interval n=8, nt=4).

Run with ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import math
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *args):
    """The report lines and the parsed result line of one smoke run."""
    assert run.main(["--workload", "smoke", "--seconds", "0.2", "--seed", "3", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)
    return lines[:-1], result


def _result(capsys, *args):
    return _run(capsys, *args)[1]


def _bindings():
    import spans

    return {
        (mod.__name__, attr): id(val)
        for mod in spans.dynbc_modules() + [spans.spla]
        for attr, val in vars(mod).items()
    }


def test_untraced_reports_every_end_to_end_metric(capsys):
    result = _result(capsys, "--trace", "0")
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_reports_every_layer_metric_and_unwraps(capsys):
    run.import_dynbc()
    import spans

    before = _bindings()
    result = _result(capsys, "--trace", "1")
    assert _bindings() == before
    assert spans.still_wrapped() == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = result["metrics"]
    assert m["control.cg_iterations"]["value"] == sum(
        m[f"control.cg_iterations.eps{k}"]["value"] for k in range(3))
    assert m["evolution.lu_factorizations"]["value"] >= m["evolution.forward_calls"]["value"]
    assert m["carleman.evals"]["value"] == 2 and m["observability.samples"]["value"] == 2


def test_missing_function_is_reported_absent(capsys, monkeypatch):
    dynbc = run.import_dynbc()
    monkeypatch.setattr(dynbc.control, "__all__",
                        [n for n in dynbc.control.__all__ if n != "gramian_apply"])
    lines, result = _run(capsys, "--trace", "1")
    absent = {line.split()[0] for line in lines if "(absent:" in line}
    assert absent == {"control.gramian_applies", "control.gramian_s"}
    assert result["metrics"]["control.gramian_applies"]["value"] == 0
    assert result["metrics"]["control.synthesize_s"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = run.RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", BENCHMARK["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_definitions():
    run.import_dynbc()
    import spans
    import workloads

    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    layer = [(m.name, m.unit, m.better) for m in spans.PER_LAYER] + list(run.EXTRA_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layer
    assert set(spans.MOVES) == {name for name, _, _ in layer}
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
