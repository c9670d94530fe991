"""The benchmark's child modes still run against the engine.

bench/child.py wraps engine functions by the names their callers look them
up by; a renamed or removed one is reported as absent, and bench/run.py then
drops the per-layer metrics that depend on it. This runs one small traced
inference the way the benchmark does and checks that nothing went missing.
The setup and micro modes import engine names directly, so a rename there
makes bench/run.py fail outright; each is run once here as well.
"""
from __future__ import annotations

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _span_names() -> list[str]:
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FROM_SPAN" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("FROM_SPAN not found in bench/run.py")


LOCKSERVER_2X2 = "Server=s1,s2 Client=c1,c2"


def _child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_setup_mode_prints_ready():
    proc = _child("setup", "lockserver", "lockserver", LOCKSERVER_2X2)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ready"


MICRO_RATES = ("evaluator.holds_per_s", "evaluator.successors_per_s")


def test_micro_mode_writes_both_rates(tmp_path):
    out = tmp_path / "micro.json"
    proc = _child("micro", str(out), "lockserver", LOCKSERVER_2X2)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rates = json.loads(out.read_text(encoding="utf-8"))
    for key in MICRO_RATES:
        assert rates[key] > 0


def _layer_metrics(trace: dict) -> dict[str, float]:
    """bench/run.py's per-layer metrics of a trace, imported as the benchmark runs it."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return run.layer_metrics(trace)


def test_traced_run_records_every_span(tmp_path):
    trace_file = tmp_path / "trace.json"
    proc = _child(
        "trace", str(trace_file), "--",
        "infer", "lockserver", "--grammar", "lockserver", "--seed", "1",
        "--n-lemmas", "300", "--n-ctis", "2000", "--out", str(tmp_path / "result.txt"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    assert trace["absent"] == []
    recorded = {span[0] for span in trace["spans"]}
    names = _span_names()
    assert len(names) == 10
    assert [n for n in names if n not in recorded] == []
    # the micro run and the benchmark's own timings give the metrics that the
    # trace does not, so with them every declared per-layer metric is there
    metrics = _layer_metrics(trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    outside = [m["name"] for m in declared
               if m["name"] in MICRO_RATES or m["name"].startswith(("host.", "trace."))]
    missing = [m["name"] for m in declared if m["name"] not in metrics and m["name"] not in outside]
    assert missing == []
    assert [k for k, v in metrics.items() if not math.isfinite(v)] == []
    assert len(declared) == 30 and len(outside) == 5
