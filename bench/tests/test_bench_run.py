import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import layers
import run
import workloads
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(BENCH_DIR)


def _spec():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=REPO_DIR):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_declared_metrics_match_what_the_run_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    reported = layers.per_layer_metrics(Tracer(), workloads.CHECK_SPANS, 1.0)
    reported = list(reported) + ["trace.overhead_s", "trace.spans"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO_DIR, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "small-groups", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _traced(seed):
    proc = _run("--workload", "small-groups", "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    path = os.path.join(BENCH_DIR, "out",
                        "spans-small-groups-seed%d.npz" % seed)
    with np.load(path) as spans:
        spans = {k: spans[k] for k in spans.files}
    return json.loads(proc.stdout.strip().splitlines()[-1]), spans


def test_traced_runs_repeat_call_counts_and_lie_in_the_window():
    first, spans = _traced(3)
    second, _ = _traced(3)
    assert first["correct"] and first["failed"] == 0
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    calls = {k: v["value"] for k, v in first["metrics"].items()
             if k.endswith(".calls")}
    assert calls == {k: second["metrics"][k]["value"] for k in calls}
    assert calls["gfq.GF.matmul.calls"] > 0
    m = {k: v["value"] for k, v in first["metrics"].items()}
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))
    assert m["trace.outside_s"] >= 0
    start, end = spans["window"]
    assert m["trace.wall_s"] == pytest.approx(end - start, rel=1e-9)
    assert len(spans["starts"]) == m["trace.spans"]
    assert (spans["ends"] >= spans["starts"]).all()
    top = spans["parents"] < 0
    assert spans["starts"][top].min() >= start
    assert spans["ends"][top].max() <= end


def test_pass_loop_stops_when_the_next_pass_would_not_fit(monkeypatch):
    clock = [0.0]

    def fake_pass(wl, inputs, seed, span=None):
        clock[0] += 0.4
        return 0.4, workloads.Tally(["q"])

    monkeypatch.setattr(run, "timed_pass", fake_pass)
    monkeypatch.setattr(run, "setup_samples", lambda wl, n: [0.5] * n)
    monkeypatch.setattr(run, "in_process_setup", lambda wl: None)
    monkeypatch.setattr(run, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    args = types.SimpleNamespace(seconds=1.0, seed=0)
    metrics, tallies = run.untraced_run(None, None, args)
    assert len(tallies) == 2  # 0.4 + 0.4 fit in 1 s, a third would not
    assert metrics["wall_s"] == (0.4, "s")
    assert metrics["setup_s"] == (0.5, "s")
