"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _tiny(workload: str, trace: int = 0, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return _run(
        "--workload", workload, "--seed", "35", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", cwd=cwd,
    )


def _copy_benchmark(tmp_path, with_program: bool) -> None:
    """A checkout holding BENCHMARK.json, perfbench and optionally src."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".run")
    )
    if with_program:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        bench = json.load(src)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_metric_with_its_unit(workload):
    proc = _tiny(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = proc.stdout
    reported = ["failed_share", "host_probe_s"]
    if workload.startswith("service"):
        reported += ["ack_p50_ms", "ack_p99_ms", "answer_p50_ms", "answer_p99_ms",
                     "sessions_per_s", "server_busy_share", "client_busy_share"]
    for name in list(run.END_TO_END) + reported:
        line = next(l for l in report.splitlines() if l.split()[:1] == [name])
        assert " n=" in line
    assert '"nproc"' in report and '"numpy"' in report and '"cpu_model"' in report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = _tiny(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.spans"] > 0 and metrics["trace.wall_s"] > 0
    assert metrics["trace.pairs"] == run.TRACE_PAIRS  # tiny passes fit the budget
    if workload == "campaign":
        assert metrics["core.accuracy.calls"] > 0
        assert metrics["system.simulator.scalar.calls"] > 0
    elif workload == "long_trace":
        assert metrics["workloads.build.refs"] > 0
        assert metrics["mrc.curve.calls"] > 0
        assert metrics["mrc.stack.set_lru_flags.calls"] > 0
        assert metrics["system.simulator.scalar.calls"] == 0
    else:
        assert metrics["serve.protocol.frames"] > 0
        assert metrics["serve.pipeline.feed.refs"] > 0
        assert metrics["serve.pipeline.init.sessions"] > 0
        assert metrics["serve.pipeline.query.answers"] > 0
        assert metrics["mrc.sampling.total_refs"] == metrics["serve.pipeline.feed.refs"]
        assert metrics["serve.server.cpu_s"] > 0


@pytest.mark.parametrize("workload", ["campaign", "long_trace"])
def test_tampered_reference_fails_the_run(workload, tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "refs" / f"{workload}-tiny.json"
    recording = json.loads(path.read_text())
    outputs = recording["seeds"]["3"]  # seed 35 runs on the inputs of seed 3
    outputs[sorted(outputs)[0]] = "tampered"
    path.write_text(json.dumps(recording))
    proc = _tiny(workload, cwd=str(tmp_path))
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    proc = _run("--workload", "campaign", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_seed_without_a_recording_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "refs" / "long_trace-tiny.json"
    recording = json.loads(path.read_text())
    del recording["seeds"]["3"]
    path.write_text(json.dumps(recording))
    proc = _tiny("long_trace", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    spans = [
        (1, None, "outer", 0.0, 10.0, {"refs": 5}),
        (2, 1, "mid", 1.0, 7.0, {}),
        (3, 2, "inner", 2.0, 5.0, {"state_entries": 4}),
        (4, 1, "inner", 8.0, 9.0, {"state_entries": 9}),
    ]
    by_layer, covered = layers.aggregate(spans)
    assert by_layer["outer"]["self_s"] == pytest.approx(3.0)
    assert by_layer["mid"]["self_s"] == pytest.approx(3.0)
    assert by_layer["inner"]["busy_s"] == pytest.approx(4.0)
    assert by_layer["inner"]["calls"] == 2
    assert by_layer["inner"]["state_entries"] == 9  # a peak, not a sum
    assert covered == pytest.approx(10.0)


def test_reentrant_calls_fold_into_the_outer_span():
    recorder = layers.SpanRecorder("t")

    def snapshot():
        return 1

    wrapped_snapshot = recorder.wrap(snapshot, "query")

    def verdict():
        return wrapped_snapshot() + 1

    assert recorder.wrap(verdict, "query")() == 2
    assert [s[2] for s in recorder.spans] == ["query"]


def test_uninstall_restores_every_binding():
    from repro import mrc, system
    from repro.serve.pipeline import TenantPipeline

    before = (system.simulate, mrc.compute_mrc, TenantPipeline.feed)
    uninstall = layers.install(layers.SpanRecorder("t"))
    assert system.simulate is not before[0]
    uninstall()
    assert (system.simulate, mrc.compute_mrc, TenantPipeline.feed) == before
