"""Smoke tests of the benchmark harness on tiny corpora.

They check that every workload runs, untraced and traced, and that each
result line names every metric BENCHMARK.json lists, with its unit.
Nothing here asserts anything about timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "0.2", "--rows", "240"]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


def _units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def _check_result_line(line: str) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    return result


def test_every_workload_reports_every_end_to_end_metric():
    proc = _run("--workload", "all", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr
    result = _check_result_line(proc.stdout.strip().splitlines()[-1])
    expected = {
        f"{w}/{name}": unit for w in WORKLOADS for name, unit in _units("end_to_end").items()
    }
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--trace", "1", *TINY)
    assert proc.returncode == 0, proc.stderr
    result = _check_result_line(proc.stdout.strip().splitlines()[-1])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")


def _session_of(stat_path: Path) -> int | None:
    """Session id from /proc/<pid>/stat; None if the process is gone."""
    try:
        fields = stat_path.read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[3])  # state, ppid, pgrp, session


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
def test_a_run_leaves_no_process_behind():
    # in its own session, so every process it starts, however started, is found
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOADS[0], "--trace", "0",
         *TINY],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    _, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    left = [p.name for p in Path("/proc").glob("[0-9]*") if _session_of(p / "stat") == proc.pid]
    assert left == []


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_gives_a_byte_identical_corpus(tmp_path):
    args = [sys.executable, str(BENCH / "corpus_gen.py"), "--rows", "300"]
    paths = []
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        paths.append(tmp_path / f"{name}.csv")
        subprocess.run([*args, "--seed", seed, "--out", str(paths[-1])], check=True, timeout=60)
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c


def test_missing_trace_target_is_reported_absent(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tracing
    finally:
        del sys.path[:2]
    monkeypatch.setattr(
        tracing, "TARGETS", ("sentinet.layers:GruLayer.forward", "sentinet.gone:fn")
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["layers.GruLayer.forward", "gone.fn"]
    phases = ("ingest", "setup", "train", "load", "evaluate", "predict")
    values = tracing.span_metrics(tracer, phases)
    assert set(values) == set(tracing.SPAN_METRICS)
    assert all(value == 0.0 for value in values.values())
