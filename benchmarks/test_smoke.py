"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python -m pytest benchmarks/test_smoke.py -q

It is not part of the repository's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
COMMANDS = ["simulate"] + [argv[0] for argv in run.pipeline_argvs(run.WORKLOADS["hot-items"], run.Files(HERE))]


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_lists_the_workloads_and_well_formed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for metric in SPEC[group]:
            assert metric["better"] in ("higher", "lower")
            assert metric["unit"]
    assert {f"cli.{c}.{m}" for c in COMMANDS for m in ("wall_s", "cpu_s", "peak_rss_mb")} <= {
        m["name"] for m in SPEC["per_layer"]
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    if trace:
        doc = json.loads((run.WORK / workload / "trace.json").read_text())
        for repetition in doc["repetitions"]:
            spans = repetition["spans"]
            assert tracing.check_nesting(spans) == []
            roots = [s["name"] for s in spans if s["parent"] is None]
            assert roots == [f"cli.{c}" for c in COMMANDS]


def test_tracer_self_time_and_tallies():
    tracer = tracing.Tracer()
    tracer.clock = iter([0.0, 1.0, 2.0, 10.0]).__next__
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("inner"):  # 1 .. 2
            pass
        tracer.tally("row", 3.0, 5.0)
        tracer.tally("row", 6.0, 7.0)
    spans = tracer.to_doc()["spans"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["row"]["calls"] == 2 and by_name["row"]["duration_s"] == 3.0
    assert by_name["inner"]["parent"] == by_name["row"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["self_s"] == 10.0 - 1.0 - 3.0
    assert tracing.check_nesting(spans) == []
    by_name["inner"]["end"] = 11.0
    assert tracing.check_nesting(spans)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "hot-items", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
