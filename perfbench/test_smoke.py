"""Toy-size runs of every workload in both modes: each must exit 0, check
its outputs, and emit every metric BENCHMARK.json declares.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted(workload, trace):
    result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_uncovered_work_fails_the_traced_run(monkeypatch):
    """With only the per-input wrapper timed, all the work is its self time,
    which is not layer coverage: the traced run must fail."""
    import run
    import tracing

    wrapper_only = tuple(s for s in tracing.SPAN_SITES if s[0] in tracing.WRAPPER_SPANS)
    monkeypatch.setattr(tracing, "SPAN_SITES", wrapper_only)
    argv = ["--workload", "small-batch", "--seed", "0", "--seconds", "0.1",
            "--trace", "1", "--smoke"]
    assert run.main(argv) == 1


def test_setup_fails_without_the_program():
    """In a directory holding only the benchmark, the run must fail and
    print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    for f in HERE.iterdir():
        if f.is_file():
            (bench / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heavy-d4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
