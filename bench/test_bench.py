"""Self-tests of the benchmark: tiny runs of every workload on two seeds.

    python3 -m pytest -q bench
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

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)  # the second seed is held out from tuning


def run_bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    return result


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload, seed):
    result = last_json(run_bench(workload, seed, trace=0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_reproduces_btsr(workload):
    done = run_bench(workload, 2, trace=1)
    result = last_json(done)
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    meta = json.loads(done.stdout.splitlines()[-2].removeprefix("meta "))
    assert meta["traced_btsr_digest"] == meta["btsr_digest"]
    assert (ROOT / meta["spans_file"]).stat().st_size > 0


def test_untraced_and_traced_runs_score_the_same_ops():
    untraced = json.loads(run_bench("wav_decode", 1, trace=0).stdout.splitlines()[-2][5:])
    traced = json.loads(run_bench("wav_decode", 1, trace=1).stdout.splitlines()[-2][5:])
    assert untraced["btsr_digest"] == traced["btsr_digest"]


def test_op_streams_depend_on_the_seed_alone():
    def head(workload, seed, n=40):
        stream = workloads.op_stream(workload, seed)
        return [next(stream) for _ in range(n)]

    for workload in workloads.WORKLOADS:
        assert head(workload, 5) == head(workload, 5)
        assert head(workload, 5) != head(workload, 6)


def test_every_block_holds_the_same_op_mix():
    def kind(op):
        if op.get("axis") == "bit_rate_bps":  # scheme and sync are drawn per op
            return ("bit_rate", op["value"], op["sample_rate"])
        return (op["scheme"], op.get("sync"), op.get("noise"), op["sample_rate"])

    for workload in workloads.WORKLOADS:
        blocks = {}
        for op in workloads.op_stream(workload, 9):
            if op["block"] == 3:
                break
            blocks.setdefault(op["block"], []).append(kind(op))
        assert sorted(blocks[0]) == sorted(blocks[1]) == sorted(blocks[2])


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["inner", 5.0, 6.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    assert dict(tracing.self_ms(spans)) == {"outer": 6000.0, "inner": 3000.0, "leaf": 1000.0}


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "bare-checkout"  # holds only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "bench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench("psk_trials", 1, trace=0, cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
