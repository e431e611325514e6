"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, emits every metric BENCHMARK.json names, with its unit.

    python3 -m pytest bench/test_smoke.py

Scratch files go under .bench_work/ in the checkout.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work(request):
    path = ROOT / ".bench_work" / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_tiny(name: str, trace: bool, work: Path) -> harness.RunResult:
    """The workload at a size that runs in seconds, on at most 2 corpora."""
    w = harness.WORKLOADS[name]
    w = replace(w, epochs=1, train_per_class=4, other_per_class=2, setup_reps=2, eval_reps=2,
                corpora=min(w.corpora, 2))
    return harness.run(w, seed=3, seconds=1.0, trace=trace, work=work / "run",
                       spans_path=work / "spans.jsonl" if trace else None)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace, work):
    result = run_tiny(name, trace, work)
    assert result.problems == [] and result.failed == 0 and result.attempted > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == wanted
    assert all(math.isfinite(value) for value, _ in result.metrics.values())
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
        assert result.record["steps_timed"] > 0  # train time comes from step marks
        assert result.record["probes"] > 0


def test_losses_are_means_over_the_corpora(work):
    result = run_tiny("lstm-classify", False, work)
    record, m = result.record, {k: v for k, (v, _) in result.metrics.items()}
    assert record["corpus_seeds"] == [6, 7]  # seed 3, 2 corpora
    assert record["rounds"] >= 3  # the first corpus is trained twice and compared
    assert m["eval_loss"] == pytest.approx(sum(record["eval_loss"]) / 2)
    assert m["final_train_loss"] == pytest.approx(sum(record["final_train_loss"]) / 2)


def test_traced_counts_follow_the_cost_model(work):
    result = run_tiny("qlstm-classify", True, work / "q")
    m = {k: v for k, (v, _) in result.metrics.items()}
    steps, per_grad = harness.WORKLOADS["qlstm-classify"].max_len, result.record["probe"]["per_grad"]
    assert per_grad == 65
    assert m["vqc.evals_per_sample"] == pytest.approx(
        6 * steps + per_grad * m["qlstm.grad_calls_per_step"] * steps)
    assert (work / "q" / "spans.jsonl").is_file()

    lstm = {k: v for k, (v, _) in run_tiny("lstm-classify", True, work / "l").metrics.items()}
    assert lstm["vqc.forward.calls"] == lstm["vqc.grad.calls"] == lstm["qsim.calls"] == 0
    assert lstm["neural.adam.calls"] > 0


def test_speed_probe_reads_stretches_at_reference_speed():
    probe = harness.SpeedProbe()
    ref = probe.REF_S
    # a probe at reference speed at t=0, one at half speed at t=10
    probe.starts, probe.ends, probe.speeds = [0.0, 10.0], [ref, 10.0 + 2 * ref], [1.0, 0.5]
    # 1 s at full speed, the second probe left out, then 1 s at half speed
    assert probe.work_s(9.0, 11.0 + 2 * ref) == pytest.approx(1.5)
    assert probe.work_s(0.5, 1.5) == pytest.approx(1.0)


def test_spec_names_workloads_and_interaction_map():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)
    interaction = json.loads((BENCH / "interaction_map.json").read_text())
    assert list(interaction) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in interaction.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(harness.WORKLOADS)


def test_without_program_sources_no_result(work):
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lstm-classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
