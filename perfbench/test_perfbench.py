"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7, small=True) == workloads.generate(name, 7, small=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_workload_runs_clean(name):
    report, result = run.run_benchmark(name, seed=3, seconds=0, trace=False, small=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * len(report["ops"])
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    _, result = run.run_benchmark(name, seed=3, seconds=0, trace=True, small=True)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER


def test_layer_attribution_on_small_tables():
    ops = workloads.generate("tables", 5, small=True)
    m = run.measure(ops, run.expected_values(ops), seconds=0, trace=True)
    layer = m["traced"][0]["per_layer"]
    assert layer["cyclotomic.self_s"] == 0 and layer["census.self_s"] == 0
    assert layer["recursion.kernel_calls"] > 0 and layer["polylab.samples"] > 0
    assert layer["fusion.mat_vec_products"] > 0


def test_corrupted_expected_value_fails_the_run():
    ops = workloads.generate("cyclotomic", 1, small=True)
    expected = run.expected_values(ops)
    expected[-1] = "2"  # a norm of a unit that is not 1
    m = run.measure(ops, expected, seconds=0, trace=False)
    assert m["failed"] == run.MIN_PASSES and m["attempted"] == run.MIN_PASSES * len(ops)
    assert m["mismatches"][0]["want"] == "2"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
