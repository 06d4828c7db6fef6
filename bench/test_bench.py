"""The benchmark's own tests: one batch of every workload (``--seconds 0``
runs exactly one), and a deliberately corrupted check.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def assert_metrics(lines, spec):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_batch_prints_every_end_to_end_metric(workload):
    code, lines = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", "0")
    result = assert_metrics(lines, SPEC["end_to_end"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_traced_batch_prints_every_per_layer_metric():
    code, lines = bench("--workload", "embed_search", "--seed", "7",
                        "--seconds", "0", "--trace", "1")
    result = assert_metrics(lines, SPEC["per_layer"])
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert metrics["embeddings.search_embedding.calls"]["value"] > 0
    assert metrics["embeddings.patches_per_search"]["value"] > 0
    path = os.path.join(HERE, "out", "trace-embed_search-seed7.json")
    with open(path) as f:
        trace = json.load(f)
    assert trace["spans"] and trace["cache_snapshots"]


def test_corrupted_check_fails_the_run():
    code, lines = bench("--workload", "rigidity", "--seed", "7", "--seconds", "0",
                        "--trace", "0", "--corrupt-check")
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", "rigidity", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tail_percentile_leaves_ten_items_beyond():
    assert run.tail_percentile(51) == 80
    assert run.tail_percentile(670) == 98
    assert run.tail_percentile(10) == 100       # too few items: the slowest
    assert run.tail_percentile(20) == 100
    assert run.tail_percentile(21) == 52
    for n in (21, 51, 232, 670):
        q = run.tail_percentile(n)
        values = list(range(n))
        assert n - 1 - run.percentile(values, q) >= 10
