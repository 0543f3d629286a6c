"""Tests of the benchmark harness itself; run with ``pytest bench -q``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload once at smoke scale, plus its traced pass."""
    out = tmp_path_factory.mktemp("out")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "smoke",
         "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    records = {}
    for path in out.glob("BENCH_*.jsonl"):
        record = json.loads(path.read_text().splitlines()[-1])
        records[record["workload"]] = record
    return proc, out, records


def test_every_workload_finishes_with_no_failed_operation(smoke):
    proc, _, records = smoke
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(records) == sorted(w["name"] for w in SPEC["workloads"])
    for record in records.values():
        assert record["ops_attempted"] > 0
        assert record["ops_failed"] == 0, record["errors"]


def test_traced_and_untraced_passes_give_the_same_digest(smoke):
    _, _, records = smoke
    for record in records.values():
        # One digest means every repeat and the traced pass agreed.
        assert isinstance(record["digest"], str), record["digest"]
        assert record["layers"] is not None


def test_layer_self_times_plus_driver_other_equal_traced_wall(smoke):
    _, out, _ = smoke
    for path in out.glob("trace_*.json"):
        trace = json.loads(path.read_text())
        total = sum(a["self_s"] for a in trace["aggregates"])
        assert total == pytest.approx(trace["wall_s"], rel=0.01), path.name


def test_per_layer_metrics_are_the_ones_benchmark_json_declares(smoke):
    _, _, records = smoke
    declared = {m["name"] for m in SPEC["per_layer"]}
    for record in records.values():
        assert set(record["layers"]) == declared


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chaos",
         "--seed", "1", "--seconds", "1", "--trace", "0",
         "--src", str(tmp_path)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("parent, change, better, expected", [
    # Every pair wins and the gain dwarfs the parent's spread.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0],
     [8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.1, 8.0, 7.9, 8.0], "lower", "improved"),
    ([100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 101.0, 100.0, 99.0, 100.0],
     [130.0, 131.0, 129.0, 130.0, 132.0, 128.0, 131.0, 130.0, 129.0, 130.0],
     "higher", "improved"),
    # 30 % slower, far beyond a 15 % bound.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0],
     [13.0, 13.1, 12.9, 13.0, 13.2, 12.8, 13.1, 13.0, 12.9, 13.0], "lower",
     "regressed"),
    # Same distribution, small noise: no change.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0],
     [10.1, 10.0, 10.0, 9.9, 10.1, 9.9, 10.0, 10.1, 10.0, 9.9], "lower",
     "unchanged"),
    # Runs spread wider than the bound and the sides overlap.
    ([6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0],
     [9.0, 13.0, 6.0, 15.0, 10.0, 8.0, 12.0, 7.0, 14.0, 11.0], "lower",
     "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert _load_run().verdict(parent, change, better, 0.15) == expected


def _write_records(out, workload, digest, values, failed=0):
    out.mkdir()
    with open(out / f"BENCH_{workload}.jsonl", "w") as f:
        for seed, value in enumerate(values):
            f.write(json.dumps({
                "workload": workload, "seed": seed, "digest": digest,
                "ops_attempted": 10, "ops_failed": failed,
                "end_to_end": {m["name"]: {"value": value}
                               for m in SPEC["end_to_end"]}}) + "\n")


def test_compare_fails_on_a_digest_mismatch(tmp_path, capsys):
    values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    _write_records(tmp_path / "a", "chaos", "x", values)
    _write_records(tmp_path / "b", "chaos", "y", values)
    assert _load_run().main(["compare", str(tmp_path / "a"),
                             str(tmp_path / "b")]) == 1
    assert "digest differs" in capsys.readouterr().out


def test_compare_passes_identical_sides(tmp_path, capsys):
    values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    _write_records(tmp_path / "a", "chaos", "x", values)
    _write_records(tmp_path / "b", "chaos", "x", values)
    assert _load_run().main(["compare", str(tmp_path / "a"),
                             str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out and "improved" not in out


def test_compare_fails_when_failed_operations_rise(tmp_path, capsys):
    values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    _write_records(tmp_path / "a", "chaos", "x", values)
    _write_records(tmp_path / "b", "chaos", "x", values, failed=1)
    assert _load_run().main(["compare", str(tmp_path / "a"),
                             str(tmp_path / "b")]) == 1
    assert "failed operations rose" in capsys.readouterr().out
