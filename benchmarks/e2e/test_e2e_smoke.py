"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

One quick traced seed-0 run of every workload (well under a minute),
then checks of its result schema, its digests against ``reference.json``,
the worker-side attribution of the parallel workload and the trace
coverage; plus ``compare`` and the refusal to run without the platform.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = subprocess.run(
        RUN + ["run", "--quick", "--trace", "--seed", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, json.loads(out.read_text()), proc.stdout


def test_result_line_schema(quick):
    _, _, stdout = quick
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {f"{w}/{m['name']}": m["unit"]
                for w in WORKLOADS for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_listed_per_layer_metrics_match_the_catalogue():
    from benchmarks.e2e.attribution import PER_LAYER
    catalogue = {metric: unit for metric, unit, _ in PER_LAYER}
    for m in SPEC["per_layer"]:
        assert catalogue.get(m["name"]) == m["unit"], m


def test_every_metric_present_with_unit(quick):
    _, report, stdout = quick
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, result in report["workloads"].items():
        for m in SPEC["end_to_end"]:
            entry = result["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert entry["n"] >= 1 and entry["median"] > 0, (name, m)
            assert f"{m['name']}  " in stdout
        names = {m["name"] for m in SPEC["per_layer"]}
        assert names <= set(result["per_layer"])


def test_seed0_quick_digests_match_reference(quick):
    _, report, _ = quick
    reference = json.loads((HERE / "reference.json").read_text())["quick"]
    for name, result in report["workloads"].items():
        assert result["correct"], (name, result["checks"])
        assert result["digest"] == reference[name]["0"], name
        sessions = result["sessions"] + [result["traced"]]
        assert all(rep["digest"] == result["digest"]
                   for session in sessions for rep in session["reps"])


def test_parallel_records_are_attributed_across_workers(quick):
    _, report, _ = quick
    result = report["workloads"]["cnn-parallel-resilience"]
    layer = result["per_layer"]
    (rep,) = result["traced"]["reps"]
    assert layer["campaign.records"] == rep["completed"] > 0
    assert layer["exec.worker_busy_s"] > 0
    assert 0 < layer["exec.worker_util"] <= 1


def test_self_times_cover_the_traced_wall(quick):
    _, report, _ = quick
    for name, result in report["workloads"].items():
        assert result["per_layer"]["trace.coverage"] >= 0.9, name


def test_compare_against_itself_is_clean(quick):
    out, _, _ = quick
    proc = subprocess.run(RUN + ["compare", str(out), str(out)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout and "unresolved" not in proc.stdout


def test_segments_of_other_processes_are_not_leaks():
    from repro.exec.shmcache import SEGMENT_PREFIX
    shm = Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("no /dev/shm")
    foreign = shm / f"{SEGMENT_PREFIX}smoke-test-foreign"
    foreign.write_bytes(bytes(64))
    try:
        proc = subprocess.run(
            RUN + ["run", "--quick", "--workload", "cnn-parallel-resilience",
                   "--seed", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert foreign.exists()
    finally:
        foreign.unlink(missing_ok=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0


def test_refuses_to_run_without_the_platform(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "run", "--workload",
         WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
