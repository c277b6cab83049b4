"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

Run from the repository root with ``python3 -m pytest bench -q``.  Every
workload runs at smoke size with and without tracing, which exercises every
job, check and metric in well under a minute.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import inputs  # noqa: E402  (needs the package and the test factories on the path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_outputs_and_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], json.loads(details_line)["details"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    details = json.loads(details_line)["details"]
    assert len(details["output_sha256"]) == 64 and details["inputs"]


def test_same_seed_writes_the_same_inputs(tmp_path):
    for workload in inputs.MAKERS:
        first, second = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        first.mkdir()
        second.mkdir()
        inputs.make_pool(workload, 7, first, smoke=True)
        inputs.make_pool(workload, 7, second, smoke=True)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            if name.endswith(".npz"):  # the zip container stamps write times
                pairs = zip(inputs.load_lps(first / name), inputs.load_lps(second / name))
                assert all(np.array_equal(a, b) for x, y in pairs for a, b in zip(x, y))
            else:
                assert (first / name).read_bytes() == (second / name).read_bytes()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "random-lp", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
