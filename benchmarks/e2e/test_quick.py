"""Smoke test: the benchmark's quick mode runs every workload end to end.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


#: Loaded at start-up by every Python process whose PYTHONPATH holds its
#: directory: makes the sim-generator virtual-sort kind (p=16) raise.
RAISING_SORT = """
try:
    import repro
except ImportError:
    repro = None
if repro is not None:
    _sort = repro.mcb_sort

    def mcb_sort(net, parts, **kwargs):
        if net.p == 16:
            raise RuntimeError("injected failure")
        return _sort(net, parts, **kwargs)

    repro.mcb_sort = mcb_sort
"""


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env=None if env is None else {**os.environ, **env},
    )


def check_run(proc, metric_specs):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in metric_specs}
    assert set(result["metrics"]) == expected
    return result


def test_quick_end_to_end(tmp_path):
    out = tmp_path / "e2e.json"
    result = check_run(bench("--quick", "--seed", "7", "--out", str(out)),
                       SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    record = json.loads(out.read_text())
    assert record["seed"] == 7
    assert "commit" in record and record["env"]["cpu_count"]
    compared = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(out),
         str(out)], capture_output=True, text=True, timeout=60)
    assert compared.returncode == 0, compared.stdout
    assert "WORSE" not in compared.stdout


def test_quick_trace(tmp_path):
    out = tmp_path / "trace.json"
    check_run(bench("--quick", "--trace", "1", "--out", str(out)),
              SPEC["per_layer"])
    for workload in WORKLOADS:
        trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        assert trace["traceEvents"]


def test_failed_queries_fail_the_run(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(RAISING_SORT)
    proc = bench("--quick", "--workload", "sim-generator",
                 "--out", str(tmp_path / "e2e.json"),
                 env={"PYTHONPATH": str(tmp_path)})
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "injected failure" in proc.stdout


def test_compare_refuses_different_queries(tmp_path):
    base = {"seed": 1, "seconds": 20.0, "quick": False, "trace": False,
            "workloads": {}}
    for key, value in (("seed", 2), ("seconds", 10.0), ("quick", True)):
        (tmp_path / "a.json").write_text(json.dumps(base))
        (tmp_path / "b.json").write_text(json.dumps({**base, key: value}))
        proc = bench("--compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"))
        assert proc.returncode == 2, key
        assert key in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "svc-cold", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
