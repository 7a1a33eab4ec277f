"""Tests for the perf-regression gate (``benchmarks/check_perf_regression.py``).

The gate groups each trajectory file into series by configuration and
compares the newest records of a series against its first.  Two legs
that share ``(p, k)`` but differ in ``m`` must be separate series: if
they were one, the larger leg's baseline and window maximum would hide
any regression in the smaller one.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

GATE_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "check_perf_regression.py"
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def _leg(m: int, auto: float) -> dict:
    return {"p": 4, "k": 4, "m": m, "n": 4 * m, "speedup": {"auto": auto}}


def _check(gate, path: Path) -> list[str]:
    return gate.check_file(
        path, gate.CHECKS["BENCH_network_backends.json"],
        best_of=3, threshold=0.8,
    )


def test_legs_with_equal_p_k_and_different_m_are_gated_separately(tmp_path):
    gate = _load_gate()
    # The m=2 leg holds its 3.3x; the m=12 leg falls from 1.2x to 0.5x.
    # Keyed on (p, k) alone, the newest window would still hold a 3.3x
    # m=2 record and the drop would pass unseen.
    path = _write_jsonl(tmp_path / "BENCH_network_backends.json", [
        _leg(2, 3.3), _leg(12, 1.2), _leg(12, 0.5), _leg(2, 3.3),
        _leg(12, 0.5), _leg(12, 0.5),
    ])
    failures = _check(gate, path)
    assert len(failures) == 1
    assert "12" in failures[0] and "speedup[auto]" in failures[0]


def test_each_leg_is_compared_with_its_own_baseline(tmp_path, capsys):
    gate = _load_gate()
    path = _write_jsonl(tmp_path / "BENCH_network_backends.json", [
        _leg(2, 3.3), _leg(12, 1.2), _leg(12, 1.1),
    ])
    assert _check(gate, path) == []
    out = capsys.readouterr().out
    assert "p,k,m,n=(4, 4, 2, 8)" in out
    assert "p,k,m,n=(4, 4, 12, 48) speedup[auto]: baseline 1.20" in out


def test_a_failing_session_record_fails_the_check(tmp_path):
    """Fresh runs append to the untracked session file, which the gate
    reads after the committed trajectory: a drop that exists only there
    must still fail the check."""
    gate = _load_gate()
    committed = _write_jsonl(
        tmp_path / "BENCH_network_backends.json", [_leg(2, 3.3)]
    )
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    session = _write_jsonl(
        session_dir / "BENCH_network_backends.json", [_leg(2, 1.0)]
    )
    extract = gate.CHECKS["BENCH_network_backends.json"]
    assert gate.check_file(
        committed, extract, best_of=1, threshold=0.8
    ) == []
    failures = gate.check_file(
        committed, extract, best_of=1, threshold=0.8, session=session
    )
    assert len(failures) == 1 and "speedup[auto]" in failures[0]
