#!/usr/bin/env python
"""Black-box smoke test for ``python -m repro backends`` (CI CLI job).

Runs the real CLI as a subprocess — both renderings — and checks the
operational contract:

1. the human table prints a non-empty grid with one column per backend
   plus the ``auto picks`` column;
2. ``--json`` parses, covers the full (k, m) grid, and has no empty
   rows: every grid point carries an entry for every backend and at
   least one available backend;
3. the auto-tuner's choice at every grid point is a defined backend
   that is actually available for that shape (never a dash);
4. unavailable entries always say why.

Run from the repo root:

    PYTHONPATH=src python scripts/backends_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.sort.backends import BACKENDS  # noqa: E402


def run_cli(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "backends", *args],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (
        f"repro backends {' '.join(args)} -> rc={proc.returncode}\n"
        f"{proc.stderr}"
    )
    return proc.stdout


def check_table(text: str) -> int:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines and "crossover" in lines[0], lines[:1]
    header = lines[1].split()
    for col in ("k", "m", "n", *BACKENDS, "auto"):
        assert col in header, f"missing column {col!r} in {header}"
    body = lines[3:]  # title, header, rule
    assert body, "table has no data rows"
    for row in body:
        choice = row.split()[-1]
        assert choice in BACKENDS, f"auto picked {choice!r} in {row!r}"
    return len(body)


def check_json(text: str) -> int:
    rows = json.loads(text)
    assert isinstance(rows, list) and rows, "no crossover rows"
    for row in rows:
        point = (row["k"], row["m"])
        assert row["n"] == row["k"] * row["m"], row
        backends = row["backends"]
        assert set(backends) == set(BACKENDS), (point, sorted(backends))
        available = [b for b, e in backends.items() if e["available"]]
        assert available, f"empty crossover row at {point}"
        choice = row["choice"]
        assert choice in BACKENDS, (point, choice)
        assert choice in available, (
            f"auto picked unavailable {choice!r} at {point}"
        )
        for backend, entry in backends.items():
            if entry["available"]:
                assert entry["cycles"] > 0 and entry["messages"] > 0, (
                    point, backend, entry,
                )
            else:
                assert entry["reason"], (point, backend)
    return len(rows)


def main() -> int:
    table_rows = check_table(run_cli())
    print(f"[smoke] table renders: {table_rows} grid rows")
    json_rows = check_json(run_cli("--json"))
    assert json_rows == table_rows, (json_rows, table_rows)
    print(f"[smoke] --json agrees: {json_rows} rows, every auto choice "
          "defined and available — backends smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
