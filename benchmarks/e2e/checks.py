"""Output checks that do not depend on the program under test.

Each check recomputes the answer from the benchmark's own copy of the
input and returns ``None`` when the program's output matches, else a
one-line description of the mismatch.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from workloads import even_parts


def _flat(parts: dict[int, Any]) -> list:
    return [v for pid in sorted(parts) for v in parts[pid]]


def fingerprint(value: Any) -> str:
    """The service's published result fingerprint: the first 16 hex
    digits of the SHA-256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def check_sort(parts: dict[int, list], output: dict[int, Any]) -> Optional[str]:
    """Concatenated output == the input sorted descending, and every
    processor keeps its input cardinality."""
    expected = sorted(_flat(parts), reverse=True)
    got = _flat(output)
    if got != expected:
        if len(got) != len(expected):
            return f"output has {len(got)} values, input {len(expected)}"
        at = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        return (
            f"output position {at} holds {got[at]!r}, "
            f"descending sort has {expected[at]!r}"
        )
    sizes_in = {pid: len(parts[pid]) for pid in parts}
    sizes_out = {pid: len(output[pid]) for pid in output}
    if sizes_in != sizes_out:
        return f"segment sizes {sizes_out} differ from input {sizes_in}"
    return None


def rank_value(parts: dict[int, list], d: int) -> Any:
    """The element of rank ``d`` (1 = largest)."""
    return sorted(_flat(parts), reverse=True)[d - 1]


def check_select(parts: dict[int, list], d: int, value: Any) -> Optional[str]:
    """The selected value == the benchmark's own rank-``d`` element."""
    expected = rank_value(parts, d)
    if value != expected:
        return f"rank-{d} select returned {value!r}, expected {expected!r}"
    return None


def expected_fingerprint(spec: dict, lane: int = 0) -> str:
    """Fingerprint a correct service answers for lane ``lane`` of a job."""
    parts = even_parts(spec["n"], spec["p"], spec["seed"] + lane)
    if spec["algorithm"] == "sort":
        ordered = sorted(_flat(parts), reverse=True)
        layout, at = [], 0
        for pid in sorted(parts):
            size = len(parts[pid])
            layout.append((pid, tuple(ordered[at:at + size])))
            at += size
        return fingerprint(layout)
    return fingerprint(rank_value(parts, (spec["n"] + 1) // 2))


def check_job(spec: dict, result: dict, expected: Optional[list] = None) -> Optional[str]:
    """Every lane fingerprint of a finished job matches the benchmark's.

    ``expected`` (one fingerprint per lane) skips the recomputation when
    the caller already holds it.
    """
    lanes = result["lanes"] if spec.get("batch", 1) > 1 else [result]
    if len(lanes) != spec.get("batch", 1):
        return f"job returned {len(lanes)} lanes, asked for {spec.get('batch', 1)}"
    for b, lane in enumerate(lanes):
        want = expected[b] if expected else expected_fingerprint(spec, b)
        if lane.get("fingerprint") != want:
            return (
                f"lane {b} (seed {spec['seed'] + b}) fingerprint "
                f"{lane.get('fingerprint')!r}, expected {want!r}"
            )
    return None
