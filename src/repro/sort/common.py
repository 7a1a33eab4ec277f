"""Shared helpers for the distributed sorting algorithms.

Elements travel the channels as message fields.  A plain scalar is one
field; a tagged triple ``(value, pid, idx)`` (the §3 distinctness device)
is three fields — still ``O(log beta)`` bits.  ``pack_elem`` /
``unpack_elem`` (defined in :mod:`repro.mcb.message`, re-exported here)
convert between the two forms.

``DUMMY`` is the padding element (§5.2/§7.2: columns are "padded with
dummy elements").  Sorting order is descending throughout, so the dummy
is smaller than every real element and padding accumulates at the global
tail of the sorted list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from ..mcb.message import pack_elem, unpack_elem


@dataclass
class SortResult:
    """Output of a distributed sort: final per-processor contents."""

    output: dict[int, tuple]

    def as_lists(self) -> dict[int, list]:
        """The output as mutable lists (convenience for callers)."""
        return {pid: list(v) for pid, v in self.output.items()}


#: Scalar padding element: strictly smaller than any real element.
DUMMY = -math.inf


def dummy_like(sample: Any, seq: int = 0) -> Any:
    """A padding element comparable with (and below) ``sample``'s type.

    For scalar elements this is ``-inf``; for tuple elements it is a
    tuple of the same arity whose first two components are ``-inf`` (so
    it also sorts below any *real* element whose first component happens
    to be ``-inf``, e.g. the dummy median pairs of the selection
    algorithm) and whose last component is ``seq`` for distinctness.
    Real elements must be finite.
    """
    if isinstance(sample, tuple):
        base = [-math.inf] * len(sample)
        if len(base) >= 3:
            base[-1] = seq
        return tuple(base)
    return DUMMY


def is_dummy(e: Any) -> bool:
    """True for padding elements produced by :func:`dummy_like`."""
    if isinstance(e, tuple):
        return len(e) >= 2 and e[0] == -math.inf and e[1] == -math.inf
    return e == DUMMY


def neg_elem(e: Any) -> Any:
    """Order-inverting involution on elements.

    Negates a scalar, or a numeric tuple elementwise (which inverts
    lexicographic order).  Running a descending sort on negated elements
    yields an ascending sort — used by the virtual-column Columnsort to
    sort column 1 ascending with Merge-Sort while keeping O(1) memory.
    """
    return tuple(-x for x in e) if isinstance(e, tuple) else -e


def segment_owner(global_pos: int, boundaries: Sequence[int]) -> int:
    """Which processor owns sorted position ``global_pos`` (0-based).

    ``boundaries`` are the partial sums ``[0, n_1^+, ..., n_p^+]``; the
    owner of positions ``[n^+_{i-1}, n^+_i)`` is ``P_i``.  Returns the
    1-based pid.
    """
    lo, hi = 1, len(boundaries) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if global_pos < boundaries[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def descending(values: Sequence[Any]) -> list[Any]:
    """Sort a local list in the paper's (descending) order."""
    return sorted(values, reverse=True)
