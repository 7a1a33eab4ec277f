"""Sequential selection by rank — the paper's [Blum73] stand-in.

Each filtering phase needs every processor to find the median of its
local candidates "using an efficient sequential selection algorithm
([Blum73], for example)".  Local computation is free in the MCB cost
model, so any correct selection works, and :func:`select_kth_largest`
sorts (DESIGN.md §2's substitution): on the sizes the network hands a
processor, a C sort beats a linear-time selection written in Python.

Rank convention matches the paper: rank 1 selects the *largest* element.
"""

from __future__ import annotations

from typing import Any, Sequence


def select_kth_largest(items: Sequence[Any], d: int) -> Any:
    """The d-th largest element (1-based), by sorting."""
    n = len(items)
    if not 1 <= d <= n:
        raise ValueError(f"rank d={d} out of range 1..{n}")
    return sorted(items, reverse=True)[d - 1]


def local_median(items: Sequence[Any]) -> Any:
    """The paper's ``med_i``: the ``ceil(m_i/2)``-th largest local element.

    With this convention at least half the local elements are >= the
    median and at least half are <= it — the two facts the Figure 2
    purge argument uses.
    """
    if not items:
        raise ValueError("median of an empty candidate set")
    return select_kth_largest(items, (len(items) + 1) // 2)
