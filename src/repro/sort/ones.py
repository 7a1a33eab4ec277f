"""Fast path: sorting exactly one element per processor.

Every filtering phase of the §8 selection algorithm sorts the ``p``
pairs ``(med_i, m_i)`` — an *even, one-element-per-processor*
distribution whose cardinalities are globally known a priori.  The
general §7.2 sorter spends two Partial-Sums passes and a formation round
re-deriving exactly that knowledge; this specialization skips all of it:

* groups are fixed blocks of ``g = ceil(p / k')`` processors (``k'`` the
  §5.2-valid column count for ``p`` elements);
* collection is paced by position within the block (member ``w`` writes
  at cycle ``w``, its partial sum ``pid - 1`` less the block's base) —
  no prefix sums needed;
* phases 1–9 of Columnsort run among the block representatives with
  dummy padding;
* redistribution is a single broadcast pass: each processor's segment is
  exactly one element, so it can never straddle two columns and the
  §5.2 "broadcast twice" rule is unnecessary.

Collection, phases 1–9 and redistribution are §7.2's stages 3–5,
:func:`repro.sort.uneven.group_columnsort`, on these fixed groups; the
collection and broadcast plans depend only on ``(p, k)`` and are cached.

Cost: ``O(p/k')`` cycles, ``O(p)`` messages — the same family as the
general path minus its ``O(p/k + log k)`` control overhead, which is
what dominates at filtering-phase sizes.  ``mcb_select`` uses this path
by default (``pair_sorter="ones"``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Sequence

from ..columnsort.matrix import max_columns_for
from ..mcb.network import MCBNetwork
from .common import SortResult
from .uneven import group_columnsort, group_plans


def sort_ones(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "sort-ones",
) -> SortResult:
    """Sort a one-element-per-processor distribution (fixed schedule).

    ``parts[i]`` must hold exactly one element; the output gives each
    processor the element of rank ``pid`` (descending).  Elements must
    be distinct.
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if any(len(v) != 1 for v in parts.values()):
        raise ValueError("sort_ones requires exactly one element everywhere")

    if p == 1:
        return SortResult(output={1: tuple(parts[1])})

    return group_columnsort(net, parts, *_blocks(p, k), phase=phase)


@lru_cache(maxsize=32)
def _blocks(p: int, k: int) -> tuple:
    """``group_columnsort``'s layout and plans for ``p`` one-element
    processors in blocks of ``g``: a pure function of ``(p, k)``, so
    every filtering round of a selection reuses one compiled pair."""
    k_used = max_columns_for(p, k)
    g = math.ceil(p / k_used)  # block size; last block may be smaller
    n_cols = math.ceil(p / g)
    m_pad = math.ceil(g / n_cols) * n_cols  # column length, n_cols | m_pad
    reps = tuple(min((j + 1) * g, p) for j in range(n_cols))
    bounds = tuple(range(p + 1))
    return reps, bounds, m_pad, g - 1, group_plans(reps, bounds, m_pad, 1)
