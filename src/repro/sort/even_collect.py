"""Columnsort on MCB(p, k), p > k, via collection (§5.2, phases 0 and 10).

"A simple approach is to augment the algorithm with a preprocessing phase
and a postprocessing phase...  In phase 0, all elements are collected into
k processors.  Phases 1-9 then proceed as before, except that only k of
the processors are active.  In phase 10, the sorted elements are
redistributed to all the processors."

* Phase 0 — the ``p`` processors are split into ``k`` equal groups of
  ``p/k``; each group's *representative* (its highest-numbered member)
  collects the group's elements over the group channel ``C_j``, one
  member after another (members await their turn by counting cycles).
  Columns are then padded with dummy elements to a common multiple of
  ``k``.
* Phases 1–9 — the basic §5.2 algorithm among the representatives.
* Phase 10 — representatives broadcast their sorted columns; because the
  padding can misalign processor segments with column boundaries, each
  element is broadcast **twice** (two full passes) so that a processor
  whose segment spans two columns can read one column per pass without
  missing a message.  Dummies are never broadcast.

With the groups fixed in advance this is §7.2's stages 3–5 on groups of
``n/k`` elements, so the sort runs :func:`repro.sort.uneven.group_program`
with representatives ``g, 2g, ..., p`` and partial sums ``0, n/p, ...,
n``: phases 0 and 10 are the oblivious plans of
:func:`~repro.sort.uneven.group_plans`, each run as one
:class:`~repro.mcb.program.RunPlan` op.

Cost: ``O(n)`` messages and ``O(n/k)`` cycles — still optimal — at the
price of ``Theta(n/k)`` auxiliary memory in the representatives (tracked
via :meth:`ProcContext.aux_acquire`; the §6.1 virtual-column variant
removes it).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..mcb.network import MCBNetwork
from ..mcb.program import ProcContext
from .even_pk import SortResult
from .uneven import group_plans, group_program


def padded_column_length(n: int, k: int) -> int:
    """Column length after phase-0 padding: ``n/k`` rounded up to a
    multiple of ``k`` (and at least ``k(k-1)``, which holds whenever
    ``n >= k^2(k-1)``)."""
    m0 = math.ceil(n / k)
    return math.ceil(m0 / k) * k


def sort_even_collect(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "columnsort-collect",
) -> SortResult:
    """Sort an even distribution on MCB(p, k) with ``k | p`` (§5.2).

    Requires ``n >= k^2(k-1)`` (use :func:`repro.sort.dispatch.mcb_sort`
    for automatic column-count fallback below that).
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if p % k != 0:
        raise ValueError(f"this variant assumes k | p, got p={p}, k={k}")
    lengths = {len(v) for v in parts.values()}
    if len(lengths) != 1:
        raise ValueError(f"distribution is not even: lengths {sorted(lengths)}")
    npp = lengths.pop()
    n = p * npp
    if n < k * k * (k - 1):
        raise ValueError(
            f"n={n} < k^2(k-1)={k * k * (k - 1)}: use fewer columns "
            "(see repro.sort.dispatch)"
        )
    g = p // k
    m_pad = padded_column_length(n, k)
    reps = list(range(g, p + 1, g))
    bounds = [i * npp for i in range(p + 1)]
    plans = group_plans(reps, bounds, m_pad, 2)

    def program(ctx: ProcContext):
        return (yield from group_program(
            ctx, parts[ctx.pid], reps, bounds, m_pad, (g - 1) * npp, plans
        ))

    results = net.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})
