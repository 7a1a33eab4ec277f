"""Single-channel and centralized baselines.

These are the comparison points the benchmarks use to show what the
multi-channel algorithms buy:

* :func:`gather_sort_scatter` — the most naive distributed sort: ship
  everything to ``P_1`` (paced on channel 1), sort locally, ship the
  segments back.  ``Theta(n)`` messages like Columnsort, but ``~2n``
  cycles regardless of ``k`` — no channel parallelism — and ``Theta(n)``
  memory at ``P_1``.
* The ``k = 1`` variants of Rank-Sort / Merge-Sort (the IPBAM-style
  setting of §9) live in :mod:`repro.sort.rank_sort` /
  :mod:`repro.sort.merge_sort`; the Shout-Echo selection baseline in
  :mod:`repro.baselines.shout_echo`.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import Listen, ProcContext, Sleep, emit_from
from ..sort.common import descending, pack_elem, unpack_elem
from ..sort.even_pk import SortResult


def gather_sort_scatter(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "gather-sort-scatter",
) -> SortResult:
    """Centralized sort baseline on channel 1 (any distribution).

    Costs ``2(n - n_1)`` cycles and messages plus one local sort at
    ``P_1`` holding the entire set — the memory/parallelism anti-pattern
    the paper's algorithms avoid.
    """
    p = net.p
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    counts = [len(parts[i]) for i in range(1, p + 1)]
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    n = prefix[-1]

    def program(ctx: ProcContext):
        pid = ctx.pid
        mine = list(parts[pid])
        if pid == 1:
            pool = list(mine)
            ctx.aux_acquire(n)
            if n > len(mine):
                # The senders fill every cycle of the gather window: park
                # once for the whole stream instead of resuming per cycle.
                heard = yield Listen(1, n - len(mine))
                pool.extend(unpack_elem(msg.fields) for _, msg in heard)
            pool = descending(pool)
            # Scatter every position except my own segment, back to back.
            rest = pool[counts[0]:]
            yield from emit_from(
                1, [Message("elem", *pack_elem(e)) for e in rest], 0
            )
            ctx.aux_release(n)
            return pool[: counts[0]]
        # Gather: my slot is [prefix[pid-1] - n_1, ...) after P_1's own.
        start = prefix[pid - 1] - counts[0]
        yield from emit_from(
            1, [Message("elem", *pack_elem(e)) for e in mine], start
        )
        rest = (n - counts[0]) - start - len(mine)
        if rest > 0:
            yield Sleep(rest)
        # Scatter: positions [prefix[pid-1], prefix[pid]) arrive at
        # cycles offset by my prefix (P_1 broadcasts in position order,
        # skipping its own first segment).
        lead = prefix[pid - 1] - counts[0]
        if lead > 0:
            yield Sleep(lead)
        out = []
        if mine:
            # P_1 writes one element per cycle straight through my slot.
            heard = yield Listen(1, len(mine))
            out.extend(unpack_elem(msg.fields) for _, msg in heard)
        tail = (n - counts[0]) - lead - len(mine)
        if tail > 0:
            yield Sleep(tail)
        return out

    results = net.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})
