"""Weighted selection: the element where cumulative weight crosses a target.

A natural generalization of §8 that many distributed applications need
(weighted medians drive facility location, robust aggregation, and
quantile sketches): every element ``e`` carries a positive integer
weight ``w(e)``; ``mcb_select_weighted`` returns the unique element
``x`` such that the total weight of elements ``> x`` is below the
target ``T`` while the total weight of elements ``>= x`` reaches it.

The filtering loop is the paper's, with counts replaced by weight sums:

1. local *weighted* medians (free);
2. sort the ``(median, local weight)`` pairs (§5/§7 machinery);
3. Partial-Sums over sorted weights finds the weighted median of
   weighted medians ``med*``, which is broadcast;
4. Partial-Sums totals the weight ``>= med*``; the three §8 cases purge
   at least a quarter of the *remaining weight* per phase, so
   ``O(log(W/threshold))`` phases suffice.

Weights travel with their elements (one extra message field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, Listen, ProcContext, Sleep, emit_from
from ..prefix.mcb_partial_sums import mcb_partial_sums, mcb_total_sum
from ..sort.common import pack_elem, unpack_elem
from ..sort.ones import sort_ones


@dataclass
class WeightedSelectionResult:
    value: Any
    phases: int


def local_weighted_median(items: Sequence[tuple[Any, int]]) -> Any:
    """The largest element whose cumulative (descending) weight reaches
    half the local total."""
    total = sum(w for _, w in items)
    acc = 0
    for e, w in sorted(items, reverse=True):
        acc += w
        if 2 * acc >= total:
            return e
    raise AssertionError("non-empty weighted set must have a median")


def mcb_select_weighted(
    net: MCBNetwork,
    parts: dict[int, Sequence[tuple[Any, int]]],
    target: int,
    *,
    threshold: int | None = None,
    phase: str = "wselect",
) -> WeightedSelectionResult:
    """Select by cumulative weight on the network.

    Parameters
    ----------
    parts:
        pid -> sequence of ``(element, weight)`` pairs; elements must be
        globally distinct, weights positive integers.
    target:
        The weight rank ``T`` (``1 <= T <= total weight``); ``T =
        ceil(W/2)`` gives the weighted median.

    Returns
    -------
    WeightedSelectionResult
        The unique ``x`` with ``weight(> x) < T <= weight(>= x)``.
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    cand: dict[int, list[tuple[Any, int]]] = {
        i: list(parts[i]) for i in parts
    }
    if any(w <= 0 for v in cand.values() for _, w in v):
        raise ValueError("weights must be positive")
    total_w = sum(w for v in cand.values() for _, w in v)
    if not 1 <= target <= total_w:
        raise ValueError(f"target {target} out of range 1..{total_w}")
    m_star = threshold if threshold is not None else max(1, p // k)

    nonempty = next(v for v in cand.values() if v)
    arity = len(pack_elem(nonempty[0][0]))

    def flat_pair(i: int) -> tuple:
        if cand[i]:
            med = local_weighted_median(cand[i])
            w = sum(w for _, w in cand[i])
            return tuple(pack_elem(med)) + (0, w)
        # Finite tail, as in ``filtering.py``: an all--inf head of a
        # tuple element would satisfy ``is_dummy`` and be dropped as
        # padding by the pair sorter.
        return (-math.inf,) + (0,) * (arity - 1) + (i, 0)

    w_left = total_w
    t_left = target
    rounds = 0
    while sum(len(v) for v in cand.values()) > m_star:
        rounds += 1
        tag = f"{phase}/filter-{rounds}"
        pairs = {i: [flat_pair(i)] for i in cand}
        sorted_pairs = sort_ones(net, pairs, phase=f"{tag}/sort").output
        weights_sorted = {i: sorted_pairs[i][0][-1] for i in sorted_pairs}
        sums = mcb_partial_sums(net, weights_sorted, phase=f"{tag}/prefix")
        half = (w_left + 1) // 2

        def announce(ctx: ProcContext):
            s = sums[ctx.pid]
            if s.prev < half <= s.incl:
                fields = sorted_pairs[ctx.pid][0][:-2]
                yield CycleOp(write=1, payload=Message("med", *fields))
                return unpack_elem(fields)
            got = yield CycleOp(read=1)
            assert got is not EMPTY
            return unpack_elem(got.fields)

        med_star = net.run(
            {i: announce for i in range(1, p + 1)}, phase=f"{tag}/announce"
        )[1]

        ge = {
            i: sum(w for e, w in cand[i] if e >= med_star) for i in cand
        }
        w_ge = mcb_total_sum(net, ge, phase=f"{tag}/weight-ge")[1]

        # weight(> med*) = w_ge - w(med*); the three cases on weight:
        if w_ge >= t_left:
            w_med = mcb_total_sum(
                net,
                {i: sum(w for e, w in cand[i] if e == med_star) for i in cand},
                phase=f"{tag}/weight-eq",
            )[1]
            if w_ge - w_med < t_left:
                return WeightedSelectionResult(value=med_star, phases=rounds)
            # answer is strictly above med*: purge <= med*
            for i in cand:
                cand[i] = [(e, w) for e, w in cand[i] if e > med_star]
            w_left = w_ge - w_med
        else:
            # answer is strictly below med*: purge >= med*, rebase target
            for i in cand:
                cand[i] = [(e, w) for e, w in cand[i] if e < med_star]
            w_left = w_left - w_ge
            t_left = t_left - w_ge

    # termination: collect the survivors at P_1 (element + weight travel
    # together), resolve locally, broadcast.
    counts_now = {i: len(cand[i]) for i in cand}
    sums = mcb_partial_sums(net, counts_now, phase=f"{phase}/term-prefix")
    total_c = sums[p].incl

    def collect(ctx: ProcContext):
        pid = ctx.pid
        mine = cand[pid]
        if pid == 1:
            pool = list(mine)
            ctx.aux_acquire(total_c)
            start = sums[pid].incl
            if start > 0:
                yield Sleep(start)
            if total_c > start:
                # The other survivors fill every cycle of the gather.
                heard = yield Listen(1, total_c - start)
                assert len(heard) == total_c - start, "a survivor must send"
                pool.extend(
                    (unpack_elem(msg.fields[:-1]), msg.fields[-1])
                    for _, msg in heard
                )
            acc = 0
            answer = None
            for e, w in sorted(pool, reverse=True):
                acc += w
                if acc >= t_left:
                    answer = e
                    break
            ctx.aux_release(total_c)
            yield CycleOp(write=1, payload=Message("ans", *pack_elem(answer)))
            return answer
        start = sums[pid].prev
        cands = [Message("cand", *(pack_elem(e) + (w,))) for e, w in mine]
        yield from emit_from(1, cands, start)
        rest = total_c - start - len(mine)
        if rest > 0:
            yield Sleep(rest)
        got = yield CycleOp(read=1)
        return unpack_elem(got.fields)

    answers = net.run(
        {i: collect for i in range(1, p + 1)}, phase=f"{phase}/termination"
    )
    value = answers[1]
    assert all(a == value for a in answers.values())
    return WeightedSelectionResult(value=value, phases=rounds)
