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

Steps 2–4 are §8's control stages
(:class:`~repro.select.filtering.NetworkControl`).  Weights travel with
their elements (one extra message field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from ..mcb.network import MCBNetwork
from ..prefix.mcb_partial_sums import mcb_partial_sums
from ..sort.common import pack_elem, unpack_elem
from .filtering import NetworkControl, gather_answer


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

    control = NetworkControl(net, "ones")
    pids = range(1, p + 1)
    w_left = total_w
    t_left = target
    rounds = 0
    while sum(len(v) for v in cand.values()) > m_star:
        rounds += 1
        tag = f"{phase}/filter-{rounds}"
        sorted_pairs = control.sort_pairs(
            [flat_pair(i) for i in pids], f"{tag}/sort"
        )
        weights_sorted = [pair[-1] for pair in sorted_pairs]
        sums = control.partial_sums(weights_sorted, f"{tag}/prefix")
        half = (w_left + 1) // 2
        med_star = control.announce(sorted_pairs, sums, half, f"{tag}/announce")

        ge = [sum(w for e, w in cand[i] if e >= med_star) for i in pids]
        w_ge = control.total_sum(ge, f"{tag}/weight-ge")

        # weight(> med*) = w_ge - w(med*); the three cases on weight:
        if w_ge >= t_left:
            w_med = control.total_sum(
                [sum(w for e, w in cand[i] if e == med_star) for i in pids],
                f"{tag}/weight-eq",
            )
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

    def resolve(pool: list) -> Any:
        acc = 0
        for e, w in sorted(pool, reverse=True):
            acc += w
            if acc >= t_left:
                return e
        return None

    value = gather_answer(
        net, cand, sums, sums[p].incl,
        lambda ew: pack_elem(ew[0]) + (ew[1],),
        lambda f: (unpack_elem(f[:-1]), f[-1]),
        resolve, f"{phase}/termination",
    )
    return WeightedSelectionResult(value=value, phases=rounds)
