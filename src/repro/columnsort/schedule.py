"""Birkhoff–von-Neumann matchings behind the transformation schedules.

§5.2 gives a closed-form schedule for phase 2 (transpose) when ``p = k``
and notes "similar schemes can be devised for phases 4, 6 and 8".  The
closed form is :func:`repro.mcb.vector.lower.lower_paper_transpose`;
the general scheme works for *any* of the four transformations (indeed
any permutation whose column transfer matrix has all row and column
sums equal to the column length): decompose the transfer matrix into
perfect matchings (:func:`bvn_decomposition`); in each cycle every
column sends exactly one element and reads exactly one channel, so an
``m x k`` transformation completes in exactly ``m`` collision-free
cycles with at most one message per column per cycle — the ``O(m)``
cycles / ``O(mk)`` messages the paper charges per phase.

:func:`bvn_for_phase` memoizes the decomposition per transformation;
:func:`repro.mcb.vector.lower.lower_phase_columnar` and the other
lowerings in :mod:`repro.mcb.vector.lower` turn it into a plan.  §6.2's
segment schedule is the same decomposition with the permutation read
at segment granularity (``rows`` below).

The schedule depends only on ``(m, k)`` and the transformation, all
globally known, so every processor computes it locally (free in the MCB
cost model) — no coordination traffic is needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .matrix import PHASE_PERMS, transfer_matrix


# ---------------------------------------------------------------------------
# Birkhoff–von Neumann decomposition of the transfer matrix
# ---------------------------------------------------------------------------

def bvn_decomposition(t: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Decompose a doubly balanced non-negative integer matrix.

    Returns a list of ``(matching, count)`` pairs where ``matching[s]`` is
    the destination matched to source ``s`` and the permutation matrices,
    weighted by their counts, sum to ``t``.  Total count equals the common
    row sum.

    Adjacency is kept as one bitmask int per source row and the matching
    is repaired incrementally between rounds: subtracting a count only
    breaks the matched edges that hit zero, so most rounds re-augment a
    handful of rows instead of rebuilding the whole matching — the
    difference between ``O(k)`` and ``O(k^2)`` augmentations over the
    decomposition, and the dominant cost of plan compilation at large
    ``k``.
    """
    t = t.copy()
    k = t.shape[0]
    row_sums = t.sum(axis=1)
    col_sums = t.sum(axis=0)
    if not (np.all(row_sums == row_sums[0]) and np.all(col_sums == row_sums[0])):
        raise ValueError("transfer matrix must have equal row and column sums")

    # adj[s]: bit d set iff t[s, d] > 0.  Python ints give branch-free
    # set operations (b = avail & -avail pops the lowest candidate).
    adj = [
        int.from_bytes(
            np.packbits(t[s] != 0, bitorder="little").tobytes(), "little"
        )
        for s in range(k)
    ]
    match_dst = [-1] * k  # destination -> source
    match_src = [-1] * k  # source -> destination

    def try_augment(s: int, visited: list[int]) -> bool:
        avail = adj[s] & ~visited[0]
        while avail:
            b = avail & -avail
            avail &= avail - 1
            d = b.bit_length() - 1
            visited[0] |= b
            if match_dst[d] == -1 or try_augment(match_dst[d], visited):
                match_dst[d] = s
                match_src[s] = d
                return True
        return False

    out: list[tuple[np.ndarray, int]] = []
    remaining = int(row_sums[0])
    while remaining > 0:
        for s in range(k):
            if match_src[s] == -1 and not try_augment(s, [0]):
                raise AssertionError(
                    "no perfect matching; transfer matrix is not doubly "
                    "balanced"
                )
        matching = np.array(match_src, dtype=np.int64)
        count = int(min(t[s, match_src[s]] for s in range(k)))
        for s in range(k):
            d = match_src[s]
            t[s, d] -= count
            if t[s, d] == 0:
                adj[s] &= ~(1 << d)
                match_src[s] = -1
                match_dst[d] = -1
        out.append((matching, count))
        remaining -= count
    return out


# ---------------------------------------------------------------------------
# Memoized per transformation
# ---------------------------------------------------------------------------

# An explicit dict cache rather than lru_cache: the BvN decomposition is
# shared across phases *and* runs (the hot part of compilation for both
# the generator and vector engines), and the hit/miss counter below
# makes the reuse observable through the global metrics registry.
_BVN_CACHE: dict[tuple[int, int, int, int], list[tuple[np.ndarray, int]]] = {}


def clear_schedule_caches() -> None:
    """Drop the memoized BvN decompositions.

    Used by benchmarks that need a true cold compile; the metrics
    counter is left alone.
    """
    _BVN_CACHE.clear()


def bvn_for_phase(
    phase: int, m: int, k: int, rows: Optional[int] = None
) -> list[tuple[np.ndarray, int]]:
    """Memoized Birkhoff–von-Neumann decomposition for one transformation.

    The transfer matrix is that of ``PHASE_PERMS[phase](m, k)`` read as
    a column-major matrix with columns of ``rows`` elements (default
    ``m``): ``k`` columns for §5.2 and §6.1, and ``k * m // rows``
    segments of length ``rows`` for §6.2.  The decomposition depends
    only on ``(phase, m, k, rows)``, so it is computed once per process
    and shared by every compile that needs it.  Lookups are counted on
    the ``columnsort_bvn_cache_total`` counter of
    :func:`repro.obs.metrics.global_registry` with a ``result=hit|miss``
    label.
    """
    if phase not in PHASE_PERMS:
        raise ValueError(f"phase {phase} is not a transformation phase")
    rows = m if rows is None else rows
    key = (phase, m, k, rows)
    hit = key in _BVN_CACHE
    from ..obs.metrics import global_registry

    global_registry().counter(
        "columnsort_bvn_cache_total",
        "columnsort schedule-cache lookups by result",
    ).inc(result="hit" if hit else "miss")
    if not hit:
        perm = PHASE_PERMS[phase](m, k)
        t = transfer_matrix(perm, rows, m * k // rows)
        _BVN_CACHE[key] = bvn_decomposition(t)
    return _BVN_CACHE[key]
