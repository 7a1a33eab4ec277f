"""Collision-free broadcast schedules for the transformation phases.

§5.2 gives a closed-form schedule for phase 2 (transpose) when ``p = k``
and notes "similar schemes can be devised for phases 4, 6 and 8".  The
closed form lives with the other columnsort lowerings, as
:func:`repro.mcb.vector.lower.lower_paper_transpose`; this module holds
the general scheme:

* :func:`build_schedule` — a general scheduler for *any* of the four
  transformations (indeed any permutation whose k x k column transfer
  matrix has all row and column sums equal to ``m``): decompose the
  transfer matrix into ``m`` perfect matchings (Birkhoff–von Neumann); in
  each cycle every column sends exactly one element and reads exactly one
  channel, so the transformation completes in exactly ``m`` collision-free
  cycles with at most one message per column per cycle — the ``O(m)``
  cycles / ``O(mk)`` messages the paper charges per phase.

The schedule depends only on ``(m, k)`` and the transformation, all
globally known, so every processor computes it locally (free in the MCB
cost model) — no coordination traffic is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix import PHASE_PERMS, transfer_matrix


@dataclass(frozen=True)
class Transfer:
    """One element movement: source (col, row) -> destination (col, row).

    Rows and columns are 0-based here (internal convention).
    """

    src_col: int
    src_row: int
    dst_col: int
    dst_row: int


@dataclass
class BroadcastSchedule:
    """A per-cycle plan for one transformation phase.

    Attributes
    ----------
    m, k:
        Matrix dimensions.
    cycles:
        ``cycles[j][c]`` is the :class:`Transfer` column ``c`` *sends*
        during cycle ``j`` (or ``None``).  The reader in cycle ``j`` for
        channel ``c+1`` is column ``cycles[j][c].dst_col``.
    reads:
        ``reads[j][c]`` is the 0-based source column whose channel column
        ``c`` must read during cycle ``j`` (or ``None``).
    """

    m: int
    k: int
    cycles: list[list[Optional[Transfer]]]
    reads: list[list[Optional[int]]]

    def num_cycles(self) -> int:
        """Number of cycles the phase takes (= ``m`` for valid dims)."""
        return len(self.cycles)

    def validate(self) -> None:
        """Check the collision-freedom and completeness invariants."""
        seen: set[tuple[int, int]] = set()
        for j, cycle in enumerate(self.cycles):
            for c, tr in enumerate(cycle):
                if tr is None:
                    continue
                if tr.src_col != c:
                    raise AssertionError(
                        f"cycle {j}: slot {c} carries transfer from column "
                        f"{tr.src_col}"
                    )
                key = (tr.src_col, tr.src_row)
                if key in seen:
                    raise AssertionError(f"element {key} scheduled twice")
                seen.add(key)
            # one read per destination column per cycle
            dests = [tr.dst_col for tr in cycle if tr is not None]
            if len(dests) != len(set(dests)):
                raise AssertionError(f"cycle {j}: destination column read clash")
        if len(seen) != self.m * self.k:
            raise AssertionError(
                f"schedule moves {len(seen)} of {self.m * self.k} elements"
            )


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
# Schedule construction (memoized per (phase, m, k))
# ---------------------------------------------------------------------------

# Explicit dict caches rather than lru_cache: the BvN decomposition is
# shared across phases *and* runs (the hot part of compilation for both
# the generator and vector engines), and the hit/miss counters below
# make the reuse observable through the global metrics registry.
_BVN_CACHE: dict[tuple[int, int, int], list[tuple[np.ndarray, int]]] = {}
_SCHEDULE_CACHE: dict[tuple[int, int, int], BroadcastSchedule] = {}


def clear_schedule_caches() -> None:
    """Drop the memoized BvN decompositions and schedules.

    Used by benchmarks that need a true cold compile; the metrics
    counters are left alone.
    """
    _BVN_CACHE.clear()
    _SCHEDULE_CACHE.clear()


def _cache_counter(name: str, hit: bool) -> None:
    from ..obs.metrics import global_registry

    global_registry().counter(
        name, "columnsort schedule-cache lookups by result"
    ).inc(result="hit" if hit else "miss")


def bvn_for_phase(phase: int, m: int, k: int) -> list[tuple[np.ndarray, int]]:
    """Memoized Birkhoff–von-Neumann decomposition for one transformation.

    The decomposition depends only on ``(phase, m, k)`` (through the
    transfer matrix), so it is computed once per process and shared by
    every schedule/compile that needs it.  Lookups are counted on the
    ``columnsort_bvn_cache_total`` counter of
    :func:`repro.obs.metrics.global_registry` with a ``result=hit|miss``
    label.
    """
    if phase not in PHASE_PERMS:
        raise ValueError(f"phase {phase} is not a transformation phase")
    key = (phase, m, k)
    hit = key in _BVN_CACHE
    _cache_counter("columnsort_bvn_cache_total", hit)
    if not hit:
        t = transfer_matrix(PHASE_PERMS[phase](m, k), m, k)
        _BVN_CACHE[key] = bvn_decomposition(t)
    return _BVN_CACHE[key]


def build_schedule(
    perm: np.ndarray,
    m: int,
    k: int,
    *,
    matchings: Optional[list[tuple[np.ndarray, int]]] = None,
) -> BroadcastSchedule:
    """Build an ``m``-cycle collision-free schedule realizing ``perm``.

    ``perm`` maps 0-based column-major positions to destinations (as
    produced by :mod:`repro.columnsort.matrix`).  Pass ``matchings`` (a
    precomputed :func:`bvn_decomposition` of the transfer matrix, e.g.
    from :func:`bvn_for_phase`) to skip the decomposition.
    """
    if matchings is None:
        t = transfer_matrix(perm, m, k)
        matchings = bvn_decomposition(t)

    # Queue the transfers of each (src, dst) column pair in row order.
    queues: dict[tuple[int, int], list[Transfer]] = {}
    for g in range(m * k):
        src_col, src_row = divmod(g, m)
        dst = int(perm[g])
        dst_col, dst_row = divmod(dst, m)
        queues.setdefault((src_col, dst_col), []).append(
            Transfer(src_col, src_row, dst_col, dst_row)
        )
    for q in queues.values():
        q.reverse()  # pop() then yields ascending row order

    cycles: list[list[Optional[Transfer]]] = []
    reads: list[list[Optional[int]]] = []
    for matching, count in matchings:
        for _ in range(count):
            cycle: list[Optional[Transfer]] = [None] * k
            rd: list[Optional[int]] = [None] * k
            for s in range(k):
                d = int(matching[s])
                tr = queues[(s, d)].pop()
                cycle[s] = tr
                rd[d] = s
            cycles.append(cycle)
            reads.append(rd)
    assert all(not q for q in queues.values())
    return BroadcastSchedule(m=m, k=k, cycles=cycles, reads=reads)


def schedule_for_phase(phase: int, m: int, k: int) -> BroadcastSchedule:
    """Cached schedule for paper phase 2, 4, 6 or 8 on an ``m x k`` matrix.

    Repeated calls return the identical object.  Lookups are counted on
    ``columnsort_schedule_cache_total`` (``result=hit|miss``) of the
    global metrics registry; the underlying BvN decomposition is cached
    separately via :func:`bvn_for_phase`.
    """
    if phase not in PHASE_PERMS:
        raise ValueError(f"phase {phase} is not a transformation phase")
    key = (phase, m, k)
    hit = key in _SCHEDULE_CACHE
    _cache_counter("columnsort_schedule_cache_total", hit)
    if not hit:
        _SCHEDULE_CACHE[key] = build_schedule(
            PHASE_PERMS[phase](m, k), m, k,
            matchings=bvn_for_phase(phase, m, k),
        )
    return _SCHEDULE_CACHE[key]
