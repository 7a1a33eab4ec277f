"""Lowering the repo's oblivious schedule sources to :class:`SchedulePlan`.

Each lowering is a pure function of globally-known parameters — exactly
the property that makes a phase oblivious — and produces the raw int64
event tables that :meth:`SchedulePlan.compile` validates into a
:class:`~repro.mcb.vector.plan.CompiledPhase`.  Every Birkhoff–von
Neumann transfer schedule in the sorts — §5.2's phases, §6.1's virtual
columns and §6.2's segments — comes from one cycle assignment,
:func:`_phase_event_arrays`, run at the column length of the matching.
The lowerings:

* :func:`lower_columnsort_phases` — the four §5.2 transformation phases
  (2, 4, 6, 8) of one ``(m, k, paper_phase2, wrap_skip)`` variant, built
  from the three lowerings below.  It is the single source of the
  columnsort transfer schedules: the vector engine compiles its plans,
  and :func:`repro.sort.even_pk.columnsort_program` runs them on the
  generator engines through :meth:`SchedulePlan.as_program`.
* :func:`lower_phase_columnar` — one transformation phase on the
  Birkhoff–von-Neumann schedule (self-transfers become free local
  moves: "these elements need not be shifted at all").
* :func:`lower_paper_transpose` — the paper's verbatim closed-form
  phase-2 schedule, including its broadcast-even-to-self behaviour.
* :func:`lower_wrap_skip` — phases 6 and 8 with §5.2's wrap-around
  traffic parked at column ``k``.
* :func:`lower_virtual_phase` — one §6.1 virtual-column transformation
  phase over the ``g * k`` group members, each sender storing what it
  reads over the element it just sent, or with ``segments > 1`` one
  §6.2 segment transformation; ``sort_virtual`` and every transfer
  phase of ``sort_recursive`` run it on the generator engines as a
  :class:`~repro.mcb.program.RunPlan`.

The comparator-network backends lower their compare rounds with
:func:`repro.mcb.cnet.cnet_to_schedule`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ...columnsort.matrix import PHASE_PERMS, downshift_perm, transpose_perm
from ...columnsort.schedule import bvn_for_phase
from ..errors import ConfigurationError
from .plan import SchedulePlan


def lower_columnsort_phases(
    m: int, k: int, paper_phase2: bool = False, wrap_skip: bool = False
) -> tuple[SchedulePlan, SchedulePlan, SchedulePlan, SchedulePlan]:
    """The plans of columnsort phases 2, 4, 6 and 8 for one variant.

    The only code that knows which lowering a variant uses: phase 2 is
    :func:`lower_paper_transpose` with ``paper_phase2``, phases 6 and 8
    are :func:`lower_wrap_skip` with ``wrap_skip`` (``k >= 2``), and
    every other phase is :func:`lower_phase_columnar`.  One variant's
    plans share one slot count: with ``wrap_skip`` phases 2 and 4 also
    carry phases 6 and 8's ``m // 2`` parking slots past the column,
    untouched.  The free local sorts of phases 1, 3, 5, 7 and 9 stay
    with the caller.
    """
    first = (
        lower_paper_transpose(m, k)
        if paper_phase2
        else lower_phase_columnar(2, m, k)
    )
    second = lower_phase_columnar(4, m, k)
    if not wrap_skip:
        return (first, second, lower_phase_columnar(6, m, k),
                lower_phase_columnar(8, m, k))
    plan6, plan8 = lower_wrap_skip(m, k)
    slots = plan6.slots
    return (replace(first, slots=slots), replace(second, slots=slots),
            plan6, plan8)


def _phase_event_arrays(
    phase: int, m: int, k: int, rows: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One transformation phase as flat event arrays: the Birkhoff–von
    Neumann schedule of ``PHASE_PERMS[phase](m, k)`` at column length
    ``rows``.

    ``rows`` (default ``m``) is the length of the columns the matching
    runs at: ``m`` for §5.2 and §6.1, the segment length ``m / S`` for
    §6.2, whose segment transfer matrix is the same permutation read as
    a ``rows x (k * m / rows)`` column-major matrix.  Returns ``(cycle,
    src_col, src_row, dst_col, dst_row)`` int64 arrays in that reading,
    one entry per element, in ``(cycle, src_col)`` order (all empty when
    ``m == 0``: no element, no cycle).  There are ``rows`` cycles, and
    in each one every column sends one element and receives one.

    The cycle assignment: each ``(src, dst)`` column pair's transfers
    are queued in ascending source-row order, and the cycles (the BvN
    matchings of :func:`~repro.columnsort.schedule.bvn_for_phase`
    expanded by their counts, in order) consume each queue front to
    back.  Columnar form: events sorted by ``(src_col, dst_col,
    src_row)`` align one-to-one with the expanded matching slots sorted
    by ``(src_col, dst_col, cycle)``.
    """
    if not m:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty, empty
    rows = m if rows is None else rows
    width = m * k // rows
    matchings = bvn_for_phase(phase, m, k, rows)
    perm = np.asarray(PHASE_PERMS[phase](m, k), dtype=np.int64)
    src_col, src_row = np.divmod(np.arange(m * k, dtype=np.int64), rows)
    dst_col, dst_row = np.divmod(perm, rows)
    ev_order = np.lexsort((src_row, dst_col, src_col))

    mx = np.repeat(
        np.stack([mt for mt, _ in matchings]).astype(np.int64),
        [c for _, c in matchings],
        axis=0,
    )  # (cycles, width): in cycle j column s sends to column mx[j, s]
    n_cycles = mx.shape[0]
    j_idx = np.repeat(np.arange(n_cycles, dtype=np.int64), width)
    s_idx = np.tile(np.arange(width, dtype=np.int64), n_cycles)
    slot_order = np.lexsort((j_idx, mx.ravel(), s_idx))

    cycle = np.empty(m * k, dtype=np.int64)
    cycle[ev_order] = j_idx[slot_order]
    order = np.lexsort((src_col, cycle))
    return (
        cycle[order], src_col[order], src_row[order],
        dst_col[order], dst_row[order],
    )


def lower_phase_columnar(phase: int, m: int, k: int) -> SchedulePlan:
    """One transformation phase as a plan over ``k`` columns.

    Column ``c`` writes channel ``c + 1`` in the cycle
    :func:`_phase_event_arrays` assigns each transfer; a transfer whose
    destination is its own column never touches a channel (a free local
    move).
    """
    cyc, sc, sr, dc, dr = _phase_event_arrays(phase, m, k)
    self_t = sc == dc
    t = ~self_t
    return SchedulePlan(
        p=k, k=k, cycles=m, slots=m,
        writes=np.stack([cyc[t], sc[t], sc[t] + 1, sr[t]], axis=1),
        reads=np.stack([cyc[t], dc[t], sc[t] + 1, dr[t]], axis=1),
        moves=np.stack([sc[self_t], sr[self_t], dr[self_t]], axis=1),
    )


def lower_wrap_skip(m: int, k: int) -> tuple[SchedulePlan, SchedulePlan]:
    """Phases 6 and 8 with the §5.2 wrap-around optimization as plans.

    Column ``k`` *parks* its wrap-around elements in ``half = m // 2``
    extra local slots ``m .. m + half - 1`` during the up-shift (no
    broadcast) and *unparks* them during the down-shift in place of the
    column-1 -> column-``k`` traffic — §5.2's "these elements need not
    be shifted at all" — saving ``2 * floor(m/2)`` messages per sort.
    Both plans use ``slots = m + half``; the local sort between them
    (phase 7, columns 2..k over slots ``0 .. m-1`` only) stays with the
    caller.

    Ghost rows of column 1 (rows ``0 .. half-1`` after the up-shift,
    whose elements stayed parked at column ``k``) keep *stale* values:
    they are never broadcast — their phase-8 transfers target column
    ``k`` and are dropped here — and phase 8 overwrites every column-1
    row, so the stale values never reach the output.
    """
    if k < 2:
        raise ConfigurationError(
            f"wrap_skip needs k >= 2 (nothing wraps with k={k})"
        )
    half = m // 2
    last = k - 1
    slots = m + half

    # ---- phase 6: up-shift, parking the wrap-around ------------------
    cyc, sc, sr, dc, dr = _phase_event_arrays(6, m, k)
    self_t = sc == dc
    park = (sc == last) & (dc == 0)
    park_idx = np.flatnonzero(park)  # ascending cycle: the scan order
    m_dst = np.where(self_t, dr, 0)
    m_dst[park_idx] = m + np.arange(len(park_idx), dtype=np.int64)
    is_move = self_t | park
    t6 = ~is_move
    plan6 = SchedulePlan(
        p=k, k=k, cycles=m, slots=slots,
        writes=np.stack([cyc[t6], sc[t6], sc[t6] + 1, sr[t6]], axis=1),
        reads=np.stack([cyc[t6], dc[t6], sc[t6] + 1, dr[t6]], axis=1),
        moves=np.stack([sc[is_move], sr[is_move], m_dst[is_move]], axis=1),
    )
    parked = sr[park_idx]  # src_row of each parked element, cycle order

    # ---- phase 8: down-shift, unparking instead of col1->colk --------
    cyc8, sc8, sr8, dc8, dr8 = _phase_event_arrays(8, m, k)
    perm8 = np.asarray(downshift_perm(m, k), dtype=np.int64)
    # Phase-6 position of parked element i: (column 1, row
    # (src_row6 + half) % m) — the wrap sent rows [m-half, m) of
    # column k to rows [0, half) of column 1.
    row1 = (last * m + parked + half) % (m * k) % m
    dest = perm8[row1]
    assert (dest // m == last).all(), "wrap elements come home to column k"
    unpark = np.stack(
        [
            np.full(len(parked), last, dtype=np.int64),
            m + np.arange(len(parked), dtype=np.int64),
            dest % m,
        ],
        axis=1,
    )
    self8 = sc8 == dc8
    # Column 1's ghosts all wrap to column k, so its self-transfers
    # never source a ghost row.
    assert ((sc8 != 0) | (sr8 >= half))[self8].all()
    ghost = (sc8 == 0) & (dc8 == last)  # element never left column k
    t8 = ~(self8 | ghost)
    moves8 = np.concatenate(
        [unpark, np.stack([sc8[self8], sr8[self8], dr8[self8]], axis=1)]
    )
    plan8 = SchedulePlan(
        p=k, k=k, cycles=m, slots=slots,
        writes=np.stack([cyc8[t8], sc8[t8], sc8[t8] + 1, sr8[t8]], axis=1),
        reads=np.stack([cyc8[t8], dc8[t8], sc8[t8] + 1, dr8[t8]], axis=1),
        moves=moves8,
    )
    return plan6, plan8


def lower_paper_transpose(m: int, k: int) -> SchedulePlan:
    """§5.2's closed-form phase-2 schedule as a plan (``p = k``).

    "During cycle j, processor P_i sends the element in position
    ((i+j) mod m)+1 in its column, and reads channel
    ((i-(j mod k)-2) mod k)+1."  The reader recovers the destination row
    from global knowledge: the cycle tells it which row the heard column
    sent, and the transpose permutation where that row lands.  Every
    processor broadcasts every cycle — including the cycles in which it
    reads its own channel — so the phase sends exactly ``m * k``
    messages in ``m`` cycles.
    """
    perm = np.asarray(transpose_perm(m, k), dtype=np.int64)
    j = np.arange(m, dtype=np.int64)[:, None]
    i = np.arange(k, dtype=np.int64)[None, :]
    # §5.2's formulas with i the paper's 1-based processor index.
    send_row = (i + 1 + j) % m
    read_ch = (i + 1 - (j % k) - 2) % k
    src_row = (read_ch + 1 + j) % m  # what the read channel carries
    dest = perm[read_ch * m + src_row]
    assert (dest // m == i).all(), "paper schedule delivers to my column"
    jj = np.broadcast_to(j, (m, k))
    ii = np.broadcast_to(i, (m, k))
    return SchedulePlan(
        p=k, k=k, cycles=m, slots=m,
        writes=np.stack([jj, ii, ii + 1, send_row], axis=2).reshape(-1, 4),
        reads=np.stack([jj, ii, read_ch + 1, dest % m], axis=2).reshape(-1, 4),
    )


def lower_virtual_phase(
    phase: int, m: int, k: int, g: int, blocks: int = 1, segments: int = 1
) -> SchedulePlan:
    """One §6.1 transformation phase on ``k`` virtual columns of ``g``
    processors each, as a plan with ``p = g * k`` and ``n/p`` slots.

    Processor ``c * g + w`` is member ``w`` of column ``c`` and holds its
    rows ``w * npp .. (w + 1) * npp - 1`` (``npp = m // g``) in slots
    ``0 .. npp - 1``.  Column ``c`` is ``segments = S`` segments of
    ``L = m / S`` rows, segment ``s`` on channel ``c * S + s + 1``; the
    phase runs :func:`_phase_event_arrays`'s ``L``-cycle schedule at
    segment granularity.  In cycle ``t`` the member holding the row
    segment ``x`` sends writes it on ``x``'s channel and, in the same
    cycle, reads the channel of the segment sending to ``x`` into that
    same slot — "the element received during the cycle can be stored
    over the one just sent".  With ``S = 1`` this is §6.1's ``m``-cycle
    phase; ``S = K / k' > 1`` is §6.2's segment transformation, where
    "each virtual column is broken into k/k' segments ... and all
    segments are broadcast simultaneously — each segment using a
    separate channel", so the phase takes ``L = N / K`` cycles.

    One rule for self-transfers: with one segment per column a transfer
    from a column to itself has no event, so its element stays where it
    is; with ``S > 1`` every segment broadcasts every cycle, and one
    sending to itself reads its own channel back (all ``k * S``
    channels busy).

    ``blocks > 1`` tiles ``blocks`` copies side by side in the same
    cycles (§6.2's parallel calls): block ``b`` is processors
    ``b * g * k ..`` and channels ``b * k * S + 1 ..``.
    """
    npp, rows, p, width = m // g, m // segments, g * k, k * segments
    cyc, sc, sr, dc, _ = _phase_event_arrays(phase, m, k, rows)
    sender = np.empty(len(cyc), dtype=np.int64)
    sender[cyc * width + dc] = sc  # the segment sending to dc in cycle cyc
    if segments == 1:
        sent = sc != dc
        cyc, sc, sr = cyc[sent], sc[sent], sr[sent]
    w, slot = np.divmod(sc % segments * rows + sr, npp)
    proc = sc // segments * g + w
    read = sender[cyc * width + sc] + 1
    block = np.repeat(np.arange(blocks, dtype=np.int64), len(cyc))
    cyc, proc, slot = (np.tile(a, blocks) for a in (cyc, proc, slot))
    proc = proc + block * p
    return SchedulePlan(
        p=p * blocks, k=width * blocks, cycles=rows, slots=npp,
        writes=np.stack(
            [cyc, proc, np.tile(sc + 1, blocks) + block * width, slot], axis=1
        ),
        reads=np.stack(
            [cyc, proc, np.tile(read, blocks) + block * width, slot], axis=1
        ),
    )
