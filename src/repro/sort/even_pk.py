"""Columnsort on MCB(k, k): the basic algorithm of §5.2.

Setting: ``p = k``, even distribution, column ``i`` lives in processor
``P_i`` with ``N_i`` as the initial column data, column length
``m = n/k``.  The local sorting phases (1, 3, 5, 7, 9) cost nothing on
the network; phases 2, 4, 6 and 8 follow a collision-free broadcast
schedule in which every processor broadcasts at most one element per
cycle — ``m`` cycles and at most ``mk`` messages per phase, for a total
of ``O(n)`` messages and ``O(n/k)`` cycles.  By Theorem 3 and
Corollary 3 this is optimal (``n_max = n_max2``), and the message and
cycle bounds are achieved simultaneously.

Implementation notes:

* Receivers place incoming elements at their exact destination row (the
  schedule is globally known, so both endpoints can compute it locally);
  this realizes the matrix transformations positionally.
* Elements whose destination is their own column are kept locally
  without a broadcast ("these elements need not be shifted at all"),
  which only reduces the message count.
* Phase 9 (an extra local sort) is included as in the paper's MCB
  implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..columnsort.matrix import downshift_perm, require_valid_dims, transpose_perm
from ..columnsort.schedule import (
    BroadcastSchedule,
    paper_transpose_schedule,
    schedule_for_phase,
)
from ..mcb.errors import ConfigurationError
from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, ProcContext
from .common import descending, pack_elem, unpack_elem


@dataclass
class SortResult:
    """Output of a distributed sort: final per-processor contents."""

    output: dict[int, tuple]

    def as_lists(self) -> dict[int, list]:
        """The output as mutable lists (convenience for callers)."""
        return {pid: list(v) for pid, v in self.output.items()}


def transformation_phase(
    col_idx: int, column: list, sched: BroadcastSchedule
):
    """Sub-generator: run one transformation phase for 0-based column
    ``col_idx`` whose current (sorted) contents are ``column``.

    Yields one :class:`CycleOp` per schedule cycle and returns the new
    column contents (positionally exact).
    """
    m = sched.m
    new_col: list = [None] * m
    for j in range(sched.num_cycles()):
        tr = sched.cycles[j][col_idx]
        src = sched.reads[j][col_idx]
        wchan = None
        payload = None
        rchan = None
        if tr is not None:
            if tr.dst_col == col_idx:
                # Self-transfer: keep the element locally, no broadcast.
                new_col[tr.dst_row] = column[tr.src_row]
            else:
                wchan = col_idx + 1
                payload = Message("elem", *pack_elem(column[tr.src_row]))
        if src is not None and src != col_idx:
            rchan = src + 1
        got = yield CycleOp(write=wchan, payload=payload, read=rchan)
        if rchan is not None:
            incoming = sched.cycles[j][src]
            new_col[incoming.dst_row] = unpack_elem(got.fields)
    assert all(e is not None for e in new_col)
    return new_col


def shift_phases_with_wrap_skip(col_idx: int, column: list, m: int, k: int):
    """Sub-generator: phases 6-8 with the paper's wrap-around optimization.

    §5.2: the elements shifted from column ``k`` into column 1 by the
    up-shift are shifted straight back by the down-shift, so
    "alternatively, these elements need not be shifted at all".  Here
    column ``k`` *parks* its wrapped elements locally during phase 6
    (no broadcast), phase 7 sorts columns 2..k's real contents, and
    phase 8 *unparks* them in place of the col-1 -> col-k transfers —
    saving ``2 * floor(m/2)`` messages per sort.

    Runs phases 6, 7 and 8; returns the column going into phase 9.
    Ghost rows in column 1 (never filled because their elements stayed
    parked at column k) are tracked as ``None`` and never broadcast.
    """
    half = m // 2
    last = k - 1

    # ---- phase 6: up-shift, parking the wrap-around ----------------------
    sched6 = schedule_for_phase(6, m, k)
    new_col: list = [None] * m
    parked: list = []
    for j in range(sched6.num_cycles()):
        tr = sched6.cycles[j][col_idx]
        src = sched6.reads[j][col_idx]
        wchan = payload = rchan = None
        if tr is not None:
            if tr.dst_col == col_idx:
                new_col[tr.dst_row] = column[tr.src_row]
            elif col_idx == last and tr.dst_col == 0:
                parked.append((tr.src_row, column[tr.src_row]))
            else:
                wchan = col_idx + 1
                payload = Message("elem", *pack_elem(column[tr.src_row]))
        if src is not None and src != col_idx:
            if not (col_idx == 0 and src == last):
                rchan = src + 1
        got = yield CycleOp(write=wchan, payload=payload, read=rchan)
        if rchan is not None:
            incoming = sched6.cycles[j][src]
            new_col[incoming.dst_row] = unpack_elem(got.fields)
    col = new_col

    # ---- phase 7: sort real contents (column 1 skipped per the paper) ----
    if col_idx != 0:
        col = descending(col)

    # ---- phase 8: down-shift, unparking instead of col1->colk traffic ----
    sched8 = schedule_for_phase(8, m, k)
    perm8 = downshift_perm(m, k)
    new_col = [None] * m
    if col_idx == last:
        # my wrapped elements come home: phase-6 position (col 1, row r)
        # with r < half maps under the down-shift back to my rows.
        for src_row6, e in parked:
            # position after up-shift: (0, (src_row6 + half) % m) — the
            # wrap sent rows [m-half, m) of column k to rows [0, half).
            row1 = (last * m + src_row6 + half) % (m * k) % m
            dest = int(perm8[0 * m + row1])
            assert dest // m == last
            new_col[dest % m] = e
    for j in range(sched8.num_cycles()):
        tr = sched8.cycles[j][col_idx]
        src = sched8.reads[j][col_idx]
        wchan = payload = rchan = None
        if tr is not None:
            if tr.dst_col == col_idx:
                if col[tr.src_row] is not None:
                    new_col[tr.dst_row] = col[tr.src_row]
            elif col_idx == 0 and tr.dst_col == last:
                pass  # ghost row: its element never left column k
            else:
                wchan = col_idx + 1
                payload = Message("elem", *pack_elem(col[tr.src_row]))
        if src is not None and src != col_idx:
            if not (col_idx == last and src == 0):
                rchan = src + 1
        got = yield CycleOp(write=wchan, payload=payload, read=rchan)
        if rchan is not None:
            incoming = sched8.cycles[j][src]
            new_col[incoming.dst_row] = unpack_elem(got.fields)
    assert all(e is not None for e in new_col)
    return new_col


def paper_transpose_transformation(col_idx: int, column: list, m: int, k: int):
    """Sub-generator: phase 2 using the paper's verbatim §5.2 schedule.

    "During cycle j, processor P_i sends the element in position
    ((i+j) mod m)+1 in its column, and reads channel
    ((i-(j mod k)-2) mod k)+1."  The receiver recovers the destination
    row from global knowledge: it knows which cycle it is, hence which
    row the sender transmitted, hence where the transpose permutation
    places it.  ``m`` cycles, exactly like the general schedule.
    """
    sched = paper_transpose_schedule(m, k)
    perm = transpose_perm(m, k)
    new_col: list = [None] * m
    for j in range(m):
        send_row, read_ch = sched[j][col_idx]
        # I broadcast my element and read the scheduled channel — the
        # schedule may tell me to read my own channel (keep my element).
        got = yield CycleOp(
            write=col_idx + 1,
            payload=Message("elem", *pack_elem(column[send_row])),
            read=read_ch + 1,
        )
        src_row = sched[j][read_ch][0]  # what the heard column sent
        dest = int(perm[read_ch * m + src_row])
        assert dest // m == col_idx, "paper schedule delivers to my column"
        new_col[dest % m] = unpack_elem(got.fields)
    assert all(e is not None for e in new_col)
    return new_col


def columnsort_program(
    col_idx: int,
    column: list,
    m: int,
    k: int,
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
):
    """Sub-generator running phases 1-9 of Columnsort for one column.

    ``col_idx`` is 0-based; ``column`` is the initial column data (length
    ``m``).  Returns the final sorted column (a descending list).  All
    ``k`` columns must run this concurrently, each writing its own
    channel ``col_idx + 1``.  With ``paper_phase2`` the transpose runs on
    the paper's closed-form schedule instead of the general one.
    """
    col = descending(column)  # phase 1
    if paper_phase2:
        col = yield from paper_transpose_transformation(col_idx, col, m, k)
    else:
        col = yield from transformation_phase(
            col_idx, col, schedule_for_phase(2, m, k)
        )
    col = descending(col)  # phase 3
    col = yield from transformation_phase(col_idx, col, schedule_for_phase(4, m, k))
    col = descending(col)  # phase 5
    if wrap_skip and k > 1:
        # §5.2: "these elements need not be shifted at all" — phases 6-8
        # with the wrap-around traffic parked at column k.
        col = yield from shift_phases_with_wrap_skip(col_idx, col, m, k)
    else:
        col = yield from transformation_phase(
            col_idx, col, schedule_for_phase(6, m, k)
        )
        if col_idx != 0:
            col = descending(col)  # phase 7: sort all columns except 1
        col = yield from transformation_phase(
            col_idx, col, schedule_for_phase(8, m, k)
        )
    col = descending(col)  # phase 9
    return col


def sort_even_pk(
    net: MCBNetwork,
    columns: dict[int, list],
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
    phase: str = "columnsort",
    engine: str = "generator",
    backend: str = "columnsort",
) -> SortResult:
    """Sort an even distribution on MCB(k, k) (paper §5.2, basic case).

    Parameters
    ----------
    net:
        Network with ``p == k``.
    columns:
        pid -> local elements; all the same length ``m`` with
        ``m >= k(k-1)`` and ``k | m`` (columnsort backend only — the
        comparator-network backends accept any even shape).
    engine:
        ``"generator"`` (default) steps per-processor programs on the
        network's cycle loop; ``"vector"`` compiles the oblivious
        schedules and executes them as NumPy gather/scatter
        (:mod:`repro.sort.vector`) — identical outputs and stats;
        ``wrap_skip`` lowers to static park/unpark moves and is fully
        supported.
    backend:
        ``"columnsort"`` (default) runs the §5.2 pipeline below;
        ``"batcher"`` runs Batcher's odd-even merge network
        (:mod:`repro.sort.cnet_sort`) on the same engine.

    Returns
    -------
    SortResult
        pid -> descending segment (``P_1`` holds the largest elements).
    """
    if backend != "columnsort":
        if paper_phase2 or wrap_skip:
            raise ConfigurationError(
                "paper_phase2/wrap_skip are columnsort schedule "
                f"variants; backend {backend!r} has no such knobs"
            )
        from .cnet_sort import sort_cnet

        return sort_cnet(net, columns, backend, phase=phase, engine=engine)
    if engine == "vector":
        from .vector import sort_even_pk_vector

        return sort_even_pk_vector(
            net, columns,
            paper_phase2=paper_phase2, wrap_skip=wrap_skip, phase=phase,
        )
    if engine != "generator":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    k = net.k
    if net.p != k:
        raise ValueError(f"sort_even_pk requires p == k, got p={net.p}, k={k}")
    if sorted(columns) != list(range(1, k + 1)):
        raise ValueError("columns must be given for every processor 1..k")
    lengths = {len(c) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"distribution is not even: lengths {sorted(lengths)}")
    m = lengths.pop()
    require_valid_dims(m, k)

    def program(ctx: ProcContext):
        result = yield from columnsort_program(
            ctx.pid - 1, list(columns[ctx.pid]), m, k,
            paper_phase2=paper_phase2, wrap_skip=wrap_skip,
        )
        return result

    out = net.run({i: program for i in range(1, k + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in out.items()})
