"""Merge-Sort: the O(1)-auxiliary-memory single-channel sort of §6.1.

Each processor first sorts its input list locally.  The group then
maintains a *distributed linked list* of the current top (largest)
elements, sorted descending: each member knows its own top element, a
pointer to the next smaller top, and its rank in the list.  Repeatedly,
the rank-1 member extracts its top (the global maximum of all remaining
candidates) to the target processor, and re-inserts its new top into the
list via the broadcast protocol of the paper:

* the new top is broadcast; members with smaller tops increment their
  rank;
* the unique member ``P_b`` whose top is larger and whose pointer is
  smaller (or null) answers with its rank + 1 and its old pointer, then
  points at the new element; the inserter adopts the answer;
* silence (no ``P_b``) means the new element is the maximum: the
  inserter takes rank 1 and learns its pointer from the member now at
  rank 2 in one extra cycle.

To keep every processor within O(1) auxiliary storage, each extraction
is followed by a *replacement*: the target processor sheds its smallest
remaining input element to the extractor (whose list just shrank by
one), so ``inputs + outputs`` never exceeds the original allocation by
more than a constant.

Resolutions of corner cases the paper leaves implicit (see DESIGN.md):

* target == extractor: no replacement needed (net storage change 0);
* the target keeps its *last* input element instead of shedding it —
  shedding it would invalidate the target's own linked-list entry; the
  transient cost is one extra slot, still O(1);
* an extractor whose input ran dry stays silent at re-insertion time and
  simply leaves the list;
* a member with no input has no top to insert: its construction slot
  is silent, and it never joins the list;
* an all-empty group has nothing to sort and runs zero cycles.

Each extraction takes a fixed 5-cycle round (plus ``3g`` construction
cycles), so the algorithm runs in ``O(n)`` cycles and messages on one
channel, for arbitrary distributions, exactly as the paper claims.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Optional, Sequence

from ..core.element import has_duplicates
from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, Listen, ProcContext
from .common import descending, pack_elem, unpack_elem
from .even_pk import SortResult

#: Cycles per extraction round (extract, replace, re-insert, answer, fixup).
ROUND_CYCLES = 5
#: Cycles per member during linked-list construction.
CONSTRUCT_CYCLES = 3


def merge_sort_group(
    channel: int,
    group_index: int,
    counts: Sequence[int],
    my_elems: Sequence[Any],
    *,
    out_counts: Optional[Sequence[int]] = None,
    ctx: Optional[ProcContext] = None,
):
    """Sub-generator: Merge-Sort within one group sharing ``channel``.

    Same contract as :func:`repro.sort.rank_sort.rank_sort_group`;
    returns my descending output segment after exactly
    ``3g + 5 * sum(counts)`` cycles for every member — or after zero
    cycles when ``sum(counts) == 0``, like Rank-Sort.
    """
    counts = list(counts)
    out_counts = list(out_counts) if out_counts is not None else counts
    g = len(counts)
    n_g = sum(counts)
    if sum(out_counts) != n_g:
        raise ValueError("output segment sizes must sum to the group total")
    out_prefix = [0]
    for c in out_counts:
        out_prefix.append(out_prefix[-1] + c)
    if not n_g:
        return []

    me = group_index
    # Ascending internal list: [-1] is the top (largest), insort-friendly.
    my_list: list[Any] = sorted(my_elems)
    base_alloc = len(my_list)
    output: list[Any] = []

    def account() -> None:
        if ctx is not None:
            ctx.aux_set(max(0, len(my_list) + len(output) - base_alloc))

    in_list = False
    rank: Optional[int] = None
    ptr: Optional[Any] = None

    def owner_of(pos0: int) -> int:
        """Group index owning 0-based output position ``pos0``."""
        lo, hi = 0, g - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if pos0 < out_prefix[mid + 1]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def ins_message() -> Message:
        fields = pack_elem(ptr) if ptr is not None else ()
        return Message("ins", rank + 1, ptr is not None, *fields)

    # ---- linked-list construction: members insert their tops in order ---
    for i in range(g):
        if not counts[i]:
            yield Listen(channel, CONSTRUCT_CYCLES)
            continue
        # cycle 1: member i announces its top
        if i == me:
            yield CycleOp(
                write=channel, payload=Message("top", *pack_elem(my_list[-1]))
            )
            new_top = my_list[-1]
            inserting = True
        else:
            got = yield CycleOp(read=channel)
            new_top = unpack_elem(got.fields)
            inserting = False
            if in_list and my_list[-1] < new_top:
                rank += 1
        # cycle 2: P_b answers (or silence: new element is the maximum)
        i_am_pb = (
            in_list
            and my_list[-1] > new_top
            and (ptr is None or ptr < new_top)
        )
        if i_am_pb:
            yield CycleOp(write=channel, payload=ins_message())
            ptr = new_top
            silence = False
        else:
            got = yield CycleOp(read=channel)
            silence = got is EMPTY
            if inserting and not silence:
                rank = got[0]
                ptr = unpack_elem(got.fields[2:]) if got[1] else None
                in_list = True
        if inserting and silence:
            rank, in_list = 1, True
        # cycle 3: on silence, the rank-2 member reveals the new pointer
        if silence:
            if in_list and rank == 2 and not inserting:
                yield CycleOp(
                    write=channel, payload=Message("top", *pack_elem(my_list[-1]))
                )
            else:
                got = yield CycleOp(read=channel)
                if inserting:
                    ptr = None if got is EMPTY else unpack_elem(got.fields)
        else:
            yield CycleOp(read=channel)  # keep the fixed 3-cycle structure

    # ---- extraction rounds ----------------------------------------------
    for pos0 in range(n_g):
        target = owner_of(pos0)
        # cycle 1: the rank-1 member extracts the global maximum
        i_am_extractor = in_list and rank == 1
        if i_am_extractor:
            elem = my_list.pop()
            yield CycleOp(write=channel, payload=Message("ext", *pack_elem(elem)))
        else:
            got = yield CycleOp(read=channel)
            elem = unpack_elem(got.fields)
        if target == me:
            output.append(elem)
            account()
        if in_list:
            if i_am_extractor:
                in_list, rank, ptr = False, None, None
            else:
                rank -= 1

        # cycle 2: replacement from the target to the extractor
        if target == me and not i_am_extractor and len(my_list) >= 2:
            rep = my_list.pop(0)  # my smallest remaining input element
            yield CycleOp(write=channel, payload=Message("rep", *pack_elem(rep)))
            account()
        elif i_am_extractor and target != me:
            got = yield CycleOp(read=channel)
            if got is not EMPTY:
                insort(my_list, unpack_elem(got.fields))
                account()
        else:
            yield CycleOp(read=channel)

        # cycle 3: the extractor re-inserts its new top (silence = it left)
        if i_am_extractor:
            if my_list:
                new_top = my_list[-1]
                yield CycleOp(
                    write=channel, payload=Message("top", *pack_elem(new_top))
                )
                reinserting = True
            else:
                yield CycleOp(read=channel)
                new_top = None
                reinserting = False
        else:
            got = yield CycleOp(read=channel)
            reinserting = False
            if got is EMPTY:
                new_top = None
            else:
                new_top = unpack_elem(got.fields)
                if in_list and my_list[-1] < new_top:
                    rank += 1
        if new_top is None:
            # Nothing was re-inserted; every member burns the round's two
            # remaining cycles, so the channel is guaranteed silent —
            # park through them instead of reading twice.
            yield Listen(channel, 2)
            continue

        # cycle 4: P_b answers
        i_am_pb = (
            in_list
            and my_list[-1] > new_top
            and (ptr is None or ptr < new_top)
        )
        if i_am_pb:
            yield CycleOp(write=channel, payload=ins_message())
            ptr = new_top
            silence = False
        else:
            got = yield CycleOp(read=channel)
            silence = got is EMPTY
            if reinserting and not silence:
                rank = got[0]
                ptr = unpack_elem(got.fields[2:]) if got[1] else None
                in_list = True
        if reinserting and silence:
            rank, in_list = 1, True

        # cycle 5: on silence, the rank-2 member reveals the new pointer
        if silence:
            if in_list and rank == 2 and not reinserting:
                yield CycleOp(
                    write=channel, payload=Message("top", *pack_elem(my_list[-1]))
                )
            else:
                got = yield CycleOp(read=channel)
                if reinserting:
                    ptr = None if got is EMPTY else unpack_elem(got.fields)
        else:
            yield CycleOp(read=channel)

    assert len(output) == out_counts[me]
    return output


def merge_sort(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    channel: int = 1,
    phase: str = "merge-sort",
) -> SortResult:
    """Standalone single-channel Merge-Sort of a whole network.

    The §9 remark: on a single channel this achieves the same complexity
    as the IPBAM sorting algorithm of [Dech84] — without concurrent
    write.

    Keys must be distinct (the §3 assumption the linked list relies
    on); :func:`repro.sort.dispatch.mcb_sort` lifts repeated values to
    distinct ``(value, pid, index)`` triples first.
    """
    pids = sorted(parts)
    if pids != list(range(1, net.p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if has_duplicates(parts):
        raise ValueError(
            "merge_sort needs distinct keys (§3); sort repeated values "
            "with mcb_sort, which lifts them to distinct triples"
        )
    counts = [len(parts[i]) for i in pids]

    def program(ctx: ProcContext):
        out = yield from merge_sort_group(
            channel, ctx.pid - 1, counts, list(parts[ctx.pid]), ctx=ctx
        )
        return out

    out = net.run({i: program for i in pids}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in out.items()})
