"""Rank-Sort: the single-channel sorting algorithm of §6.1.

A group of processors shares one broadcast channel.  Two passes:

1. Elements are broadcast one at a time in processor order; every
   processor maintains a rank counter per local element, incremented
   whenever a larger element is heard.  At the end of the pass each
   processor knows the global (descending) rank of each of its elements.
2. Elements are broadcast in rank order — the owner of rank ``r`` writes
   in cycle ``r`` — and the target processor (the owner of sorted
   position ``r``) stores them.

Linear cycles and messages on one channel, ``O(n_i)`` auxiliary storage
per processor (the rank counters), and it works for arbitrary — even or
uneven — distributions, which is why the §6.1 memory-efficient Columnsort
uses it as the per-virtual-column sorter.

The implementation keeps the counting incremental (a hit histogram
bucketed by local insertion position, turned into suffix sums at the end
of pass 1) so no pass-1 buffering of foreign elements is needed — the
auxiliary footprint really is ``O(n_i)``.

The group sort is one op per member, :class:`SortGroup`, yielded by
:func:`rank_sort_group`.  It is *defined* by its desugared spelling
(:meth:`SortGroup.program`), the two passes above as parked ops: a
member only reading parks on :class:`~repro.mcb.program.Listen` (pass
1 around its own write run, pass 2 across its output segment); a
member only writing hands the engine its whole run as one
:class:`~repro.mcb.program.Emit` (pass 1's back-to-back elements, pass
2's owned ranks before and after its segment, at their fixed cycles).
The aux accounting follows the per-cycle schedule — a heard list is the
engine's bulk delivery of the per-cycle reads, and pass 1 folds it into
the same histogram the reads would have filled.  The reference
interpreter (and so every observed run), the §2 simulators and every
fallback step that spelling, so observed runs emit a
``ListenParked``/``ListenWoken`` pair per listen window and nothing for
the op itself.

The fast engine's unobserved loop may instead run every group of a
stage as one collective step (:meth:`SortGroup.collective`, which says
when): one sort per group, sliced into the output segments and charged
what the two passes would write.  Otherwise it steps the spelling, so
repeated keys still collide at their exact cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter, ne
from typing import Any, Optional, Sequence

from ..core.element import has_duplicates
from ..mcb.errors import ProtocolError
from ..mcb.message import Message, bulk_bits, plain_fields
from ..mcb.network import MCBNetwork
from ..mcb.program import (
    Collective,
    CollectiveOp,
    Emit,
    Listen,
    ProcContext,
    Sleep,
)
from .common import pack_elem, unpack_elem
from .even_pk import SortResult

_msg_of = itemgetter(1)
_fields_of = attrgetter("fields")


def _count_hits(
    heard: list, window: int, own_fields: list, hits: list
) -> None:
    """Fold one pass-1 listen window into the rank histogram.

    ``own_fields`` are my elements' message fields, ascending: packing
    preserves order, so a heard message's fields bisect into them exactly
    where its element bisects into my elements.  Every cycle of the
    window carries some member's element, so hearing fewer messages than
    the window is long means a writer went missing — fail instead of
    undercounting ranks.
    """
    assert len(heard) == window, (
        f"pass 1 heard {len(heard)} elements in a {window}-cycle window"
    )
    fields = map(_fields_of, map(_msg_of, heard))
    for j, c in Counter(map(bisect_left, repeat(own_fields), fields)).items():
        hits[j] += c


def _emit_owned(channel: int, cycles: list, msg_of_rank: dict, t: int):
    """Sub-generator: from cycle ``t``, write each owned rank at its cycle.

    ``cycles`` are the ascending 0-based cycles ``rank - 1`` of ranks I
    own but must send to another member; they go out as one
    :class:`Emit`.  Returns the cycle after the last write (``t`` if
    there was none).
    """
    if cycles:
        yield Emit(
            channel,
            [msg_of_rank[c + 1] for c in cycles],
            at=[c - t for c in cycles],
        )
        t = cycles[-1] + 1
    return t


class SortGroup(CollectiveOp):
    """Member ``member``'s part of one group's Rank-Sort on ``channel``.

    ``out = yield SortGroup(...)`` is *defined* by its desugared
    spelling, :meth:`program`: the two passes of the module docstring,
    as ``Listen``/``Emit``/``Sleep`` ops over ``2 * sum(counts)``
    cycles.  Build it with :func:`rank_sort_group`, which checks the
    arguments and skips an all-empty group.
    """

    __slots__ = (
        "channel", "member", "counts", "out_counts", "ascending", "elems",
        "ctx",
    )

    label = "rank_sort"

    def __init__(
        self,
        channel: int,
        member: int,
        counts: tuple,
        out_counts: tuple,
        ascending: bool,
        elems: Sequence[Any],
        ctx: Optional[ProcContext],
    ):
        self.channel = channel
        self.member = member
        self.counts = counts
        self.out_counts = out_counts
        self.ascending = ascending
        self.elems = elems
        self.ctx = ctx

    def check(self, pid: int, k: int) -> None:
        """The group's channel is one of the network's ``k``."""
        if not 1 <= self.channel <= k:
            raise ProtocolError(
                f"P{pid} sorts a group on invalid channel C{self.channel} "
                f"(k={k})"
            )

    def program(self):
        """The two passes, as :func:`_two_passes` spells them."""
        return _two_passes(
            self.channel, self.member, self.counts, self.elems,
            self.out_counts, self.ascending, self.ctx,
        )

    @classmethod
    def collective(
        cls, ops: list, span: int, max_fields: int
    ) -> Optional[Collective]:
        """Every group's sort at once: one sort of its elements, sliced
        into the members' output segments.

        Taken only if each channel carries one complete group (every
        member once, all agreeing on the group's shape and direction),
        all groups hold the same ``n_g`` elements and end within
        ``span``, every output segment is non-empty, and each group's
        keys are distinct :func:`~repro.mcb.message.plain_fields`
        elements.  Then the ranks pass 1 computes are the sorted
        positions, and pass 2 writes rank ``r`` unless its owner is its
        target: ``n_g`` messages plus one per moved element.
        """
        groups: dict[int, list] = {}
        for i, op in enumerate(ops):
            seats = groups.get(op.channel)
            if seats is None:
                seats = groups[op.channel] = [None] * len(op.counts)
            if not 0 <= op.member < len(seats) or seats[op.member] is not None:
                return None
            seats[op.member] = i
        n_g = None
        for seats in groups.values():
            if None in seats:
                return None
            first = ops[seats[0]]
            shape = (first.counts, first.out_counts, first.ascending)
            for i, c in zip(seats, first.counts):
                op = ops[i]
                if (op.counts, op.out_counts, op.ascending) != shape or (
                    len(op.elems) != c
                ):
                    return None
            if n_g is None:
                n_g = sum(first.counts)
            if sum(first.counts) != n_g or 0 in first.out_counts:
                return None
        if 2 * n_g > span:
            return None

        results: list[Any] = [None] * len(ops)
        bits = 0
        cw = []
        for channel, seats in groups.items():
            first = ops[seats[0]]
            flat = list(chain.from_iterable(ops[i].elems for i in seats))
            fields = plain_fields(flat, max_fields)
            if fields is None or len(set(flat)) != n_g:
                return None  # stepping decides (and may collide)
            order = sorted(
                range(n_g), key=flat.__getitem__, reverse=not first.ascending
            )
            ranked = list(map(flat.__getitem__, order))
            moved = list(compress(ranked, map(
                ne,
                map(_seat_of(first.counts).__getitem__, order),
                _seat_of(first.out_counts),
            )))
            bits += bulk_bits(n_g, fields) + bulk_bits(
                len(moved), plain_fields(moved, max_fields)
            )
            cw.append((channel, n_g + len(moved)))
            at = 0
            for i, c in zip(seats, first.out_counts):
                results[i] = ranked[at:at + c]
                at += c
        for op in ops:
            ctx = op.ctx
            if ctx is not None:
                n_i, out_i = len(op.elems), op.out_counts[op.member]
                ctx.aux_acquire(n_i + 1)
                ctx.aux_acquire(out_i)
                ctx.aux_release(n_i + 1 + out_i)
        return Collective(results, bits, cw, 2 * n_g)


@lru_cache(maxsize=256)
def _seat_of(counts: tuple) -> tuple:
    """The member holding each position of a group laid out by
    ``counts``."""
    return tuple(chain.from_iterable(
        repeat(j, c) for j, c in enumerate(counts)
    ))


def rank_sort_group(
    channel: int,
    group_index: int,
    counts: Sequence[int],
    my_elems: Sequence[Any],
    *,
    out_counts: Optional[Sequence[int]] = None,
    ascending: bool = False,
    ctx: Optional[ProcContext] = None,
):
    """Sub-generator: Rank-Sort within one group sharing ``channel``.

    Yields one :class:`SortGroup` op (none for an all-empty group).

    Parameters
    ----------
    channel:
        The 1-based channel this group owns for the duration.
    group_index:
        My 0-based position within the group.
    counts:
        Element counts of all group members, in group order (globally
        known — compute them with Partial-Sums first if they are not).
    my_elems:
        My local elements.
    out_counts:
        Target segment sizes (defaults to ``counts`` — the paper's
        sorting spec keeps cardinalities).
    ascending:
        Sort the group ascending instead of the paper's descending order
        (rank 1 = smallest).  Used for column 1 in phase 7 of the
        virtual-column Columnsort, where the wrapped elements must end up
        in the top rows (see :mod:`repro.sort.virtual`).
    ctx:
        Optional context for auxiliary-memory accounting.

    Returns
    -------
    list
        My output segment, descending (or ascending if requested).
        Takes exactly ``2 * sum(counts)`` cycles for every member; an
        all-empty group returns at once, without charging any aux memory.
    """
    counts = tuple(counts)
    out_counts = tuple(out_counts) if out_counts is not None else counts
    if sum(out_counts) != sum(counts):
        raise ValueError("output segment sizes must sum to the group total")
    if len(my_elems) != counts[group_index]:
        raise ValueError(
            f"member {group_index} announced {counts[group_index]} elements "
            f"but holds {len(my_elems)}"
        )
    if not sum(counts):
        return []
    return (yield SortGroup(
        channel, group_index, counts, out_counts, ascending, my_elems, ctx
    ))


def _two_passes(
    channel: int,
    group_index: int,
    counts: tuple,
    my_elems: Sequence[Any],
    out_counts: tuple,
    ascending: bool,
    ctx: Optional[ProcContext],
):
    """Sub-generator: the desugared spelling of :class:`SortGroup` — both
    passes for member ``group_index``; returns its output segment."""
    n_g = sum(counts)
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    out_prefix = [0]
    for c in out_counts:
        out_prefix.append(out_prefix[-1] + c)

    # My elements ascending (bisect-friendly), each with the message that
    # carries it: pass 2 resends pass 1's message objects.
    sent = [Message("elem", *pack_elem(e)) for e in my_elems]
    order = sorted(range(len(my_elems)), key=my_elems.__getitem__)
    own_asc = [my_elems[i] for i in order]
    own_msgs = [sent[i] for i in order]
    n_i = len(own_asc)
    # hits[j] = number of heard elements larger than own_asc[j-1 .. ]:
    # a heard x with insertion point j outranks own_asc[0..j).
    hits = [0] * (n_i + 1)
    if ctx is not None:
        ctx.aux_acquire(n_i + 1)

    # ---- pass 1: broadcast everything, count ranks -----------------------
    # Members write in group order, one element per cycle, so the channel
    # carries a message on every cycle: I listen through the runs before
    # and after my own run, and emit that run in one go.
    my_start, my_end = prefix[group_index], prefix[group_index + 1]
    own_fields = [msg.fields for msg in own_msgs]
    if my_start:
        heard = yield Listen(channel, my_start)
        _count_hits(heard, my_start, own_fields, hits)
    if sent:
        yield Emit(channel, sent)
    if n_g > my_end:
        heard = yield Listen(channel, n_g - my_end)
        _count_hits(heard, n_g - my_end, own_fields, hits)

    # hits[j] counts heard elements whose insertion point into own_asc is
    # j, i.e. elements larger than own_asc[0..j) and smaller than
    # own_asc[j..).  Suffix sums give "# heard larger", prefix sums give
    # "# heard smaller".
    heard_larger = [0] * n_i
    acc = 0
    for i in range(n_i - 1, -1, -1):
        acc += hits[i + 1]
        heard_larger[i] = acc
    # A heard x with insertion point j satisfies x < own_asc[i] iff j <= i
    # (elements are distinct), so "# heard smaller" is an inclusive prefix.
    heard_smaller = [0] * n_i
    acc = 0
    for i in range(n_i):
        acc += hits[i]
        heard_smaller[i] = acc
    rank_of_own = {}  # global rank -> element
    msg_of_rank = {}  # global rank -> its message
    for i, e in enumerate(own_asc):
        if ascending:
            rank = 1 + i + heard_smaller[i]
        else:
            rank = 1 + (n_i - 1 - i) + heard_larger[i]
        rank_of_own[rank] = e
        msg_of_rank[rank] = own_msgs[i]

    # ---- pass 2: broadcast in rank order, targets collect ----------------
    # The owner of rank r writes in cycle r - 1.  Outside my output
    # segment I only emit my owned ranks at their cycles; inside it I
    # listen once, filling the silent cycles whose rank I own myself.
    seg_start, seg_end = out_prefix[group_index], out_prefix[group_index + 1]
    output: list[Any] = []
    if ctx is not None:
        ctx.aux_acquire(out_counts[group_index])
    owned = sorted(r - 1 for r in rank_of_own)
    t = yield from _emit_owned(
        channel, [c for c in owned if c < seg_start], msg_of_rank, 0
    )
    if seg_start > t:
        # Wake at seg_start even for an empty segment: the schedule's
        # fast_forward_cycles depend on where sleeps break.
        yield Sleep(seg_start - t)
    if seg_end > seg_start:
        heard_at = dict((yield Listen(channel, seg_end - seg_start)))
        for c in range(seg_start, seg_end):
            if c + 1 in rank_of_own:
                output.append(rank_of_own[c + 1])
                continue
            got = heard_at.get(c - seg_start)
            assert got is not None, "rank owner must broadcast to its target"
            output.append(unpack_elem(got.fields))
    t = yield from _emit_owned(
        channel, [c for c in owned if c >= seg_end], msg_of_rank, seg_end
    )
    if n_g > t:
        yield Sleep(n_g - t)
    if ctx is not None:
        # The counters die with the pass; the output buffer replaces the
        # (same-sized) input list the caller is about to drop, so the
        # steady-state footprint returns to the baseline.  The transient
        # peak of ~2 n_i extra slots was recorded above.
        ctx.aux_release(n_i + 1 + out_counts[group_index])
    assert len(output) == out_counts[group_index]
    return output


def rank_sort(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    channel: int = 1,
    phase: str = "rank-sort",
) -> SortResult:
    """Standalone Rank-Sort of a whole network over a single channel.

    All ``p`` processors form one group on ``channel``; costs
    ``2n`` cycles and at most ``2n`` messages regardless of ``k`` —
    the single-channel baseline of the benchmarks (and the IPBAM-style
    comparison in §9).

    Keys must be distinct (equal keys would share a rank, and their
    owners would write in one cycle); :func:`repro.sort.dispatch.mcb_sort`
    lifts repeated values to distinct ``(value, pid, index)`` triples
    first.
    """
    pids = sorted(parts)
    if pids != list(range(1, net.p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if has_duplicates(parts):
        raise ValueError(
            "rank_sort needs distinct keys (§3); sort repeated values "
            "with mcb_sort, which lifts them to distinct triples"
        )
    counts = [len(parts[i]) for i in pids]

    def program(ctx: ProcContext):
        out = yield from rank_sort_group(
            channel, ctx.pid - 1, counts, list(parts[ctx.pid]), ctx=ctx
        )
        return out

    out = net.run({i: program for i in pids}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in out.items()})
