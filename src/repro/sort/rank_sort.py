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

Both passes park readers and writers alike.  A member only reading
parks on :class:`~repro.mcb.program.Listen` (pass 1 around its own write
run, pass 2 across its output segment); a member only writing hands the
engine its whole run as one :class:`~repro.mcb.program.Emit` (pass 1's
back-to-back elements, pass 2's owned ranks before and after its
segment, at their fixed cycles).  Each member is therefore resumed a
handful of times per pass, not once per cycle.  The aux accounting is
unchanged — a heard list is the engine's bulk delivery of the per-cycle
reads, and pass 1 folds it into the same histogram the reads would have
filled.  Observed runs emit a ``ListenParked``/``ListenWoken`` pair per
listen window; an emit is stepped as its desugared writes and sleeps, so
it adds no event of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Any, Optional, Sequence

from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import Emit, Listen, ProcContext, Sleep
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
    counts = list(counts)
    out_counts = list(out_counts) if out_counts is not None else counts
    g = len(counts)
    n_g = sum(counts)
    if sum(out_counts) != n_g:
        raise ValueError("output segment sizes must sum to the group total")
    if len(my_elems) != counts[group_index]:
        raise ValueError(
            f"member {group_index} announced {counts[group_index]} elements "
            f"but holds {len(my_elems)}"
        )
    if not n_g:
        return []
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    out_prefix = [0]
    for c in out_counts:
        prefix_val = out_prefix[-1] + c
        out_prefix.append(prefix_val)

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
    """
    pids = sorted(parts)
    if pids != list(range(1, net.p + 1)):
        raise ValueError("parts must cover processors 1..p")
    counts = [len(parts[i]) for i in pids]

    def program(ctx: ProcContext):
        out = yield from rank_sort_group(
            channel, ctx.pid - 1, counts, list(parts[ctx.pid]), ctx=ctx
        )
        return out

    out = net.run({i: program for i in pids}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in out.items()})
