"""Rank-Sort on ``Listen`` is cost-identical to its per-cycle spelling.

``rank_sort_group`` parks its readers on ``Listen`` windows instead of
yielding one ``CycleOp(read=ch)`` per cycle.  ``Listen`` is defined by
that desugaring, so the rewrite must change nothing observable except
generator resumptions: :func:`per_cycle_rank_sort_group` below keeps the
per-cycle schedule as an oracle, and these tests demand identical
outputs, ``RunStats.to_dict()``, per-processor aux peaks and broadcast
events (``MessageBroadcast.readers`` included) on both engines, standalone
and inside the §6.1 virtual-column Columnsort.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Distribution
from repro.mcb import EMPTY, CycleOp, MCBNetwork, Message, Sleep
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import EventLog, MessageBroadcast
from repro.sort import virtual
from repro.sort.common import pack_elem, unpack_elem
from repro.sort.rank_sort import rank_sort_group

EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def per_cycle_rank_sort_group(
    channel, group_index, counts, my_elems, *, out_counts=None,
    ascending=False, ctx=None,
):
    """The per-cycle Rank-Sort schedule: one yield per read cycle."""
    counts = list(counts)
    out_counts = list(out_counts) if out_counts is not None else counts
    n_g = sum(counts)
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    out_prefix = [0]
    for c in out_counts:
        out_prefix.append(out_prefix[-1] + c)

    own_asc = sorted(my_elems)
    n_i = len(own_asc)
    hits = [0] * (n_i + 1)
    if ctx is not None:
        ctx.aux_acquire(n_i + 1)

    my_start, my_end = prefix[group_index], prefix[group_index + 1]
    for t in range(n_g):
        if my_start <= t < my_end:
            e = my_elems[t - my_start]
            yield CycleOp(write=channel, payload=Message("elem", *pack_elem(e)))
        else:
            got = yield CycleOp(read=channel)
            x = unpack_elem(got.fields)
            hits[bisect_left(own_asc, x)] += 1

    heard_larger = [0] * n_i
    acc = 0
    for i in range(n_i - 1, -1, -1):
        acc += hits[i + 1]
        heard_larger[i] = acc
    heard_smaller = [0] * n_i
    acc = 0
    for i in range(n_i):
        acc += hits[i]
        heard_smaller[i] = acc
    rank_of_own = {}
    for i, e in enumerate(own_asc):
        if ascending:
            rank = 1 + i + heard_smaller[i]
        else:
            rank = 1 + (n_i - 1 - i) + heard_larger[i]
        rank_of_own[rank] = e

    seg_start, seg_end = out_prefix[group_index], out_prefix[group_index + 1]
    output = []
    if ctx is not None:
        ctx.aux_acquire(out_counts[group_index])
    t = 0
    while t < n_g:
        rank = t + 1
        i_own = rank in rank_of_own
        i_target = seg_start <= t < seg_end
        if not i_own and not i_target:
            nxt = n_g
            future_owned = [r - 1 for r in rank_of_own if r - 1 > t]
            if future_owned:
                nxt = min(nxt, min(future_owned))
            if t < seg_start:
                nxt = min(nxt, seg_start)
            yield Sleep(nxt - t)
            t = nxt
            continue
        if i_own:
            e = rank_of_own[rank]
            if i_target:
                output.append(e)
                yield Sleep(1)
            else:
                yield CycleOp(write=channel, payload=Message("elem", *pack_elem(e)))
        else:
            got = yield CycleOp(read=channel)
            assert got is not EMPTY, "rank owner must broadcast to its target"
            output.append(unpack_elem(got.fields))
        t += 1
    if ctx is not None:
        ctx.aux_release(n_i + 1 + out_counts[group_index])
    return output


def observed_run(net, observed, programs):
    """Run a phase (with an ``EventLog`` attached if ``observed``);
    return everything the rewrite must leave unchanged."""
    log = EventLog()
    if observed:
        net.attach_observer(log)
    out = net.run(programs, phase="rank")
    broadcasts = [ev for ev in log.events if isinstance(ev, MessageBroadcast)]
    return (
        out,
        net.stats.to_dict(),
        [dict(ph.aux_peak) for ph in net.stats.phases],
        broadcasts,
    )


@st.composite
def groups(draw):
    """Group sizes (zero-count members allowed), a different output split,
    distinct elements, and a sort direction."""
    counts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    if sum(counts) == 0:
        counts[draw(st.integers(0, len(counts) - 1))] = 1
    n_g = sum(counts)
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, n_g), min_size=len(counts) - 1,
                max_size=len(counts) - 1,
            )
        )
    )
    out_counts = [b - a for a, b in zip([0] + cuts, cuts + [n_g])]
    elems = draw(
        st.lists(
            st.integers(-10**6, 10**6), min_size=n_g, max_size=n_g, unique=True
        )
    )
    ascending = draw(st.booleans())
    return counts, out_counts, elems, ascending


class TestRankSortMatchesPerCycleSchedule:
    @EXAMPLES
    @given(
        group=groups(),
        engine=st.sampled_from([MCBNetwork, ReferenceMCBNetwork]),
        observed=st.booleans(),
    )
    def test_group_run_identical(self, group, engine, observed):
        counts, out_counts, elems, ascending = group
        g = len(counts)
        parts, base = {}, 0
        for q, c in enumerate(counts, start=1):
            parts[q] = elems[base : base + c]
            base += c

        def programs(sort_group):
            def prog(ctx):
                return (
                    yield from sort_group(
                        1, ctx.pid - 1, counts, parts[ctx.pid],
                        out_counts=out_counts, ascending=ascending, ctx=ctx,
                    )
                )

            return {q: prog for q in parts}

        new = observed_run(
            engine(p=g, k=1), observed, programs(rank_sort_group)
        )
        old = observed_run(
            engine(p=g, k=1), observed, programs(per_cycle_rank_sort_group)
        )
        assert new == old
        out = new[0]
        merged = [e for q in sorted(out) for e in out[q]]
        assert merged == sorted(elems, reverse=not ascending)
        assert [len(out[q]) for q in sorted(out)] == out_counts
        # Every member still takes exactly 2 * n_g cycles.
        assert new[1]["totals"]["cycles"] == 2 * sum(counts)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    @pytest.mark.parametrize("n,p,k", [(16, 4, 2), (64, 8, 2), (256, 8, 4)])
    def test_sort_virtual_identical(self, n, p, k, seed):
        # The §6.1 memory-efficient Columnsort, with either schedule as
        # its per-virtual-column sorter.  The fast engine runs the
        # whole sort from its table; the reference interpreter runs its
        # definition, which calls the patched group sort.
        d = Distribution.even(n, p, seed=seed)

        def run(sort_group, engine):
            net = engine(p=p, k=k)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(virtual, "rank_sort_group", sort_group)
                res = virtual.sort_virtual(net, d.parts, sorter="rank")
            return (
                res.output,
                net.stats.to_dict(),
                [dict(ph.aux_peak) for ph in net.stats.phases],
            )

        table = run(rank_sort_group, MCBNetwork)
        assert table == run(rank_sort_group, ReferenceMCBNetwork)
        assert table == run(per_cycle_rank_sort_group, ReferenceMCBNetwork)
