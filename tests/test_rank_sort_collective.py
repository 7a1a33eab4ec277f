"""Rank-Sort's ``SortGroup`` op is exactly its two-pass spelling.

``out = yield SortGroup(...)`` (what :func:`rank_sort_group` yields) is
*defined* as the ``Listen``/``Emit`` program
:meth:`SortGroup.program` returns.  The fast engine's unobserved loop
runs every group of a stage as one collective step when the whole
network enters it together, undisturbed; observed runs, the reference
interpreter, both §2 simulators and every fallback step the spelling.
These tests demand the same results, ``RunStats``, per-processor aux
peaks and observed event streams from the op and from its spelling, on
every engine, for the collective case and for every condition that
makes the fast engine step instead, and count both paths on
``network_plan_runs_total{op="rank_sort"}``.
"""

from __future__ import annotations

import random

import pytest

from repro import Distribution
from repro.mcb import (
    CollisionError,
    CycleOp,
    Listen,
    MCBNetwork,
    Message,
    ProtocolError,
    Sleep,
)
from repro.mcb.reference import ReferenceMCBNetwork, run_simulated_reference
from repro.mcb.simulate import run_simulated
from repro.obs import EventLog
from repro.obs.metrics import global_registry
from repro.sort import mcb_sort, rank_sort, rank_sort_group, sort_virtual
from repro.sort.rank_sort import SortGroup
from repro.sort.recursive import sort_recursive

#: Every (engine, observed) pair a stage can run on.
ENGINES = [
    (MCBNetwork, False),
    (MCBNetwork, True),
    (ReferenceMCBNetwork, False),
    (ReferenceMCBNetwork, True),
]


def runs(op: str = "rank_sort") -> dict[str, float]:
    counter = global_registry().counter("network_plan_runs_total")
    return {
        path: counter.get(op=op, path=path)
        for path in ("collective", "stepped")
    }


def runs_since(before: dict[str, float], op: str = "rank_sort"):
    return {path: n - before[path] for path, n in runs(op).items()}


def group_sort(form: str, channel, member, counts, elems, ctx, **kw):
    """Sub-generator: one member's group sort as the ``SortGroup`` op
    (``"op"``) or as the spelling that defines it (``"desugared"``)."""
    if form == "op":
        return (yield from rank_sort_group(
            channel, member, counts, elems, ctx=ctx, **kw
        ))
    out_counts = tuple(kw.get("out_counts") or counts)
    op = SortGroup(
        channel, member, tuple(counts), out_counts,
        kw.get("ascending", False), elems, ctx,
    )
    return (yield from op.program())


def group_programs(groups, form: str, forms=None, channels=None):
    """Group ``c`` of ``groups`` (``(counts, elems, kw)`` each) sorts on
    channel ``c + 1`` (or ``channels[c]``); processors are numbered
    group by group.  ``forms`` overrides the spelling of single
    processors."""
    programs = {}
    pid = 1
    channels = channels or range(1, len(groups) + 1)
    for channel, (counts, elems, kw) in zip(channels, groups):
        at = 0
        for member, c in enumerate(counts):
            mine = list(elems[at:at + c])
            f = (forms or {}).get(pid, form)

            def prog(ctx, f=f, channel=channel, member=member, mine=mine,
                     counts=counts, kw=kw):
                return (yield from group_sort(
                    f, channel, member, counts, mine, ctx, **kw
                ))

            programs[pid] = prog
            pid += 1
            at += c
    return programs


def outcome(net, log, run):
    try:
        res = run()
    except Exception as exc:  # compared, not swallowed
        res = (type(exc).__name__, str(exc))
    return (
        res,
        net.stats.to_dict(),
        [dict(ph.aux_peak) for ph in net.stats.phases],
        None if log is None else log.events,
    )


def run_engine(engine, observed, p, k, programs, *, prelude=None, **kw):
    net = engine(p=p, k=k)
    log = None
    if observed:
        log = EventLog()
        net.attach_observer(log)
    if prelude is not None:
        net.run(prelude, phase="prelude")
    return outcome(net, log, lambda: net.run(programs, phase="rank", **kw))


def run_everywhere(p, k, programs, **kw):
    """Run both spellings on every engine, observed and not; check that
    all agree (event streams among the observed runs) and return the
    fast engine's unobserved op outcome with its path counts."""
    before = runs()
    first = run_engine(MCBNetwork, False, p, k, programs("op"), **kw)
    paths = runs_since(before)
    outcomes = [
        (observed, run_engine(cls, observed, p, k, programs(form), **kw))
        for cls, observed in ENGINES
        for form in ("op", "desugared")
    ]
    assert all(o[:3] == first[:3] for _, o in outcomes)
    streams = [o[3] for observed, o in outcomes if observed]
    assert streams[0] and all(s == streams[0] for s in streams)
    return first, paths


def distinct(n: int, seed: int = 0) -> list[int]:
    return random.Random(seed).sample(range(-5 * n, 5 * n), n)


class TestCollectiveStep:
    @pytest.mark.parametrize("ascending", [False, True])
    @pytest.mark.parametrize(
        "counts, out_counts",
        [([3, 1, 5, 2], None), ([3, 0, 5, 2], [1, 4, 1, 4]), ([1], None)],
    )
    def test_groups_run_in_one_step(self, counts, out_counts, ascending):
        n_g = sum(counts)
        kw = {"out_counts": out_counts, "ascending": ascending}
        groups = [
            (counts, distinct(n_g, 1), kw),
            (counts, [(v, 0, 1) for v in distinct(n_g, 2)], kw),
        ]
        p = 2 * len(counts)
        (res, stats, *_), paths = run_everywhere(
            p, 2, lambda form: group_programs(groups, form)
        )
        assert paths == {"collective": p, "stepped": 0}
        assert stats["totals"]["cycles"] == 2 * n_g
        for (counts, elems, _), base in zip(groups, (0, len(counts))):
            merged = [e for q in range(len(counts)) for e in res[base + q + 1]]
            assert merged == sorted(elems, reverse=not ascending)

    def test_sort_virtual_phases(self):
        # Triples decline VirtualSort's table, so its definition runs
        # and yields the five Rank-Sorts.
        parts = {
            pid: [(v, pid, i) for i, v in enumerate(vals)]
            for pid, vals in Distribution.even(1024, 16, seed=0).parts.items()
        }
        before, plans = runs(), runs("run_plan")
        sort_virtual(MCBNetwork(16, 4), parts, sorter="rank")
        assert runs_since(before) == {"collective": 5 * 16, "stepped": 0}
        assert runs_since(plans, "run_plan") == {
            "collective": 4 * 16, "stepped": 0,
        }

    def test_sort_recursive_base_case(self):
        # n=256 on k=8 recurses once on 4 columns; each of their 5
        # sorting phases runs the §6.1 base case (5 Rank-Sorts) on 4
        # blocks of 16 processors, all 16 groups in one step.
        parts = Distribution.even(256, 64, seed=0).parts
        before = runs()
        sort_recursive(MCBNetwork(64, 8), parts)
        assert runs_since(before) == {"collective": 5 * 5 * 64, "stepped": 0}

    def test_mcb_sort_rank_is_one_group(self):
        parts = Distribution.even(256, 8, seed=0).parts
        before = runs()
        mcb_sort(MCBNetwork(8, 2), parts, strategy="rank")
        assert runs_since(before) == {"collective": 8, "stepped": 0}


class TestFallbacksStepTheSpelling:
    def test_group_missing_one_member(self):
        counts = [4, 4, 4]
        groups = [(counts, distinct(12), {})]

        def programs(form):
            # The last member always spells the sort out.
            return group_programs(groups, form, {3: "desugared"})

        _, paths = run_everywhere(3, 1, programs)
        assert paths == {"collective": 0, "stepped": 2}

    def test_repeated_keys_collide_at_their_cycle(self):
        rng = random.Random(1)
        elems = [rng.randrange(4) for _ in range(16)]
        groups = [([4, 4, 4, 4], elems, {})]
        (res, stats, *_), paths = run_everywhere(
            4, 1, lambda form: group_programs(groups, form)
        )
        assert res[0] == "CollisionError"
        assert stats["phases"][0]["collisions"] == 1
        assert paths == {"collective": 0, "stepped": 4}

    def test_collision_writers_in_slot_order(self):
        # A bystander writes channel 1 in the sort's first cycle, where
        # member 0 writes its first element: the stepped op's write is
        # collected after the bystander's, yet the error lists the
        # writers in processor order.
        groups = [([2, 2], distinct(4), {})]

        def programs(form):
            def bystander(ctx):
                yield CycleOp(write=1, payload=Message("x"))

            return {**group_programs(groups, form), 3: bystander}

        (res, *_), paths = run_everywhere(3, 1, programs)
        assert res == ("CollisionError", str(CollisionError(0, 1, [1, 3])))
        assert paths == {"collective": 0, "stepped": 2}

    def test_empty_output_segment(self):
        # The stepped spelling's write runs are nested Emit ops, stepped
        # on every engine.
        elems = distinct(6)
        for counts, ascending in [([2, 3, 1], False), ([1, 1, 4], True)]:
            kw = {"out_counts": [3, 0, 3], "ascending": ascending}
            before = runs("emit")
            (res, *_), paths = run_everywhere(
                3, 1,
                lambda form: group_programs([(counts, elems, kw)], form),
            )
            ranked = sorted(elems, reverse=not ascending)
            assert res == {1: ranked[:3], 2: [], 3: ranked[3:]}
            assert paths == {"collective": 0, "stepped": 3}
            emits = runs_since(before, "emit")
            assert emits["collective"] == 0 and emits["stepped"] > 0

    def test_groups_of_different_lengths(self):
        groups = [([2, 2], distinct(4, 1), {}), ([3, 2], distinct(5, 2), {})]
        _, paths = run_everywhere(
            4, 2, lambda form: group_programs(groups, form)
        )
        assert paths == {"collective": 0, "stepped": 4}

    def test_two_groups_on_one_channel(self):
        # Each group needs a channel of its own; sharing one collides.
        groups = [([2, 2], distinct(8)[:4], {}), ([2, 2], distinct(8)[4:], {})]
        (res, *_), paths = run_everywhere(
            4, 1, lambda form: group_programs(groups, form, channels=[1, 1])
        )
        assert res[0] == "CollisionError"
        assert paths == {"collective": 0, "stepped": 4}

    @pytest.mark.parametrize("when", ["first", "mid"])
    def test_other_processor_awake(self, when):
        groups = [([3, 3], distinct(6), {})]

        def programs(form):
            def other(ctx):
                if when == "mid":
                    yield Sleep(4)
                yield CycleOp(write=2, payload=Message("other", 1))
                return "wrote"

            return {**group_programs(groups, form), 3: other}

        (res, *_), paths = run_everywhere(3, 2, programs)
        assert res[3] == "wrote"
        assert paths == {"collective": 0, "stepped": 2}

    def test_bystander_listener_parked(self):
        groups = [([3, 3], distinct(6), {})]

        def programs(form):
            def listener(ctx):
                heard = yield Listen(1, 12)
                return [off for off, _ in heard]

            return {**group_programs(groups, form), 3: listener}

        (res, stats, *_), paths = run_everywhere(3, 1, programs)
        assert len(res[3]) == stats["totals"]["messages"]
        assert paths == {"collective": 0, "stepped": 2}

    def test_float_keys(self):
        groups = [([3, 3], [x + 0.5 for x in distinct(6)], {})]
        _, paths = run_everywhere(
            2, 1, lambda form: group_programs(groups, form)
        )
        assert paths == {"collective": 0, "stepped": 2}

    @pytest.mark.parametrize("slack", [-1, 0])
    def test_ending_near_max_cycles(self, slack):
        groups = [([3, 3], distinct(6), {})]
        (res, *_), paths = run_everywhere(
            2, 1, lambda form: group_programs(groups, form),
            max_cycles=12 + slack,
        )
        assert paths == (
            {"collective": 0, "stepped": 2} if slack < 0
            else {"collective": 2, "stepped": 0}
        )


class TestSortGroupInsideSimulation:
    def test_virtual_group_is_spelled_out(self):
        groups = [([2, 3, 1, 2], distinct(8), {"ascending": True})]
        outcomes = []
        for simulate, cls in (
            (run_simulated, MCBNetwork),
            (run_simulated_reference, ReferenceMCBNetwork),
        ):
            for form in ("op", "desugared"):
                net = cls(p=2, k=1)
                programs = group_programs(groups, form)
                outcomes.append(outcome(
                    net, None, lambda: simulate(net, 4, 1, programs)
                ))
        assert sorted(v for seg in outcomes[0][0].values() for v in seg) == (
            sorted(groups[0][1])
        )
        assert all(o == outcomes[0] for o in outcomes)


class TestMalformedSortGroup:
    def test_channel_out_of_range(self):
        def bad(ctx):
            yield SortGroup(3, 0, (1,), (1,), False, [1], ctx)

        errors = []
        for cls, observed in ENGINES:
            net = cls(p=2, k=2)
            if observed:
                net.attach_observer(EventLog())
            with pytest.raises(ProtocolError, match="invalid channel C3") as e:
                net.run({1: bad})
            errors.append(str(e.value))
        for simulate, cls in (
            (run_simulated, MCBNetwork),
            (run_simulated_reference, ReferenceMCBNetwork),
        ):
            with pytest.raises(ProtocolError, match="invalid channel C3") as e:
                simulate(cls(p=1, k=1), 2, 2, {1: bad})
            errors.append(str(e.value))
        assert len(set(errors)) == 1


class TestRepeatedKeysRejected:
    """Equal keys share a rank, so their owners would write in one
    cycle (the rank sorter collided at cycle 16, the merge sorter at
    cycle 12, ``sort_recursive`` at cycle 32); the entry points refuse
    them and point at ``mcb_sort``."""

    @staticmethod
    def parts():
        rng = random.Random(1)
        return {pid: [rng.randrange(4) for _ in range(4)] for pid in range(1, 9)}

    @pytest.mark.parametrize("sorter", ["rank", "merge"])
    def test_sort_virtual(self, sorter):
        with pytest.raises(ValueError, match="§3.*mcb_sort"):
            sort_virtual(MCBNetwork(8, 2), self.parts(), sorter=sorter)

    def test_rank_sort(self):
        with pytest.raises(ValueError, match="§3.*mcb_sort"):
            rank_sort(MCBNetwork(8, 2), self.parts())

    def test_sort_recursive(self):
        with pytest.raises(ValueError, match="§3.*mcb_sort"):
            sort_recursive(MCBNetwork(8, 2), self.parts())

    @pytest.mark.parametrize("strategy", ["virtual", "virtual-merge", "rank"])
    def test_mcb_sort_lifts_them(self, strategy):
        parts = self.parts()
        out = mcb_sort(MCBNetwork(8, 2), parts, strategy=strategy).output
        merged = [v for pid in range(1, 9) for v in out[pid]]
        assert merged == sorted(
            (v for vals in parts.values() for v in vals), reverse=True
        )
