"""``Emit`` is exactly its desugared ``Sleep``/``CycleOp`` write run.

``Emit(ch, messages, at)`` is *defined* as writing ``messages[i]`` at
offset ``at[i]`` from the yield cycle, every gap one ``Sleep``, with one
resume (``None``) in the cycle after the last write.  The fast engine
replays that run without resuming the generator; observed runs, the
reference interpreter and both §2 simulators step the same ops.  These
tests spell the desugaring out by hand (:func:`hand_emit`, written
independently of ``repro.mcb.program.desugar_emit``) and demand the same
results, ``RunStats``, per-processor aux peaks and observed event
streams as the ``Emit`` form on every engine — including mid-run
collisions and oversized messages — and the same ``ProtocolError`` for
every malformed ``Emit``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mcb import (
    EMPTY,
    CollisionError,
    CycleOp,
    Emit,
    Listen,
    MCBNetwork,
    Message,
    MessageSizeError,
    ProtocolError,
    Sleep,
)
from repro.mcb.reference import ReferenceMCBNetwork, run_simulated_reference
from repro.mcb.simulate import run_simulated

EXAMPLES = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Every (engine, observed) pair a phase can run on.
ENGINES = [
    (MCBNetwork, False),
    (MCBNetwork, True),
    (ReferenceMCBNetwork, False),
    (ReferenceMCBNetwork, True),
]
SIMULATORS = [
    (run_simulated, MCBNetwork),
    (run_simulated_reference, ReferenceMCBNetwork),
]


def offsets(first: int, gaps: list[int]) -> list[int]:
    """Write offsets: ``first``, then each next one ``gap`` idle cycles on."""
    at = [first]
    for gap in gaps:
        at.append(at[-1] + gap + 1)
    return at


def hand_emit(channel, messages, at):
    """The per-cycle spelling of ``Emit(channel, messages, at)``."""
    t = 0
    for a, msg in zip(at, messages):
        if a > t:
            yield Sleep(a - t)
        yield CycleOp(write=channel, payload=msg)
        t = a + 1


def emit(form: str, channel, messages, at):
    """Sub-generator: one write run in ``form`` (``"emit"`` or ``"hand"``);
    returns what the program was resumed with."""
    if form == "hand":
        yield from hand_emit(channel, messages, at)
        return None
    default = list(range(len(messages)))
    return (yield Emit(channel, messages, None if at == default else at))


def script_program(scripts: dict, form: str):
    """Programs running each pid's step list; every pid writes only its
    own channel, so the runs are collision-free."""

    def prog(ctx):
        log = []
        for j, step in enumerate(scripts[ctx.pid]):
            kind = step[0]
            if kind == "emit":
                at = offsets(step[1], step[2])
                msgs = [
                    Message("e", ctx.pid, j, 1 << (i * 7))
                    for i in range(len(at))
                ]
                ctx.aux_acquire(len(at))
                got = yield from emit(form, ctx.pid, msgs, at)
                log.append(("emit", got))
            elif kind == "sleep":
                log.append(("sleep", (yield Sleep(step[1]))))
            elif kind == "listen":
                heard = yield Listen(step[1], step[2])
                log.append(("listen", [(o, m.fields) for o, m in heard]))
            elif kind == "until":
                off, msg = yield Listen(step[1], until_nonempty=True)
                log.append(("until", off, msg.fields))
            elif kind == "read":
                got = yield CycleOp(read=step[1])
                log.append(("read", None if got is EMPTY else got.fields))
            else:
                yield CycleOp(write=ctx.pid, payload=Message("w", ctx.pid, j))
        return log

    return {pid: prog for pid in scripts}


@st.composite
def scripts(draw, *, until: bool = True):
    """p programs of up to four steps each; channel ``pid`` is pid's own."""
    p = draw(st.integers(2, 5))
    chan = st.integers(1, p)
    kinds = [
        st.tuples(
            st.just("emit"),
            st.sampled_from([0, 1, 2, 5]),
            st.lists(st.sampled_from([0, 1, 2, 4]), max_size=4),
        ),
        st.tuples(st.just("sleep"), st.integers(0, 4)),
        st.tuples(st.just("listen"), chan, st.integers(0, 7)),
        st.tuples(st.just("read"), chan),
        st.tuples(st.just("write")),
    ]
    if until:
        kinds.append(st.tuples(st.just("until"), chan))
    step = st.one_of(*kinds)
    return p, {
        pid: draw(st.lists(step, max_size=4)) for pid in range(1, p + 1)
    }


def outcome(net, run):
    """Everything the two forms must agree on, or the error they raise."""
    try:
        res = run()
    except Exception as exc:  # compared, not swallowed
        res = (type(exc).__name__, str(exc))
    return (
        res,
        net.stats.to_dict(),
        [dict(ph.aux_peak) for ph in net.stats.phases],
        list(net.events),
    )


def run_engine(engine, observed, p, k, programs, prelude=None):
    net = engine(p=p, k=k, record_trace=observed)
    if prelude is not None:
        net.run(prelude, phase="prelude")
    return outcome(net, lambda: net.run(programs, phase="emit"))


def run_everywhere(p, k, programs, prelude=None):
    """Run both forms on every engine, observed and not; check that all
    agree (event streams among the observed runs) and return one outcome."""
    runs = [
        (observed, run_engine(cls, observed, p, k, programs(form), prelude))
        for cls, observed in ENGINES
        for form in ("emit", "hand")
    ]
    first = runs[0][1]
    assert all(o[:3] == first[:3] for _, o in runs)
    streams = [o[3] for observed, o in runs if observed]
    assert streams[0] and all(s == streams[0] for s in streams)
    return first


class TestEmitMatchesDesugaring:
    @EXAMPLES
    @given(case=scripts(), engine=st.sampled_from(ENGINES))
    def test_scripts_identical(self, case, engine):
        p, steps = case
        cls, observed = engine
        new = run_engine(cls, observed, p, p, script_program(steps, "emit"))
        old = run_engine(cls, observed, p, p, script_program(steps, "hand"))
        assert new == old

    @EXAMPLES
    @given(case=scripts())
    def test_fast_engine_matches_reference(self, case):
        p, steps = case
        programs = script_program(steps, "emit")
        for observed in (False, True):
            fast = run_engine(MCBNetwork, observed, p, p, programs)
            ref = run_engine(ReferenceMCBNetwork, observed, p, p, programs)
            assert fast == ref

    @settings(max_examples=40, deadline=None)
    @given(case=scripts(until=False))
    def test_scripts_identical_inside_simulation(self, case):
        # No until_nonempty listens: an unanswered one inside a simulation
        # reads until max_cycles (docs/MODEL.md).
        p, steps = case
        real_p = max(1, p // 2)
        outcomes = []
        for simulate, cls in SIMULATORS:
            for form in ("emit", "hand"):
                net = cls(p=real_p, k=1)
                programs = script_program(steps, form)
                outcomes.append(
                    outcome(net, lambda: simulate(net, p, p, programs))
                )
        assert all(o == outcomes[0] for o in outcomes)

    @pytest.mark.parametrize("first", [0, 1, 2, 5])
    @pytest.mark.parametrize("gap", [0, 1, 2, 5])
    @pytest.mark.parametrize("listener", [True, False])
    def test_every_first_offset_and_gap(self, first, gap, listener):
        # A 1-cycle wait is a participating cycle (Sleep(1)); a longer one
        # is a sleep that fast-forwards unless a listener is parked.
        at = offsets(first, [gap, gap])

        def programs(form):
            def prog(ctx):
                if ctx.pid == 1:
                    msgs = [Message("e", i) for i in range(3)]
                    got = yield from emit(form, 1, msgs, at)
                    return got
                if not listener:
                    yield Sleep(at[-1] + 1)
                    return []
                heard = yield Listen(1, at[-1] + 1)
                return [(o, m.fields) for o, m in heard]

            return {1: prog, 2: prog}

        res, stats = run_everywhere(2, 1, programs)[:2]
        assert res[1] is None
        if listener:
            assert res[2] == [(a, (i,)) for i, a in enumerate(at)]
        skipped = stats["phases"][0]["fast_forward_cycles"]
        if listener:
            assert skipped == 0
        else:
            assert skipped == max(0, first - 1) + 2 * max(0, gap - 1)

    def test_window_overlaps_listeners(self):
        # Bounded listeners open before, during and after the run, and
        # until_nonempty listeners waiting on its first and a later write.
        at = [2, 3, 6, 10]

        def programs(form):
            def prog(ctx):
                pid = ctx.pid
                if pid == 1:
                    msgs = [Message("e", i) for i in range(len(at))]
                    got = yield from emit(form, 1, msgs, at)
                    yield CycleOp(write=1, payload=Message("tail"))
                    return got
                if pid == 2:
                    heard = yield Listen(1, 5)
                    more = yield Listen(1, 9)
                    return [(o, m.fields) for o, m in heard + more]
                if pid == 3:
                    off, msg = yield Listen(1, until_nonempty=True)
                    yield Sleep(off + 2)
                    off2, msg2 = yield Listen(1, until_nonempty=True)
                    return (off, msg.fields, off2, msg2.fields)
                yield Sleep(4)
                heard = yield Listen(1, 3)
                return [(o, m.fields) for o, m in heard]

            return {pid: prog for pid in (1, 2, 3, 4)}

        assert run_everywhere(4, 2, programs)[0] == {
            1: None,
            2: [(2, (0,)), (3, (1,)), (1, (2,)), (5, (3,)), (6, ())],
            3: (2, (0,), 3, (3,)),
            4: [(2, (2,))],
        }


class TestEmitErrorsMatchDesugaring:
    @pytest.mark.parametrize("clash", ["write", "emit"])
    def test_collision_mid_run(self, clash):
        # The second writer clashes at cycle 3 with a plain write, or with
        # an emit of its own whose run lines up with the first one's.
        def programs(form):
            def prog(ctx):
                if ctx.pid == 1:
                    msgs = [Message("e", i) for i in range(4)]
                    yield from emit(form, 1, msgs, [0, 1, 3, 4])
                    return "done"
                if clash == "emit":
                    msgs = [Message("c", i) for i in range(2)]
                    yield from emit(form, 1, msgs, [3, 4])
                    return "clashed"
                yield Sleep(3)
                yield CycleOp(write=1, payload=Message("clash"))
                return "clashed"

            return {1: prog, 2: prog}

        prelude = {1: lambda ctx: (yield CycleOp(write=1, payload=Message("x")))}
        res, stats = run_everywhere(2, 1, programs, prelude)[:2]
        assert res == ("CollisionError", str(CollisionError(3, 1, [1, 2])))
        phase = stats["phases"][1]
        assert phase["collisions"] == 1 and phase["messages"] == 2

    @pytest.mark.parametrize(
        "bad, error",
        [
            (Message("big", *range(9)), MessageSizeError),
            ("not a message", ProtocolError),
        ],
    )
    @pytest.mark.parametrize("at", [[0, 2, 5], [0, 1, 2]])
    def test_bad_message_mid_run(self, bad, error, at):
        def programs(form):
            def prog(ctx):
                msgs = [Message("e", 0), Message("e", 1), bad]
                yield from emit(form, 1, msgs, at)
                return "done"

            def listener(ctx):
                return (yield Listen(1, 9))

            return {1: prog, 2: listener}

        prelude = {1: lambda ctx: (yield Sleep(3))}
        res, stats = run_everywhere(2, 1, programs, prelude)[:2]
        assert res[0] == error.__name__
        assert [ph["name"] for ph in stats["phases"]] == ["prelude"]

    @pytest.mark.parametrize(
        "op, message",
        [
            (Emit(1, []), "P1 yielded an Emit with no messages"),
            (Emit(1, [Message("e")], at=[-1]), "negative emit offset"),
            (
                Emit(1, [Message("e"), Message("f")], at=[2, 2]),
                "offsets that do not increase",
            ),
            (
                Emit(1, [Message("e"), Message("f")], at=[3, 1]),
                "offsets that do not increase",
            ),
            (
                Emit(1, [Message("e"), Message("f")], at=[0]),
                "2 messages but 1 offsets",
            ),
            (Emit(0, [Message("e")]), r"invalid channel C0 \(k=2\)"),
            (Emit(3, [Message("e")]), r"invalid channel C3 \(k=2\)"),
        ],
    )
    def test_malformed_emit_same_error_everywhere(self, op, message):
        def bad(ctx):
            yield op

        errors = []
        for cls, observed in ENGINES:
            with pytest.raises(ProtocolError, match=message) as err:
                cls(p=2, k=2, record_trace=observed).run({1: bad})
            errors.append(str(err.value))
        for simulate, cls in SIMULATORS:
            with pytest.raises(ProtocolError, match=message) as err:
                simulate(cls(p=2, k=1), 4, 2, {1: bad})
            errors.append(str(err.value))
        assert len(set(errors)) == 1
