"""The per-processor program protocol.

A processor program is a Python *generator function* ``f(ctx)`` that yields
one action per synchronous cycle.  This makes programs genuinely
distributed: between yields a program may run arbitrary local computation
(free in the MCB cost model) but can only observe its own state plus the
values delivered by its channel reads.

Per cycle a program yields either

* :class:`CycleOp` — write at most one channel, read at most one channel
  (exactly the access rule of Section 2: "a processor may access two
  channels — one channel for the purpose of writing and the other for
  reading"); the value sent back into the generator at the next step is the
  read result (a :class:`~repro.mcb.message.Message`,
  :data:`~repro.mcb.message.EMPTY` for a silent channel, or ``None`` if the
  op did not read); or

* :class:`Sleep` — idle for an exact number of cycles.  Used by the paper's
  schedules in which a processor "awaits its turn to write by counting
  cycles" (Sections 7.2 and 8.1).  Sleeping is semantically identical to
  yielding that many empty ``CycleOp()`` but lets the engine fast-forward;
  or

* :class:`Listen` — read one channel for a window of cycles (or until the
  first non-empty broadcast) without being resumed per cycle.  Listening
  is semantically identical to yielding that many ``CycleOp(read=ch)``
  but lets the engine *park* the reader on a per-channel wait-list, so a
  cycle's cost tracks the active writers rather than ``p`` (most of the
  paper's phases are "few writers, many listeners"); or

* a :class:`CollectiveOp` — a step a whole group enters together.
  ``x = yield op`` is semantically identical to ``x = yield from
  desugar_collective(pid, op, k)``; when the whole group enters it
  together the engine may run it as one step.  :class:`RunPlan` runs
  one processor's part of an oblivious
  :class:`~repro.mcb.vector.plan.SchedulePlan` (a §5.2 columnsort
  transfer phase, a comparator-network round), Rank-Sort's
  :class:`~repro.sort.rank_sort.SortGroup` one member's part of a
  single-channel group sort, :class:`~repro.prefix.mcb_partial_sums.Sweep`
  a §7.1 tree sweep, :class:`~repro.sort.ones.SortOnes` §8's pair
  sort, :class:`~repro.select.filtering.Announce` §8's ``med*``
  announce and :class:`~repro.sort.virtual.VirtualSort` §6.1's whole
  virtual-column sort (the four :class:`StageOp` classes, whose whole
  stage the fast engine runs from the processors' values), and
  :class:`Emit`
  writes a run of
  messages on one channel at fixed offsets, resumed once after the
  last write (a fixed write schedule, like the writers of Rank-Sort
  or of the §8 termination gather).  ``Emit`` has no one-step form;
  every engine steps its ``Sleep``/``CycleOp`` program.

The generator's return value (``return x``) becomes the processor's result
in :meth:`MCBNetwork.run`'s output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, NamedTuple, Optional, Sequence

from .errors import ProtocolError
from .message import Message

#: Type alias for what `yield` sends back: a Message, EMPTY, or None.
ReadResult = Any

#: A processor program: generator function from context to per-cycle ops.
ProgramFn = Callable[["ProcContext"], Generator]


class CycleOp:
    """One processor's channel activity for one cycle.

    A hand-written ``__slots__`` class rather than a dataclass: programs
    construct (or re-yield) one of these per processor per cycle, which
    makes ``__init__`` and the three attribute reads part of the engine
    hot path.  Treat instances as immutable — they may be yielded
    repeatedly (schedules that hoist a ``CycleOp`` out of their loop,
    like the module-level :data:`IDLE`, skip construction entirely), and
    the engines rely on an op not changing between collection and
    delivery within a cycle.

    Attributes
    ----------
    write:
        1-based channel index to write, or ``None`` to stay silent.
    payload:
        The :class:`Message` to broadcast; required iff ``write`` is set.
    read:
        1-based channel index to read, or ``None`` to skip the read step.
    """

    __slots__ = ("write", "payload", "read")

    def __init__(
        self,
        write: Optional[int] = None,
        payload: Optional[Message] = None,
        read: Optional[int] = None,
    ):
        self.write = write
        self.payload = payload
        self.read = read

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CycleOp)
            and self.write == other.write
            and self.payload == other.payload
            and self.read == other.read
        )

    def __hash__(self) -> int:
        return hash((self.write, self.payload, self.read))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CycleOp(write={self.write!r}, payload={self.payload!r}, "
            f"read={self.read!r})"
        )


class Sleep:
    """Idle for exactly ``cycles`` cycles (no reads, no writes).

    **Minimum-one-cycle rule:** yielding is itself a cycle of
    participation, so a sleep always consumes at least one cycle —
    ``Sleep(0)`` behaves exactly like ``Sleep(1)`` (and like yielding a
    single empty ``CycleOp()``).  There is no way to act twice in one
    cycle, so a zero-cycle sleep cannot be a no-op; the engines enforce
    ``wake = cycle + max(1, cycles)``.  Negative values are a
    :class:`~repro.mcb.errors.ProtocolError`.

    Like :class:`CycleOp`, a plain ``__slots__`` class on the engine hot
    path; treat instances as immutable.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        self.cycles = cycles

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sleep) and self.cycles == other.cycles

    def __hash__(self) -> int:
        return hash(self.cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sleep({self.cycles!r})"


class Listen:
    """Read one channel every cycle of a window, delivered in bulk.

    ``Listen(ch, c)`` is *defined* by desugaring: it behaves exactly like
    yielding ``CycleOp(read=ch)`` for ``max(1, c)`` consecutive cycles
    (the minimum-one-cycle rule of :class:`Sleep` applies — ``Listen(ch,
    0)`` consumes one cycle, like a single read).  Cost accounting is
    identical to the desugared form: every cycle of the window counts as
    a participating cycle (never fast-forwarded), and each listener
    appears among the channel's readers in observability events.  What
    changes is the *delivery*: instead of one ``send`` per cycle, the
    engine parks the generator and resumes it once, at the end of the
    window, with the list of non-empty reads::

        heard = yield Listen(channel, cycles)
        # heard == [(offset, Message), ...] for every cycle of the
        # window in which the channel was written; offset is 0-based
        # from the first listened cycle.  Empty cycles are omitted.

    ``Listen(ch, until_nonempty=True)`` listens with no deadline and
    resumes at the first non-empty broadcast::

        offset, msg = yield Listen(channel, until_nonempty=True)

    If every still-live processor is parked in an ``until_nonempty``
    listen, no future write can ever occur; the engines end the phase,
    closing the orphaned generators (their results stay ``None``).  A
    *bounded* listener whose window is still open when all other
    processors finish simply runs its window out (its deadline is a wake
    like any sleeper's).

    Like :class:`CycleOp`, a plain ``__slots__`` class; treat instances
    as immutable.
    """

    __slots__ = ("channel", "cycles", "until_nonempty")

    def __init__(
        self,
        channel: int,
        cycles: Optional[int] = None,
        *,
        until_nonempty: bool = False,
    ):
        self.channel = channel
        self.cycles = cycles
        self.until_nonempty = until_nonempty

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Listen)
            and self.channel == other.channel
            and self.cycles == other.cycles
            and self.until_nonempty == other.until_nonempty
        )

    def __hash__(self) -> int:
        return hash((self.channel, self.cycles, self.until_nonempty))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.until_nonempty:
            return f"Listen({self.channel!r}, until_nonempty=True)"
        return f"Listen({self.channel!r}, {self.cycles!r})"


def listen_window(pid: int, op: Listen) -> Optional[int]:
    """Check a :class:`Listen`'s form; return its window in cycles.

    ``None`` means ``until_nonempty``.  A bounded window obeys the
    minimum-one-cycle rule, exactly as for :class:`Sleep`: the yield
    itself consumes a cycle, so ``Listen(ch, 0)`` === ``Listen(ch, 1)``.
    Every engine and the simulation desugaring share this check, so a
    malformed listen fails with the same message everywhere.
    """
    if op.until_nonempty:
        if op.cycles is not None:
            raise ProtocolError(
                f"P{pid} yielded Listen with both a cycle count and "
                f"until_nonempty=True; pick one"
            )
        return None
    if op.cycles is None:
        raise ProtocolError(
            f"P{pid} yielded Listen without a cycle count "
            f"(pass cycles or until_nonempty=True)"
        )
    if op.cycles < 0:
        raise ProtocolError(
            f"P{pid} requested a negative listen window ({op.cycles})"
        )
    return max(1, op.cycles)


class Collective(NamedTuple):
    """What a :class:`CollectiveOp` step computes for its ops: what
    stepping the desugared programs would produce, charged in bulk.

    ``results[i]`` resumes the processor that yielded ``ops[i]``;
    ``bits`` and the ``(channel, writes)`` pairs of ``channel_writes``
    are charged (one message per write), and ``cycles`` elapse, of
    which ``fast_forward_cycles`` are ones the stepped programs would
    all sleep through.  A step whose programs account aux memory
    reports it in ``aux_peaks``.
    """

    results: list
    bits: int
    channel_writes: list
    cycles: int
    fast_forward_cycles: int = 0
    #: ``aux_peaks[i]``: the aux slots the processor of ``results[i]``
    #: holds at the step's peak, above what it held before (``None``:
    #: none anywhere)
    aux_peaks: Optional[list] = None


class CollectiveOp:
    """An op a group of processors enters together, which the fast
    engine may run for the whole group in one step.

    ``x = yield op`` is *defined* by desugaring: it behaves exactly like
    ``x = yield from desugar_collective(pid, op, k)`` — the generator of
    ops :meth:`program` returns, validated, collision-checked and
    charged as those ops.  The reference interpreter (and so every
    observed stage), the §2 simulators and every fallback step that
    program.  Only the fast engine's unobserved loop may instead hand
    every op yielded in one cycle to the class's :meth:`collective`,
    when nobody else is awake or parked (see ``docs/MODEL.md``,
    "Collective ops").

    A subclass sets :attr:`label` (the ``op`` label of
    ``network_plan_runs_total``) and implements :meth:`check` and
    :meth:`program`, and :meth:`collective` if it has a one-step form.
    Like :class:`CycleOp`, instances are plain ``__slots__`` objects;
    treat them as immutable.
    """

    __slots__ = ()

    #: The ``op`` label the fast engine counts this op's runs under.
    label: str = ""

    def check(self, pid: int, k: int) -> None:
        """Raise :class:`~repro.mcb.errors.ProtocolError` if the op is
        malformed on ``k`` channels.  Every engine and the simulation
        desugaring call it when the op is yielded."""
        raise NotImplementedError

    def program(self) -> Generator:
        """The generator of desugared ops that defines the op; its
        return value resumes the processor that yielded the op."""
        raise NotImplementedError

    @classmethod
    def collective(
        cls, ops: list, span: int, max_fields: int
    ) -> Optional[Collective]:
        """Run ``ops`` — every op yielded in one cycle, all of this class
        — in one step, or return ``None`` to step their programs.

        Nobody else is awake or parked, and nobody wakes within ``span``
        cycles, so the step may only be taken if it ends by then.  The
        result must be exactly what stepping would give, with every
        message passing the write guard of ``max_fields`` fields; any
        ``ProcContext`` aux accounting happens here, in the programs'
        order, and only once the step is certain.
        """
        return None


class StageOp(CollectiveOp):
    """``P_pid``'s part of a stage every processor enters with one op of
    one class: ``cls(ctx, value, shared)``, where ``value`` is what
    ``P_pid`` alone holds and ``shared`` is one object all the stage's
    ops hold.

    Its one-step form is the class's table function :meth:`stage`, a
    function of the values in pid order and ``shared``: the fast
    engine's :meth:`~repro.mcb.network.MCBNetwork.run_stage` runs a
    whole unobserved stage through it without building an op, and
    :meth:`collective` adapts it to ops yielded in a ``run``.  A
    subclass's :meth:`~CollectiveOp.check` may read only ``shared``
    (and the network's ``k``), so one processor's check stands for
    every processor's.
    """

    __slots__ = ("ctx", "value", "shared")

    def __init__(self, ctx: "ProcContext", value: Any, shared: Any):
        self.ctx, self.value, self.shared = ctx, value, shared

    @classmethod
    def stage(
        cls, values: list, shared: Any, span: int, max_fields: int
    ) -> Optional[Collective]:
        """What stepping the programs of ``P_1..P_p``'s ops over
        ``values`` (``values[i]`` is ``P_{i+1}``'s) would give, or
        ``None`` to step them.  As for :meth:`~CollectiveOp.collective`,
        the step must end within ``span`` and every message pass the
        write guard of ``max_fields`` fields; aux memory goes in
        ``aux_peaks``, not on any context."""
        return None

    @classmethod
    def collective(
        cls, ops: list, span: int, max_fields: int
    ) -> Optional[Collective]:
        """:meth:`stage` on the ops' values, if ``ops`` are ``P_1..P_p``'s
        in order, sharing one ``shared``; their contexts then take its
        ``aux_peaks``."""
        shared = ops[0].shared
        for pid, op in enumerate(ops, 1):
            if op.ctx.pid != pid or op.shared is not shared:
                return None
        done = cls.stage([op.value for op in ops], shared, span, max_fields)
        if done is not None and done.aux_peaks is not None:
            for op, slots in zip(ops, done.aux_peaks):
                if slots:
                    op.ctx.aux_acquire(slots)
                    op.ctx.aux_release(slots)
        return done


def desugar_collective(pid: int, op: CollectiveOp, k: int) -> Generator:
    """Check ``op`` (:meth:`CollectiveOp.check`); return the generator of
    desugared ops that defines it."""
    op.check(pid, k)
    return op.program()


class RunPlan(CollectiveOp):
    """Run processor ``proc``'s part of ``plan`` from ``row``; resumed
    once, with the final row, when the plan's ``plan.cycles`` are over.

    ``row = yield RunPlan(plan, proc, row)`` is *defined* by
    desugaring: it behaves exactly like ``row = yield from
    plan.as_program(proc, row)(ctx)``
    (:meth:`~repro.mcb.vector.plan.SchedulePlan.as_program`, the one
    generator-side spelling of a plan) — the same ops in the same
    cycles, validated, collision-checked and charged as those ops.
    When every processor of the plan yields its ``RunPlan`` in the same
    cycle and nothing else can touch the channels until the plan ends,
    the fast engine's unobserved path moves the elements by the plan's
    compiled form in one step (:meth:`collective`).
    """

    __slots__ = ("plan", "proc", "row")

    label = "run_plan"

    def __init__(self, plan: Any, proc: int, row: Sequence[Any]):
        self.plan = plan
        self.proc = proc
        self.row = row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunPlan({self.plan!r}, {self.proc!r}, <row>)"

    def check(self, pid: int, k: int) -> None:
        """Plan processor in ``0..plan.p-1``, at most ``k`` channels, at
        least one cycle."""
        plan = self.plan
        if not 0 <= self.proc < plan.p:
            raise ProtocolError(
                f"P{pid} yielded RunPlan for plan processor {self.proc} "
                f"outside 0..{plan.p - 1}"
            )
        if plan.k > k:
            raise ProtocolError(
                f"P{pid} yielded RunPlan for a plan on {plan.k} channels "
                f"(k={k})"
            )
        if plan.cycles < 1:
            raise ProtocolError(
                f"P{pid} yielded RunPlan for a zero-cycle plan"
            )

    def program(self) -> Generator:
        """The plan program ``plan.as_program(proc, row)``, which never
        looks at its context."""
        return self.plan.as_program(self.proc, self.row)(None)

    @classmethod
    def collective(
        cls, ops: list, span: int, max_fields: int
    ) -> Optional[Collective]:
        """The whole plan as one list gather
        (:meth:`~repro.mcb.vector.plan.SchedulePlan.gather_rows`), if
        ``ops`` are exactly its ``p`` processors and it ends within
        ``span``."""
        plan = ops[0].plan
        p = plan.p
        if len(ops) != p or plan.cycles > span:
            return None
        rows: list[Any] = [None] * p
        for op in ops:
            if op.plan is not plan:
                return None
            rows[op.proc] = op.row
        if len({op.proc for op in ops}) != p:
            return None
        done = plan.gather_rows(rows, max_fields)
        if done is None:
            return None
        outs, bits, cw = done
        return Collective(
            [outs[op.proc] for op in ops], bits, cw, plan.cycles
        )


class Emit(CollectiveOp):
    """Write ``messages`` on one channel, resumed once after the last write.

    ``Emit(ch, messages, at)`` is *defined* by desugaring: it behaves
    exactly like yielding the ops of :meth:`program` — for each ``i``,
    ``CycleOp(write=ch, payload=messages[i])`` at offset ``at[i]`` from
    the yield cycle (default ``at = 0, 1, 2, ...``), with every gap
    spelled as one ``Sleep``.  A 1-cycle gap (``Sleep(1)``) is
    therefore a participating cycle, while longer gaps are sleeps the
    engine may fast-forward, exactly as if written by hand.  Every write
    is validated, collision-checked and charged at its own cycle.  What
    changes is the *delivery*: the generator is resumed once, with
    ``None``, in the cycle after the last write::

        yield Emit(channel, [msg_a, msg_b], at=[3, 7])
        # resumed at offset 8

    ``at`` must be as long as ``messages``, non-negative and strictly
    increasing, and ``messages`` must not be empty (:meth:`check`).
    It has no :meth:`~CollectiveOp.collective` form: every engine steps
    :meth:`program`.
    """

    __slots__ = ("channel", "messages", "at")

    label = "emit"

    def __init__(
        self,
        channel: int,
        messages: Sequence[Message],
        at: Optional[Sequence[int]] = None,
    ):
        self.channel = channel
        self.messages = messages
        self.at = at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Emit({self.channel!r}, {self.messages!r}, at={self.at!r})"

    def check(self, pid: int, k: int) -> None:
        """The channel exists, ``messages`` is not empty, and ``at`` is
        as long, non-negative and strictly increasing.  A one-shot
        ``at`` iterable is listed here, once, and kept as that list.
        The messages themselves are checked later, each at the cycle it
        is written."""
        if not 1 <= self.channel <= k:
            raise ProtocolError(
                f"P{pid} emits on invalid channel C{self.channel} (k={k})"
            )
        n = len(self.messages)
        if not n:
            raise ProtocolError(f"P{pid} yielded an Emit with no messages")
        at = self.at
        if at is None:
            return
        if at.__class__ not in (list, tuple, range):
            at = self.at = list(at)
        if len(at) != n:
            raise ProtocolError(
                f"P{pid} yielded an Emit with {n} messages but {len(at)} "
                f"offsets"
            )
        if at[0] < 0:
            raise ProtocolError(
                f"P{pid} yielded a negative emit offset ({at[0]})"
            )
        for a, b in zip(at, at[1:]):
            if b <= a:
                raise ProtocolError(
                    f"P{pid} yielded emit offsets that do not increase "
                    f"({a}, {b})"
                )

    def program(self) -> Generator:
        """The ``Sleep``/``CycleOp`` run that defines the emit: each gap
        before a write is one ``Sleep(gap)``, and nothing follows the
        last write."""
        ch, msgs, at = self.channel, self.messages, self.at
        if at is None:
            at = range(len(msgs))
        t = 0
        for a, msg in zip(at, msgs):
            if a > t:
                yield Sleep(a - t)
            yield CycleOp(ch, msg)
            t = a + 1
        return None


#: A no-op cycle (participate in the round, touch no channel).
IDLE = CycleOp()


@dataclass
class ProcContext:
    """Everything a processor program may legitimately know and account.

    Attributes
    ----------
    pid:
        1-based processor identifier :math:`P_{pid}` (paper notation).
    p, k:
        Network dimensions, globally known per the model.
    data:
        The processor's local input (e.g. its subset :math:`N_i`).
    """

    pid: int
    p: int
    k: int
    data: Any = None
    _aux_current: int = field(default=0, repr=False)
    _aux_peak: int = field(default=0, repr=False)

    # ---- auxiliary-memory accounting ------------------------------------
    # The Section 6.1 discussion is all about auxiliary storage (Theta(n/k)
    # for the collect variant vs O(n_col) for Rank-Sort vs O(1) for
    # Merge-Sort).  Algorithms declare their buffer sizes here so the
    # benchmark harness can report per-processor high-water marks.

    def aux_acquire(self, slots: int) -> None:
        """Record allocation of ``slots`` auxiliary storage slots."""
        if slots < 0:
            raise ValueError("aux_acquire expects a non-negative slot count")
        self._aux_current += slots
        if self._aux_current > self._aux_peak:
            self._aux_peak = self._aux_current

    def aux_release(self, slots: int) -> None:
        """Record release of ``slots`` previously acquired slots."""
        if slots < 0:
            raise ValueError("aux_release expects a non-negative slot count")
        self._aux_current = max(0, self._aux_current - slots)

    def aux_set(self, slots: int) -> None:
        """Set the current auxiliary usage to an absolute level."""
        if slots < 0:
            raise ValueError("aux_set expects a non-negative slot count")
        self._aux_current = slots
        if slots > self._aux_peak:
            self._aux_peak = slots

    @property
    def aux_peak(self) -> int:
        """High-water mark of auxiliary slots used by this processor."""
        return self._aux_peak


def write(channel: int, message: Message) -> CycleOp:
    """Convenience: a cycle that only writes."""
    return CycleOp(write=channel, payload=message)


def read(channel: int) -> CycleOp:
    """Convenience: a cycle that only reads."""
    return CycleOp(read=channel)


def write_read(wchannel: int, message: Message, rchannel: int) -> CycleOp:
    """Convenience: write one channel and read another in the same cycle."""
    return CycleOp(write=wchannel, payload=message, read=rchannel)


def emit_from(channel: int, messages: Sequence[Message], start: int):
    """Sub-generator: write ``messages`` back to back from offset ``start``.

    The paced stream of the paper's gathers (await your turn by counting
    cycles, then send): one :class:`Emit` at offsets ``start, start + 1,
    ...``, or just the ``Sleep(start)`` when there is nothing to send.
    """
    if messages:
        yield Emit(channel, messages, at=range(start, start + len(messages)))
    elif start > 0:
        yield Sleep(start)
