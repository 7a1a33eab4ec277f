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

* :class:`Emit` — write a run of messages on one channel at fixed
  offsets without being resumed per write.  Emitting is semantically
  identical to yielding the ``Sleep``/``CycleOp(write=ch, payload=m)``
  sequence that :func:`desugar_emit` spells out, but lets the engine
  replay that sequence itself (a fixed write schedule, like the
  writers of Rank-Sort or of the §8 termination gather).

The generator's return value (``return x``) becomes the processor's result
in :meth:`MCBNetwork.run`'s output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Generator, Optional, Sequence

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


class Emit:
    """Write ``messages`` on one channel, resumed once after the last write.

    ``Emit(ch, messages, at)`` is *defined* by desugaring: it behaves
    exactly like yielding the ops of :func:`desugar_emit` — for each
    ``i``, ``CycleOp(write=ch, payload=messages[i])`` at offset
    ``at[i]`` from the yield cycle (default ``at = 0, 1, 2, ...``), with
    every gap spelled as one ``Sleep``.  A 1-cycle gap (``Sleep(1)``) is
    therefore a participating cycle, while longer gaps are sleeps the
    engine may fast-forward, exactly as if written by hand.  Every write
    is validated, collision-checked and charged at its own cycle.  What
    changes is the *delivery*: the generator is resumed once, with
    ``None``, in the cycle after the last write::

        yield Emit(channel, [msg_a, msg_b], at=[3, 7])
        # resumed at offset 8

    ``at`` must be as long as ``messages``, non-negative and strictly
    increasing, and ``messages`` must not be empty
    (:func:`emit_schedule` checks this in every engine).

    Like :class:`CycleOp`, a plain ``__slots__`` class; treat instances
    as immutable.
    """

    __slots__ = ("channel", "messages", "at")

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


def emit_schedule(pid: int, op: Emit, k: int) -> Sequence[int]:
    """Check an :class:`Emit`'s form on ``k`` channels; return its offsets.

    Every engine and the simulation desugaring share this check, so a
    malformed emit fails with the same message everywhere (the
    counterpart of :func:`listen_window`).  The messages themselves are
    checked later, each at the cycle it is written.
    """
    if not 1 <= op.channel <= k:
        raise ProtocolError(
            f"P{pid} emits on invalid channel C{op.channel} (k={k})"
        )
    n = len(op.messages)
    if not n:
        raise ProtocolError(f"P{pid} yielded an Emit with no messages")
    if op.at is None:
        return range(n)
    at = list(op.at)
    if len(at) != n:
        raise ProtocolError(
            f"P{pid} yielded an Emit with {n} messages but {len(at)} offsets"
        )
    if at[0] < 0:
        raise ProtocolError(f"P{pid} yielded a negative emit offset ({at[0]})")
    for a, b in zip(at, at[1:]):
        if b <= a:
            raise ProtocolError(
                f"P{pid} yielded emit offsets that do not increase ({a}, {b})"
            )
    return at


def desugar_emit(pid: int, op: Emit, k: int) -> list:
    """The ``Sleep``/``CycleOp`` sequence that defines ``op``.

    Each gap before a write becomes one ``Sleep(gap)``; nothing follows
    the last write.  The reference interpreter and the §2 simulators
    step this list in place of resuming the generator, one op per cycle
    it would have yielded; the fast engine spells the same ops one
    cycle at a time.
    """
    at = emit_schedule(pid, op, k)
    ch = op.channel
    if op.at is None:
        return list(map(CycleOp, repeat(ch), op.messages))
    ops: list = []
    t = 0
    for a, msg in zip(at, op.messages):
        if a > t:
            ops.append(Sleep(a - t))
        ops.append(CycleOp(ch, msg))
        t = a + 1
    return ops


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
