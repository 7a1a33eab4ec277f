"""The synchronous MCB(p, k) network engine.

This is the substrate every algorithm in the reproduction runs on.  It
realizes the model of Section 2 exactly:

* ``p`` processors, ``k <= p`` shared broadcast channels;
* computation proceeds in globally synchronized cycles;
* per cycle each processor writes at most one channel and reads at most one
  channel, then performs arbitrary (cost-free) local computation;
* a message written in a cycle is received only by the processors reading
  that channel in that same cycle; reading an idle channel yields
  :data:`~repro.mcb.message.EMPTY`;
* concurrent writes to one channel are a *collision* and abort the
  computation (:class:`~repro.mcb.errors.CollisionError`).

Programs are generators (see :mod:`repro.mcb.program`); an algorithm is a
sequence of ``run()`` calls (stages), matching the paper's use of globally
known synchronization points between phases.

Implementation notes (the hot path)
-----------------------------------
Every theorem check funnels through :meth:`MCBNetwork.run`, so its inner
loop is written for throughput while staying *bit-identical* in results
and cost accounting to the straightforward engine preserved in
:mod:`repro.mcb.reference` (the equivalence battery in
``tests/test_engine_equivalence.py`` enforces this):

* participating processors live in a dense **slot arena** (lists indexed
  by slot, assigned in program order) instead of dicts keyed by pid —
  per-cycle bookkeeping is list indexing, not hashing;
* each generator's ``send`` is **pre-bound** once, and a ``ready`` list
  carries exactly the slots that act this cycle, so no O(p) wake scan
  happens per cycle;
* sleeping processors park in a **wake heap** keyed ``(wake_cycle,
  slot)``; waking and the all-asleep fast-forward are O(log p) instead
  of an O(p) min-scan.  Slots due in the same cycle pop in ascending
  slot order and are merged back so the per-cycle service order stays
  program order, exactly like the reference engine;
* channel state is a pair of **slot-indexed lists** over ``1..k``
  (writer pid and message), reset lazily for only the channels actually
  written, and per-phase channel-write counters accumulate in a flat
  list that is densified into ``PhaseStats.channel_writes`` once at
  phase end (ascending channel order);
* write **validation is hoisted** to a single fast guard per write (the
  slow ``_validate_write`` path only runs to raise the precise error, or
  to admit ``Message`` subclasses), and **observer dispatch** never
  constructs event objects unless an observer is attached;
* :class:`~repro.mcb.program.Listen` readers **park** on per-channel
  wait-lists with a bounded traffic log instead of being resumed every
  cycle, so a cycle's cost is O(active writers/readers + wakeups) rather
  than O(live processors).  Bounded listeners wake through the ordinary
  wake heap at their deadline and receive the buffered non-empty reads
  in bulk; ``until_nonempty`` listeners are woken by the first write to
  their channel.  Observer-subscribed runs take the desugared slow path
  (the listener stays in the active set and the engine synthesizes its
  per-cycle reads) so ``MessageBroadcast.readers`` and all accounting
  stay bit-identical to the reference engine.

On a collision the engine records the aborted phase's partial
:class:`~repro.mcb.trace.PhaseStats` (costs of all completed cycles,
``collisions=1``) via ``stats.add`` before raising, so adversary and
lower-bound experiments keep their cost data.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional, Sequence

from ..obs.events import (
    CollisionDetected,
    FastForward,
    ListenParked,
    ListenWoken,
    MessageBroadcast,
    PhaseEnded,
    PhaseStarted,
    ProcessorSlept,
)
from ..obs.hooks import ObservableMixin
from .errors import (
    CollisionError,
    ConfigurationError,
    MessageSizeError,
    ProtocolError,
)
from .message import EMPTY, Message
from .program import CycleOp, Listen, ProcContext, ProgramFn, Sleep
from .trace import PhaseStats, RunStats


class _ListenState:
    """Engine-internal per-slot bookkeeping for one :class:`Listen` op.

    ``window is None`` marks an ``until_nonempty`` listen.  The parked
    fast path uses ``start``/``log_idx`` (a cursor into the channel's
    traffic log); the desugared observed path uses ``elapsed``/``buf``.
    """

    __slots__ = ("channel", "window", "start", "log_idx", "elapsed", "buf")


class MCBNetwork(ObservableMixin):
    """A multi-channel broadcast network MCB(p, k).

    Parameters
    ----------
    p:
        Number of processors (1-based ids ``1..p``).
    k:
        Number of broadcast channels (1-based ids ``1..k``); ``k <= p``.
    max_message_fields:
        Upper bound on scalar fields per message, enforcing the model's
        O(log beta)-bit messages.  The paper's algorithms need at most a
        few fields (an element triple, a (median, count) pair, ...).
    record_trace:
        If true, every delivered message is recorded as a
        :class:`~repro.mcb.trace.TraceEvent` in :attr:`events` (this is
        implemented as a built-in :class:`~repro.obs.hooks.TraceObserver`
        on the observability hooks; attach your own observers with
        :meth:`attach_observer` for structured events, metrics, or an
        :class:`~repro.obs.hooks.EventLog` to write through a sink — see
        :mod:`repro.obs`).

    Examples
    --------
    >>> from repro.mcb import MCBNetwork, CycleOp, Message, EMPTY
    >>> net = MCBNetwork(p=2, k=1)
    >>> def sender(ctx):
    ...     yield CycleOp(write=1, payload=Message("hello", ctx.pid))
    >>> def receiver(ctx):
    ...     got = yield CycleOp(read=1)
    ...     return got.fields[0]
    >>> results = net.run({1: sender, 2: receiver}, phase="demo")
    >>> results[2]
    1
    """

    def __init__(
        self,
        p: int,
        k: int,
        *,
        max_message_fields: int = 8,
        record_trace: bool = False,
    ):
        if p < 1:
            raise ConfigurationError(f"need at least one processor, got p={p}")
        if k < 1:
            raise ConfigurationError(f"need at least one channel, got k={k}")
        if k > p:
            raise ConfigurationError(
                f"the model requires k <= p, got p={p}, k={k}"
            )
        self.p = p
        self.k = k
        self.max_message_fields = max_message_fields
        self.stats = RunStats()
        self._init_observability(record_trace=record_trace)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Forget all accumulated statistics and detach every observer.

        Trace events are cleared and externally attached observers are
        dropped (the built-in trace observer survives iff the network
        was constructed with ``record_trace=True``), so a reused network
        starts observationally fresh.
        """
        self.stats = RunStats()
        self._reset_observability()

    # ------------------------------------------------------------------
    def run(
        self,
        programs: dict[int, ProgramFn] | Sequence[ProgramFn],
        *,
        phase: str = "phase",
        data: Optional[dict[int, Any]] = None,
        max_cycles: int = 50_000_000,
    ) -> dict[int, Any]:
        """Execute one synchronized stage and return per-processor results.

        Parameters
        ----------
        programs:
            Either a dict ``pid -> program function`` (processors without an
            entry idle for the whole stage) or a sequence of ``p`` program
            functions for processors ``1..p``.
        phase:
            Label under which this stage's costs are accumulated.
        data:
            Optional per-processor local input, installed as ``ctx.data``.
        max_cycles:
            Safety valve against livelocked protocols.

        Returns
        -------
        dict
            ``pid -> value`` returned by each program (``None`` if the
            generator returned nothing).
        """
        if not isinstance(programs, dict):
            if len(programs) != self.p:
                raise ConfigurationError(
                    f"expected {self.p} programs, got {len(programs)}"
                )
            programs = {i + 1: fn for i, fn in enumerate(programs)}
        for pid in programs:
            if not 1 <= pid <= self.p:
                raise ConfigurationError(
                    f"program assigned to nonexistent processor P{pid}"
                )

        # --- dense slot arena: slot order == program order ---------------
        pids: list[int] = list(programs)
        m = len(pids)
        contexts: list[ProcContext] = []
        sends: list[Any] = []
        for pid in pids:
            ctx = ProcContext(
                pid=pid,
                p=self.p,
                k=self.k,
                data=None if data is None else data.get(pid),
            )
            contexts.append(ctx)
            sends.append(programs[pid](ctx).send)

        results: dict[int, Any] = {pid: None for pid in pids}
        inbox: list[Any] = [None] * m

        k = self.k
        max_fields = self.max_message_fields
        ph = PhaseStats(name=phase, k=k)
        dispatch = self._dispatch
        if dispatch is not None:
            dispatch.dispatch(PhaseStarted(phase=phase, p=self.p, k=k))

        # Channel arena, 1-based (slot 0 unused).  writer 0 = silent,
        # writer -1 = collided this cycle.
        chan_writer = [0] * (k + 1)
        chan_msg: list[Any] = [None] * (k + 1)
        cw_counts = [0] * (k + 1)
        messages = 0
        bits_acc = 0

        sleep_heap: list[tuple[int, int]] = []
        ready: list[int] = list(range(m))
        cycle = 0

        # --- sparse-cycle (Listen) bookkeeping ---------------------------
        # listening[slot] is a _ListenState while that slot is inside a
        # Listen window.  Fast path (no observer): bounded listeners park
        # with a deadline in the wake heap and a cursor into their
        # channel's traffic log; until_nonempty listeners park on the
        # channel's wait-list.  Observed path: the slot stays in `ready`
        # and the engine synthesizes its per-cycle reads (desugaring), so
        # event streams match the reference engine bit for bit.
        listening: list[Any] = [None] * m
        until_waiters: list[list[int]] = [[] for _ in range(k + 1)]
        bounded_count = [0] * (k + 1)
        chan_log: list[list[tuple[int, Any]]] = [[] for _ in range(k + 1)]
        parked = 0  # parked listeners (fast path only; 0 on observed runs)
        until_parked = 0  # until_nonempty listeners, parked or desugared
        live = m  # unfinished generators

        # Local bindings for the hot loop.
        CycleOp_, Sleep_, Listen_, Message_, EMPTY_ = (
            CycleOp,
            Sleep,
            Listen,
            Message,
            EMPTY,
        )

        def _commit_counters() -> None:
            ph.messages = messages
            ph.bits = bits_acc
            ph.channel_writes = {
                ch: n for ch, n in enumerate(cw_counts) if n
            }
            for slot, ctx in enumerate(contexts):
                ph.aux_peak[pids[slot]] = ctx.aux_peak

        while True:
            if until_parked and until_parked == live:
                # Every still-live processor waits for a broadcast that can
                # never come: end the phase, closing the orphaned listeners
                # (their results stay None in every engine, regardless of
                # what close() returns on newer Pythons).  On the observed
                # (desugared) path a listener whose last synthesized read
                # already delivered a message is about to complete — and
                # may write — so it is not orphaned; parked listeners
                # never hold a pending inbox (waking clears the state).
                pending = False
                for slot in range(m):
                    st = listening[slot]
                    if (
                        st is not None
                        and st.window is None
                        and inbox[slot] is not None
                        and inbox[slot] is not EMPTY_
                    ):
                        pending = True
                        break
                if not pending:
                    for slot in range(m):
                        st = listening[slot]
                        if st is not None and st.window is None:
                            sends[slot].__self__.close()
                    break
            if sleep_heap and sleep_heap[0][0] <= cycle:
                memo: Optional[dict[tuple[int, int, int], list]] = None
                while sleep_heap and sleep_heap[0][0] <= cycle:
                    slot = heappop(sleep_heap)[1]
                    st = listening[slot]
                    if st is not None:
                        # Bounded listener at its deadline: deliver the
                        # buffered non-empty reads in bulk.  Listeners with
                        # the same (channel, start) share the slice
                        # computation; each still gets its own list.
                        ch = st.channel
                        key = (ch, st.start, st.log_idx)
                        if memo is None:
                            memo = {}
                        res = memo.get(key)
                        if res is None:
                            start = st.start
                            res = [
                                (t - start, msg)
                                for t, msg in chan_log[ch][st.log_idx :]
                            ]
                            memo[key] = res
                        inbox[slot] = list(res)
                        listening[slot] = None
                        parked -= 1
                        bounded_count[ch] -= 1
                        if not bounded_count[ch]:
                            chan_log[ch] = []
                    ready.append(slot)
                ready.sort()
            if not ready:
                if not sleep_heap:
                    break  # every program finished
                # Everyone is sleeping or parked: skip to the earliest
                # waker.  The skipped cycles still elapse (and are counted
                # below); they only count as *fast-forward* cycles when no
                # listener is parked — a parked listener participates in
                # every cycle of its window, exactly like its desugared
                # per-cycle reads would.
                target = sleep_heap[0][0]
                if not parked:
                    ph.fast_forward_cycles += target - cycle
                    if dispatch is not None:
                        dispatch.dispatch(
                            FastForward(
                                phase=phase, from_cycle=cycle, to_cycle=target
                            )
                        )
                cycle = target
                continue
            if cycle >= max_cycles:
                raise ProtocolError(
                    f"stage '{phase}' exceeded max_cycles={max_cycles}"
                )

            # --- collect this cycle's ops from every awake processor -----
            next_ready: list[int] = []
            written: list[int] = []
            read_slots: list[int] = []
            read_chans: list[int] = []
            collided: Optional[dict[int, list[int]]] = None
            keep = next_ready.append
            add_read_slot = read_slots.append
            add_read_chan = read_chans.append
            finished = 0
            for slot in ready:
                st = listening[slot]
                if st is not None:
                    # Desugared listen (observed runs only): fold the read
                    # delivered last cycle, then either synthesize the next
                    # read or resume the generator with the bulk result.
                    got = inbox[slot]
                    inbox[slot] = None
                    off = st.elapsed - 1
                    if st.window is None:
                        if got is EMPTY_ or got is None:
                            st.elapsed += 1
                            keep(slot)
                            add_read_slot(slot)
                            add_read_chan(st.channel)
                            continue
                        listening[slot] = None
                        until_parked -= 1
                        inbox[slot] = (off, got)
                        # Desugaring only runs observed, so dispatch is set.
                        dispatch.dispatch(
                            ListenWoken(
                                phase=phase,
                                cycle=cycle,
                                pid=pids[slot],
                                channel=st.channel,
                                heard=1,
                            )
                        )
                    else:
                        if got is not EMPTY_ and got is not None:
                            st.buf.append((off, got))
                        if st.elapsed < st.window:
                            st.elapsed += 1
                            keep(slot)
                            add_read_slot(slot)
                            add_read_chan(st.channel)
                            continue
                        listening[slot] = None
                        inbox[slot] = st.buf
                        dispatch.dispatch(
                            ListenWoken(
                                phase=phase,
                                cycle=cycle,
                                pid=pids[slot],
                                channel=st.channel,
                                heard=len(st.buf),
                            )
                        )
                try:
                    op = sends[slot](inbox[slot])
                except StopIteration as stop:
                    inbox[slot] = None
                    results[pids[slot]] = stop.value
                    finished += 1
                    live -= 1
                    continue
                inbox[slot] = None
                cls = op.__class__
                if cls is not CycleOp_:
                    if cls is Sleep_ or isinstance(op, Sleep_):
                        c = op.cycles
                        if c < 0:
                            raise ProtocolError(
                                f"P{pids[slot]} requested a negative sleep ({c})"
                            )
                        # Minimum-one-cycle rule (see the Sleep docstring):
                        # the yield itself consumed this cycle, so Sleep(0)
                        # === Sleep(1) === one empty CycleOp.
                        if c <= 1:
                            keep(slot)
                        else:
                            heappush(sleep_heap, (cycle + c, slot))
                            if dispatch is not None:
                                dispatch.dispatch(
                                    ProcessorSlept(
                                        phase=phase,
                                        cycle=cycle,
                                        pid=pids[slot],
                                        until_cycle=cycle + c,
                                    )
                                )
                        continue
                    if cls is Listen_ or isinstance(op, Listen_):
                        ch = op.channel
                        window = self._validate_listen(pids[slot], op)
                        st = _ListenState()
                        st.channel = ch
                        st.window = window
                        listening[slot] = st
                        if window is None:
                            until_parked += 1
                        if dispatch is None:
                            # Park: leave the active set entirely.
                            st.start = cycle
                            parked += 1
                            if window is None:
                                until_waiters[ch].append(slot)
                            else:
                                st.log_idx = len(chan_log[ch])
                                bounded_count[ch] += 1
                                heappush(sleep_heap, (cycle + window, slot))
                        else:
                            # Observed: desugar into per-cycle reads so the
                            # event stream matches the reference engine.
                            st.elapsed = 1
                            st.buf = []
                            keep(slot)
                            add_read_slot(slot)
                            add_read_chan(ch)
                            dispatch.dispatch(
                                ListenParked(
                                    phase=phase,
                                    cycle=cycle,
                                    pid=pids[slot],
                                    channel=ch,
                                    window=window,
                                )
                            )
                        continue
                    if not isinstance(op, CycleOp_):
                        raise ProtocolError(
                            f"P{pids[slot]} yielded {op!r}; expected "
                            f"CycleOp, Sleep, or Listen"
                        )
                keep(slot)
                w = op.write
                if w is not None:
                    payload = op.payload
                    if (
                        not 1 <= w <= k
                        or payload.__class__ is not Message_
                        or len(payload.fields) > max_fields
                    ):
                        # Raises the precise ProtocolError/MessageSizeError;
                        # falls through only for Message subclasses.
                        self._validate_write(pids[slot], op, cycle)
                    prev = chan_writer[w]
                    if prev:
                        if collided is None:
                            collided = {}
                        if prev != -1:
                            chan_writer[w] = -1
                            collided[w] = [prev, pids[slot]]
                        else:
                            collided[w].append(pids[slot])
                    else:
                        chan_writer[w] = pids[slot]
                        chan_msg[w] = payload
                        written.append(w)
                elif op.payload is not None:
                    raise ProtocolError(
                        f"P{pids[slot]} attached a payload without a write channel"
                    )
                r = op.read
                if r is not None:
                    if not 1 <= r <= k:
                        raise ProtocolError(
                            f"P{pids[slot]} read invalid channel C{r} (k={k})"
                        )
                    add_read_slot(slot)
                    add_read_chan(r)

            if collided is not None:
                channel, writers = next(iter(collided.items()))
                if dispatch is not None:
                    dispatch.dispatch(
                        CollisionDetected(
                            phase=phase,
                            cycle=cycle,
                            channel=channel,
                            writers=tuple(writers),
                            resolution="abort",
                        )
                    )
                # Preserve the aborted phase's cost data: all completed
                # cycles are recorded, stamped with collisions=1, so
                # adversary/lower-bound experiments keep their stats.
                _commit_counters()
                ph.cycles = cycle
                ph.collisions = 1
                self.stats.add(ph)
                raise CollisionError(cycle, channel, writers)

            # --- deliver reads -------------------------------------------
            if dispatch is None:
                if written:
                    for slot, ch in zip(read_slots, read_chans):
                        inbox[slot] = chan_msg[ch] if chan_writer[ch] else EMPTY_
                    for ch in written:
                        msg = chan_msg[ch]
                        messages += 1
                        bits_acc += msg.bit_size()
                        cw_counts[ch] += 1
                        if bounded_count[ch]:
                            chan_log[ch].append((cycle, msg))
                        waiters = until_waiters[ch]
                        if waiters:
                            # First non-empty broadcast on this channel:
                            # wake every parked until_nonempty listener;
                            # they rejoin the active set next cycle.
                            for ws in waiters:
                                inbox[ws] = (cycle - listening[ws].start, msg)
                                listening[ws] = None
                                heappush(sleep_heap, (cycle + 1, ws))
                            n = len(waiters)
                            parked -= n
                            until_parked -= n
                            until_waiters[ch] = []
                        chan_writer[ch] = 0
                        chan_msg[ch] = None
                else:
                    for slot in read_slots:
                        inbox[slot] = EMPTY_
            else:
                readers_by_channel: dict[int, list[int]] = {}
                for slot, ch in zip(read_slots, read_chans):
                    inbox[slot] = chan_msg[ch] if chan_writer[ch] else EMPTY_
                    readers_by_channel.setdefault(ch, []).append(pids[slot])
                for ch in written:
                    msg = chan_msg[ch]
                    bits = msg.bit_size()
                    messages += 1
                    bits_acc += bits
                    cw_counts[ch] += 1
                    dispatch.dispatch(
                        MessageBroadcast(
                            phase=phase,
                            cycle=cycle,
                            channel=ch,
                            writer=chan_writer[ch],
                            readers=tuple(readers_by_channel.get(ch, ())),
                            msg_kind=msg.kind,
                            fields=msg.fields,
                            bits=bits,
                        )
                    )
                    chan_writer[ch] = 0
                    chan_msg[ch] = None
            if finished < len(ready) or parked:
                # A cycle elapsed only if some processor participated in the
                # round (yielded anything); rounds in which every serviced
                # generator returned without yielding never consumed
                # network time.  A parked listener participates every cycle
                # of its window (its desugared form would have yielded a
                # read), so its presence alone makes the round count.
                cycle += 1
            ready = next_ready

        _commit_counters()
        ph.cycles = cycle
        self.stats.add(ph)
        if dispatch is not None:
            dispatch.dispatch(
                PhaseEnded(
                    phase=phase,
                    p=self.p,
                    k=k,
                    cycles=ph.cycles,
                    messages=ph.messages,
                    bits=ph.bits,
                    channel_writes=dict(ph.channel_writes),
                    max_aux_peak=ph.max_aux_peak,
                    fast_forward_cycles=ph.fast_forward_cycles,
                    collisions=ph.collisions,
                    utilization=ph.channel_utilization(),
                )
            )
        return results

    # ------------------------------------------------------------------
    def _validate_listen(self, pid: int, op: Listen) -> Optional[int]:
        """Check a Listen op; return its window (None = until_nonempty)."""
        if not 1 <= op.channel <= self.k:
            raise ProtocolError(
                f"P{pid} listens on invalid channel C{op.channel} (k={self.k})"
            )
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
        # Minimum-one-cycle rule, exactly as for Sleep: the yield itself
        # consumes a cycle, so Listen(ch, 0) === Listen(ch, 1).
        return max(1, op.cycles)

    # ------------------------------------------------------------------
    def _validate_write(self, pid: int, op: CycleOp, cycle: int) -> None:
        if not 1 <= op.write <= self.k:
            raise ProtocolError(
                f"P{pid} wrote invalid channel C{op.write} (k={self.k}) "
                f"at cycle {cycle}"
            )
        if not isinstance(op.payload, Message):
            raise ProtocolError(
                f"P{pid} wrote channel C{op.write} without a Message payload"
            )
        if len(op.payload.fields) > self.max_message_fields:
            raise MessageSizeError(
                f"P{pid} sent a {len(op.payload.fields)}-field message; "
                f"limit is {self.max_message_fields} (O(log beta) bits)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MCBNetwork(p={self.p}, k={self.k})"
