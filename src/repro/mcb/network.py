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

Observed stages
---------------
A stage with an observer attached (see :mod:`repro.obs`) runs on the
reference interpreter's loop (:meth:`ReferenceMCBNetwork.run
<repro.mcb.reference.ReferenceMCBNetwork.run>`), which steps every op
cycle by cycle and emits the event stream.  :class:`MCBNetwork` is that
interpreter's subclass: it shares its constructor checks and its write
and listen validation, and only replaces ``run`` for unobserved stages.
It accepts the paper's :class:`~repro.mcb.program.CycleOp` only, not
the §9 ``ExtOp``, on both paths.

Implementation notes (the unobserved hot path)
----------------------------------------------
Every theorem check funnels through :meth:`MCBNetwork.run`, so its inner
loop is written for throughput while staying *bit-identical* in results
and cost accounting to the reference interpreter (the equivalence
battery in ``tests/test_engine_equivalence.py`` enforces this).  The
cycle loop has no observer branch:

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
  to admit ``Message`` subclasses);
* :class:`~repro.mcb.program.Listen` readers **park** on per-channel
  wait-lists with a bounded traffic log instead of being resumed every
  cycle, so a cycle's cost is O(active writers/readers + wakeups) rather
  than O(live processors).  Bounded listeners wake through the ordinary
  wake heap at their deadline and receive the buffered non-empty reads
  in bulk; ``until_nonempty`` listeners are woken by the first write to
  their channel;
* a :class:`~repro.mcb.program.CollectiveOp` is set aside until the
  cycle's other ops are collected.  If every awake slot yielded one,
  all of one class, and nobody else is awake or parked, the class's
  ``collective`` may run them all as one **collective step** — the
  counters charged in bulk, each program resumed once with its result
  when the step ends (a ``RunPlan`` is its compiled plan's gather run
  on the rows as object arrays; ``SortGroup`` one sort per group; ``Sweep``
  one pass over the tree; ``SortOnes`` its plans' index maps; §8's
  ``Announce`` its one writer's message; §6.1's ``VirtualSort`` the
  whole sort on one table; an ``Emit`` has no such step).  Otherwise
  each slot steps the op's
  desugared program from this cycle on, on a per-slot stack of the
  programs it interrupted, so a stepped program may yield collective
  ops of its own; its first op is collected after the others', so the
  survivors are put back in slot order and a collision lists its
  writers in slot order, as the reference interpreter finds them.
  ``network_plan_runs_total{op, path}`` counts both outcomes;
* a **one-op stage** (:meth:`MCBNetwork.run_stage`: every processor
  yields one :class:`~repro.mcb.program.StageOp` of one class and
  returns its result) skips the arena when unobserved: it checks
  ``P_1``'s op and commits the class's table function ``stage`` over
  the stage's values as the loop commits a collective step, or else
  runs the loop on the one-yield program.

On a collision the engine records the aborted phase's partial
:class:`~repro.mcb.trace.PhaseStats` (costs of all completed cycles,
``collisions=1``) via ``stats.add`` before raising, so adversary and
lower-bound experiments keep their cost data.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional, Sequence

from ..obs.metrics import global_registry
from .errors import CollisionError, ProtocolError
from .message import EMPTY, Message
from .program import (
    Collective,
    CollectiveOp,
    CycleOp,
    Listen,
    ProcContext,
    ProgramFn,
    Sleep,
    StageOp,
)
from .reference import MAX_CYCLES, ReferenceMCBNetwork
from .trace import PhaseStats


class _ListenState:
    """Engine-internal per-slot bookkeeping for one parked :class:`Listen`.

    ``window is None`` marks an ``until_nonempty`` listen.  ``start`` is
    the cycle it parked in and ``log_idx`` a cursor into the channel's
    traffic log (bounded listens only).
    """

    __slots__ = ("channel", "window", "start", "log_idx")


#: ``network_plan_runs_total``'s bound ``inc`` per ``(op, path)``, fetched
#: while the global registry had been reset ``_runs_resets`` times.
_runs_incs: dict = {}
_runs_resets = -1


def _collective_runs(op: str, path: str, n: int) -> None:
    global _runs_incs, _runs_resets
    registry = global_registry()
    if registry.resets != _runs_resets:  # the family was dropped
        _runs_incs, _runs_resets = {}, registry.resets
    inc = _runs_incs.get((op, path))
    if inc is None:
        inc = _runs_incs[op, path] = registry.counter(
            "network_plan_runs_total",
            "Collective ops the fast engine's unobserved loop ran, by op "
            "(run_plan, rank_sort, sweep, sort_ones, announce, "
            "virtual_sort or emit) and path (collective or stepped)",
        ).labelled(op=op, path=path)
    inc(n)


def _charge(
    ph: PhaseStats, cw_counts: list, done: Collective, label: str, n: int
) -> None:
    """Charge ``done``, a collective step of ``n`` ops labelled
    ``label``, to ``ph``: its messages (counted per channel in
    ``cw_counts``), bits and fast-forwarded cycles, and its run on
    ``network_plan_runs_total``.  Its cycles elapse at the caller."""
    for ch, c in done.channel_writes:
        cw_counts[ch] += c
        ph.messages += c
    ph.bits += done.bits
    ph.fast_forward_cycles += done.fast_forward_cycles
    _collective_runs(label, "collective", n)


class MCBNetwork(ReferenceMCBNetwork):
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

    Attach observers with :meth:`attach_observer` for structured events,
    metrics, or an :class:`~repro.obs.hooks.EventLog` to write through a
    sink (see :mod:`repro.obs`); an observed stage runs on the reference
    interpreter's loop.

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

    accepts_ext_op = False

    # ------------------------------------------------------------------
    def run_stage(
        self,
        cls: type[StageOp],
        values: Sequence[Any],
        shared: Any,
        *,
        phase: str = "phase",
    ) -> list:
        """:meth:`ReferenceMCBNetwork.run_stage` from ``values`` alone.

        An unobserved stage checks ``P_1``'s op (the ops share
        ``shared``, which is all a check reads) and commits the
        :class:`~repro.mcb.program.Collective` of ``cls.stage`` as
        :meth:`run` commits a collective step, each processor's aux
        peak from its ``aux_peaks``.  An observed stage or a declined
        table runs the definition instead.
        """
        p, k = self.p, self.k
        if self._dispatch is None and len(values) == p:
            cls(ProcContext(1, p, k), values[0], shared).check(1, k)
            done = cls.stage(
                values, shared, MAX_CYCLES, self.max_message_fields
            )
            if done is not None:
                ph = PhaseStats(name=phase, k=k)
                cw_counts = [0] * (k + 1)
                _charge(ph, cw_counts, done, cls.label, p)
                ph.cycles = done.cycles
                ph.channel_writes = {
                    ch: n for ch, n in enumerate(cw_counts) if n
                }
                ph.aux_peak = dict(
                    zip(range(1, p + 1), done.aux_peaks or [0] * p)
                )
                self.stats.add(ph)
                return done.results
        return super().run_stage(cls, values, shared, phase=phase)

    def run(
        self,
        programs: dict[int, ProgramFn] | Sequence[ProgramFn],
        *,
        phase: str = "phase",
        data: Optional[dict[int, Any]] = None,
        max_cycles: int = MAX_CYCLES,
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
        if self._dispatch is not None:
            return super().run(
                programs, phase=phase, data=data, max_cycles=max_cycles
            )
        programs = self._check_programs(programs)

        # --- dense slot arena: slot order == program order ---------------
        pids: list[int] = list(programs)
        m = len(pids)
        contexts: list[ProcContext] = []
        sends: list[Any] = []
        for pid in pids:
            ctx = ProcContext(
                pid, self.p, self.k, None if data is None else data.get(pid)
            )
            contexts.append(ctx)
            sends.append(programs[pid](ctx).send)

        results: dict[int, Any] = {pid: None for pid in pids}
        inbox: list[Any] = [None] * m

        k = self.k
        max_fields = self.max_message_fields
        ph = PhaseStats(name=phase, k=k)

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
        # listening[slot] is a _ListenState while that slot is parked in
        # a Listen window.  Bounded listeners park with a deadline in the
        # wake heap and a cursor into their channel's traffic log;
        # until_nonempty listeners park on the channel's wait-list.
        listening: list[Any] = [None] * m
        until_waiters: list[list[int]] = [[] for _ in range(k + 1)]
        bounded_count = [0] * (k + 1)
        chan_log: list[list[tuple[int, Any]]] = [[] for _ in range(k + 1)]
        # coll_outer[slot] stacks the sends of the programs that slot's
        # stepped collective ops interrupted, innermost last (sends[slot]
        # is the innermost op's desugared program).
        coll_outer: list[Any] = [None] * m
        parked = 0  # parked listeners
        until_parked = 0  # parked until_nonempty listeners
        live = m  # unfinished generators

        # Local bindings for the hot loop.
        CycleOp_, Sleep_, Listen_, Collective_, Message_, EMPTY_ = (
            CycleOp,
            Sleep,
            Listen,
            CollectiveOp,
            Message,
            EMPTY,
        )

        def _commit_counters() -> None:
            ph.messages += messages
            ph.bits += bits_acc
            ph.channel_writes = {
                ch: n for ch, n in enumerate(cw_counts) if n
            }
            for slot, ctx in enumerate(contexts):
                ph.aux_peak[pids[slot]] = ctx._aux_peak

        while True:
            if until_parked and until_parked == live:
                # Every still-live processor waits for a broadcast that can
                # never come: end the phase, closing the orphaned listeners
                # (their results stay None in every engine, regardless of
                # what close() returns on newer Pythons).  A woken listener
                # is no longer counted, so none of these holds a message.
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
            # coll_ops holds the cycle's collective ops, set aside until
            # every awake slot has yielded; if they do not run in one
            # step, batch is their slots, which step their desugared
            # programs through this same pass (stepping counts them once
            # their first ops pass).
            coll_ops: Optional[list[tuple[int, Any]]] = None
            stepping: Optional[list[tuple[int, Any]]] = None
            batch = ready
            while True:
                for slot in batch:
                    try:
                        op = sends[slot](inbox[slot])
                    except StopIteration as stop:
                        value = stop.value
                        # A stepped collective op ended: its returned
                        # value resumes the program that yielded it.
                        stack = coll_outer[slot]
                        while stack:
                            sends[slot] = send = stack.pop()
                            try:
                                op = send(value)
                                break
                            except StopIteration as stop2:
                                value = stop2.value
                        else:
                            inbox[slot] = None
                            results[pids[slot]] = value
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
                                    f"P{pids[slot]} requested a negative "
                                    f"sleep ({c})"
                                )
                            # Minimum-one-cycle rule (see the Sleep
                            # docstring): the yield itself consumed this
                            # cycle, so Sleep(0) === Sleep(1) === one
                            # empty CycleOp.
                            if c <= 1:
                                keep(slot)
                            else:
                                heappush(sleep_heap, (cycle + c, slot))
                            continue
                        if cls is Listen_ or isinstance(op, Listen_):
                            ch = op.channel
                            window = self._validate_listen(pids[slot], op)
                            # Park: leave the active set entirely.
                            st = _ListenState()
                            st.channel = ch
                            st.window = window
                            st.start = cycle
                            listening[slot] = st
                            parked += 1
                            if window is None:
                                until_parked += 1
                                until_waiters[ch].append(slot)
                            else:
                                st.log_idx = len(chan_log[ch])
                                bounded_count[ch] += 1
                                heappush(sleep_heap, (cycle + window, slot))
                            continue
                        if isinstance(op, Collective_):
                            # Check its form now, as the desugared
                            # program would on creation; what it does
                            # waits for the rest of the cycle.
                            op.check(pids[slot], k)
                            if coll_ops is None:
                                coll_ops = []
                            coll_ops.append((slot, op))
                            continue
                        if not isinstance(op, CycleOp_):
                            raise ProtocolError(
                                f"P{pids[slot]} yielded {op!r}; expected "
                                f"CycleOp, Sleep, Listen, Emit, or a "
                                f"collective op"
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
                            # Raises the precise ProtocolError/
                            # MessageSizeError; falls through only for
                            # Message subclasses.
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
                            f"P{pids[slot]} attached a payload without a "
                            f"write channel"
                        )
                    r = op.read
                    if r is not None:
                        if not 1 <= r <= k:
                            raise ProtocolError(
                                f"P{pids[slot]} read invalid channel C{r} "
                                f"(k={k})"
                            )
                        add_read_slot(slot)
                        add_read_chan(r)
                if stepping is not None:
                    # The stepped ops ran their first cycle: restore slot
                    # order among this cycle's survivors.
                    for _, op in stepping:
                        _collective_runs(op.label, "stepped", 1)
                    stepping = None
                    next_ready.sort()
                if coll_ops is None:
                    break
                done = None
                coll_cls = coll_ops[0][1].__class__
                if (
                    not next_ready
                    and not parked
                    and all(op.__class__ is coll_cls for _, op in coll_ops)
                ):
                    done = coll_cls.collective(
                        [op for _, op in coll_ops],
                        min(sleep_heap[0][0] if sleep_heap else max_cycles,
                            max_cycles) - cycle,
                        max_fields,
                    )
                if done is not None:
                    break
                # Step each op's desugared program from this cycle on.
                batch = []
                for slot, op in coll_ops:
                    stack = coll_outer[slot]
                    if stack is None:
                        coll_outer[slot] = [sends[slot]]
                    else:
                        stack.append(sends[slot])
                    sends[slot] = op.program().send
                    batch.append(slot)
                stepping, coll_ops = coll_ops, None

            if coll_ops is not None:
                # Nobody else acted this cycle: charge the whole step and
                # resume each program with its result when it ends.
                ready = []
                for (slot, _), value in zip(coll_ops, done.results):
                    inbox[slot] = value
                    ready.append(slot)
                _charge(ph, cw_counts, done, coll_cls.label, len(coll_ops))
                cycle += done.cycles
                continue

            if collided is not None:
                # Order each collided channel's writers by slot, and pick
                # the channel whose second writer comes first, as a pass
                # in slot order finds it (a stepped collective op's first
                # write is collected after the other slots').
                slot_of = {pid: i for i, pid in enumerate(pids)}
                clashes = {
                    ch: sorted(ws, key=slot_of.__getitem__)
                    for ch, ws in collided.items()
                }
                channel = min(
                    clashes, key=lambda ch: slot_of[clashes[ch][1]]
                )
                # Preserve the aborted phase's cost data: all completed
                # cycles are recorded, stamped with collisions=1, so
                # adversary/lower-bound experiments keep their stats.
                _commit_counters()
                ph.cycles = cycle
                ph.collisions = 1
                self.stats.add(ph)
                raise CollisionError(cycle, channel, clashes[channel])

            # --- deliver reads -------------------------------------------
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
                        # First non-empty broadcast on this channel: wake
                        # every parked until_nonempty listener; they rejoin
                        # the active set next cycle.
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
        return results
