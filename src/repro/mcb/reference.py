"""The reference interpreter: one plain cycle loop for every MCB variant.

:class:`ReferenceMCBNetwork` runs the same generator programs as the
optimized :class:`~repro.mcb.network.MCBNetwork`, one cycle at a time
with plain dicts and lists.  It is not exported from :mod:`repro.mcb`.
It serves as

* the correctness oracle: the equivalence battery
  (``tests/test_engine_equivalence.py``) demands that the fast engine's
  unobserved path produce bit-identical per-processor results and
  ``RunStats`` (cycles, messages, bits, channel_writes, aux_peak,
  fast_forward_cycles) on the sort, select, bounds and scheduler
  suites;
* the only loop that emits observer events: ``MCBNetwork`` is its
  subclass and runs every stage with an observer attached here, so
  there is one event stream per program, not one per engine;
* the baseline of the hot-path microbenchmark
  (``benchmarks/bench_engine_hotpath.py``);
* the one engine behind the paper's §9 model variants.  A frozen
  :class:`ChannelPolicy` selects the channel-access rules:

  ============  ==================================================
  ``write``     ``exclusive`` (the paper's model: a second writer
                aborts the stage), ``detect`` (readers of a
                collided channel get the ``COLLISION`` marker) or
                ``priority`` (the lowest-pid writer wins)
  ``read``      ``single`` (one channel per cycle) or ``all``
                (``ExtOp`` may read a tuple of channels or ``"all"``)
  ``medium``    ``channels`` (memoryless: a read hears only this
                cycle's write) or ``cells`` (CREW shared memory: a
                read returns the last value ever written)
  ============  ==================================================

  :class:`~repro.mcb.extensions.ExtendedNetwork` and
  :class:`~repro.mcb.crew.CREWMemory` are this class with a fixed
  policy; neither has a loop of its own.

:class:`~repro.mcb.program.Listen` is defined here by *desugaring*: the
interpreter synthesizes one ``CycleOp(read=...)`` per cycle of the
window without resuming the generator, then resumes it once with the
bulk result.  The fast engine's parked wait-lists must match this bit
for bit.  A collective op (:class:`~repro.mcb.program.CollectiveOp`: a
``RunPlan``, Rank-Sort's ``SortGroup`` or an
:class:`~repro.mcb.program.Emit`) is stepped as the desugared program
(:func:`~repro.mcb.program.desugar_collective`) it stands for, whose
return value resumes the generator; that program may yield collective
ops of its own.

Rules shared by every policy (and by the fast engine): ``Sleep(c)``
with ``c < 0`` raises :class:`ProtocolError`; a message with more than
``max_message_fields`` fields raises :class:`MessageSizeError`; a
payload without a write channel raises :class:`ProtocolError`; an
exclusive-write abort records the partial phase (``collisions = 1``)
without charging the aborted cycle's messages, and
:class:`CollisionError` lists every writer of the collided channel.

:func:`run_simulated_reference` likewise keeps the O(v²·s·|ops|)
linear-scan scheduling of :func:`repro.mcb.simulate.run_simulated`
as the oracle for its per-virtual-cycle lookup tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Literal, Optional, Sequence

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
from .program import (
    CollectiveOp,
    CycleOp,
    Listen,
    ProcContext,
    ProgramFn,
    Sleep,
    StageOp,
    desugar_collective,
    listen_window,
)
from .trace import PhaseStats, RunStats

#: ``run``'s default ``max_cycles``: the safety valve against a
#: livelocked protocol.
MAX_CYCLES = 50_000_000

WritePolicy = Literal["exclusive", "detect", "priority"]
ReadPolicy = Literal["single", "all"]
Medium = Literal["channels", "cells"]


@dataclass(frozen=True)
class ChannelPolicy:
    """The channel-access rules one interpreter run follows.

    An engine whose medium is ``cells`` keeps a ``cells_used`` set; the
    interpreter adds every cell written to it.
    """

    write: WritePolicy = "exclusive"
    read: ReadPolicy = "single"
    medium: Medium = "channels"

    def __post_init__(self) -> None:
        if self.write not in ("exclusive", "detect", "priority"):
            raise ConfigurationError(f"unknown write policy {self.write!r}")
        if self.read not in ("single", "all"):
            raise ConfigurationError(f"unknown read policy {self.read!r}")
        if self.medium not in ("channels", "cells"):
            raise ConfigurationError(f"unknown medium {self.medium!r}")


class _RefListenState:
    """Per-pid desugaring state for one in-flight :class:`Listen`."""

    __slots__ = ("channel", "window", "elapsed", "buf")

    def __init__(self, channel: int, window: Optional[int]):
        self.channel = channel
        self.window = window  # None = until_nonempty
        self.elapsed = 1  # reads synthesized so far (first at yield cycle)
        self.buf: list = []

    def fold(self, got: Any) -> Any:
        """Fold the read delivered last cycle.

        Returns the listen's bulk result once it completes, or ``None``
        when the interpreter must synthesize another read.  Anything
        non-empty is heard, including the ``COLLISION`` marker.
        """
        off = self.elapsed - 1
        heard = got is not None and got is not EMPTY
        if self.window is None:
            if heard:
                return (off, got)
        else:
            if heard:
                self.buf.append((off, got))
            if self.elapsed >= self.window:
                return self.buf
        self.elapsed += 1
        return None


class ReferenceMCBNetwork(ObservableMixin):
    """The per-cycle dict-scan MCB(p, k) interpreter.

    Runs under :attr:`policy`, the paper's model unless a subclass fixes
    another one.  ``run`` accepts ``CycleOp`` and, if
    :attr:`accepts_ext_op`, ``ExtOp`` under every policy.
    """

    policy: ChannelPolicy = ChannelPolicy()
    max_message_fields: int = 8
    #: Whether ``run`` accepts the §9 ``ExtOp``.  The fast engine, whose
    #: observed stages run on this loop, accepts ``CycleOp`` only.
    accepts_ext_op: bool = True

    def __init__(
        self,
        p: int,
        k: int,
        *,
        max_message_fields: int = 8,
    ):
        if p < 1:
            raise ConfigurationError(f"need at least one processor, got p={p}")
        if k < 1:
            raise ConfigurationError(f"need at least one channel, got k={k}")
        if k > p:
            raise ConfigurationError(
                f"the model requires k <= p, got p={p}, k={k}"
            )
        self.max_message_fields = max_message_fields
        self._setup(p, k)

    def _setup(self, p: int, k: int) -> None:
        self.p = p
        self.k = k
        self.stats = RunStats()
        self._init_observability()

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Forget all accumulated statistics and detach every observer."""
        self.stats = RunStats()
        self._reset_observability()

    # ------------------------------------------------------------------
    def run(
        self,
        programs: dict[int, ProgramFn] | Sequence[ProgramFn],
        *,
        phase: str = "phase",
        data: Optional[dict[int, Any]] = None,
        max_cycles: int = MAX_CYCLES,
    ) -> dict[int, Any]:
        """Execute one synchronized stage under :attr:`policy`; same
        contract as :meth:`MCBNetwork.run`."""
        # extensions.py builds on this module, so import its op lazily.
        from .extensions import COLLISION, ExtOp

        policy = self.policy
        write_policy = policy.write
        read_all = policy.read == "all"
        cells_used: Optional[set] = (
            self.cells_used if policy.medium == "cells" else None
        )
        k = self.k
        programs = self._check_programs(programs)

        contexts: dict[int, ProcContext] = {}
        gens: dict[int, Any] = {}
        for pid, fn in programs.items():
            ctx = ProcContext(
                pid=pid,
                p=self.p,
                k=k,
                data=None if data is None else data.get(pid),
            )
            contexts[pid] = ctx
            gens[pid] = fn(ctx)

        results: dict[int, Any] = {pid: None for pid in programs}
        inbox: dict[int, Any] = {pid: None for pid in programs}
        wake: dict[int, int] = {pid: 0 for pid in programs}
        listening: dict[int, _RefListenState] = {}
        # pid -> the programs its stepped collective ops interrupted,
        # innermost last
        coll_outer: dict[int, list] = {}

        def resume(pid: int, got: Any) -> Any:
            """``pid``'s next op, stepping a collective op as its
            desugared program; raises StopIteration only when the program
            itself ends."""
            while True:
                try:
                    op = gens[pid].send(got)
                except StopIteration as stop:
                    outer = coll_outer.get(pid)
                    if not outer:
                        raise
                    gens[pid] = outer.pop()
                    got = stop.value
                    continue
                if not isinstance(op, CollectiveOp):
                    return op
                coll_outer.setdefault(pid, []).append(gens[pid])
                gens[pid] = desugar_collective(pid, op, k)
                got = None
        until_parked = 0
        memory: dict[int, Any] = {}  # cell contents (medium "cells")

        ph = PhaseStats(name=phase, k=k)
        dispatch = self._dispatch
        if dispatch is not None:
            dispatch.dispatch(PhaseStarted(phase=phase, p=self.p, k=k))
        cycle_ops = (CycleOp, ExtOp) if self.accepts_ext_op else (CycleOp,)
        cycle = 0
        while gens:
            if until_parked and until_parked == len(gens) and not any(
                inbox[pid] is not None and inbox[pid] is not EMPTY
                for pid in listening
            ):
                # Every still-live processor waits for a broadcast that can
                # never come: end the phase, closing the orphaned listeners
                # (their results stay None).  A listener whose last
                # synthesized read already delivered something is about to
                # complete — and may write — so it is not orphaned.
                for pid in list(gens):
                    gens.pop(pid).close()
                break
            acting = [pid for pid in gens if wake[pid] <= cycle]
            if not acting:
                target = min(wake[pid] for pid in gens)
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
            writes: dict[int, tuple[int, Any]] = {}  # channel -> 1st writer
            collided: dict[int, list[tuple[int, Any]]] = {}  # every writer
            reads: list[tuple[int, Any]] = []  # (pid, channel or channels)
            any_op = False
            for pid in acting:
                st = listening.get(pid)
                if st is not None:
                    # In-flight Listen: fold the read delivered last cycle,
                    # then either synthesize this cycle's read (without
                    # resuming the generator) or resume it with the bulk
                    # result.
                    done = st.fold(inbox[pid])
                    if done is None:
                        inbox[pid] = None
                        wake[pid] = cycle + 1
                        any_op = True
                        reads.append((pid, st.channel))
                        continue
                    del listening[pid]
                    if st.window is None:
                        until_parked -= 1
                    inbox[pid] = done
                    if dispatch is not None:
                        dispatch.dispatch(
                            ListenWoken(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                channel=st.channel,
                                heard=1 if st.window is None else len(done),
                            )
                        )
                try:
                    op = resume(pid, inbox[pid])
                except StopIteration as stop:
                    results[pid] = stop.value
                    del gens[pid]
                    continue
                finally:
                    inbox[pid] = None
                any_op = True
                if isinstance(op, Sleep):
                    if op.cycles < 0:
                        raise ProtocolError(
                            f"P{pid} requested a negative sleep ({op.cycles})"
                        )
                    w = max(1, op.cycles)
                    wake[pid] = cycle + w
                    if w > 1 and dispatch is not None:
                        dispatch.dispatch(
                            ProcessorSlept(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                until_cycle=cycle + w,
                            )
                        )
                    continue
                if isinstance(op, Listen):
                    window = self._validate_listen(pid, op)
                    listening[pid] = _RefListenState(op.channel, window)
                    if window is None:
                        until_parked += 1
                    wake[pid] = cycle + 1
                    reads.append((pid, op.channel))
                    if dispatch is not None:
                        dispatch.dispatch(
                            ListenParked(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                channel=op.channel,
                                window=window,
                            )
                        )
                    continue
                if not isinstance(op, cycle_ops):
                    raise ProtocolError(
                        f"P{pid} yielded {op!r}; expected "
                        f"{', '.join(c.__name__ for c in cycle_ops)}, "
                        f"Sleep, Listen, Emit, or a collective op"
                    )
                wake[pid] = cycle + 1
                w = op.write
                if w is not None:
                    self._validate_write(pid, op, cycle)
                    if w in writes:
                        collided.setdefault(w, [writes[w]]).append(
                            (pid, op.payload)
                        )
                    else:
                        writes[w] = (pid, op.payload)
                elif op.payload is not None:
                    raise ProtocolError(
                        f"P{pid} attached a payload without a write channel"
                    )
                r = op.read
                if r is not None:
                    if not isinstance(r, int):
                        r = self._multi_read(pid, r, read_all)
                    elif not 1 <= r <= k:
                        raise ProtocolError(
                            f"P{pid} read invalid channel C{r} (k={k})"
                        )
                    reads.append((pid, r))

            if collided and write_policy == "exclusive":
                channel, clash = next(iter(collided.items()))
                writers = [w for w, _ in clash]
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
                # Record the partial phase (costs of the completed cycles,
                # none of the aborted one) so adversary experiments keep
                # their data.
                ph.collisions = 1
                self._close_phase(ph, cycle, contexts)
                raise CollisionError(cycle, channel, writers)

            # --- resolve what each written channel carries ---------------
            content = memory if cells_used is not None else {}
            for ch, (writer, msg) in writes.items():
                clash = collided.get(ch)
                if clash is None:
                    ph.messages += 1
                    ph.bits += msg.bit_size()
                    ph.channel_writes[ch] = ph.channel_writes.get(ch, 0) + 1
                else:
                    ph.collisions += 1
                    ph.messages += len(clash)
                    ph.bits += sum(m.bit_size() for _, m in clash)
                    ph.channel_writes[ch] = (
                        ph.channel_writes.get(ch, 0) + len(clash)
                    )
                    if write_policy == "detect":
                        msg = COLLISION
                        resolution = "garbled"
                    else:  # priority: lowest pid wins
                        writer, msg = min(clash)
                        resolution = "priority"
                    writes[ch] = (writer, msg)
                    if dispatch is not None:
                        dispatch.dispatch(
                            CollisionDetected(
                                phase=phase,
                                cycle=cycle,
                                channel=ch,
                                writers=tuple(w for w, _ in clash),
                                resolution=resolution,
                            )
                        )
                content[ch] = msg
                if cells_used is not None:
                    cells_used.add(ch)

            # --- deliver reads -------------------------------------------
            # Reads see the channel (or cell) as of the end of the cycle.
            readers: dict[int, list[int]] = {}
            for pid, want in reads:
                if isinstance(want, int):
                    inbox[pid] = content.get(want, EMPTY)
                    if dispatch is not None:
                        readers.setdefault(want, []).append(pid)
                else:
                    inbox[pid] = {ch: content.get(ch, EMPTY) for ch in want}
                    if dispatch is not None:
                        for ch in want:
                            readers.setdefault(ch, []).append(pid)
            if dispatch is not None:
                for ch, (writer, msg) in writes.items():
                    if msg is COLLISION:
                        continue  # garbled: nothing was delivered
                    dispatch.dispatch(
                        MessageBroadcast(
                            phase=phase,
                            cycle=cycle,
                            channel=ch,
                            writer=writer,
                            readers=tuple(readers.get(ch, ())),
                            msg_kind=msg.kind,
                            fields=msg.fields,
                            bits=msg.bit_size(),
                        )
                    )
            if any_op:
                cycle += 1

        self._close_phase(ph, cycle, contexts)
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

    def run_stage(
        self,
        cls: type[StageOp],
        values: Sequence[Any],
        shared: Any,
        *,
        phase: str = "phase",
    ) -> list:
        """A stage in which each processor ``P_i`` yields the one
        :class:`~repro.mcb.program.StageOp` ``cls(ctx, values[i - 1],
        shared)`` and returns its result; the results in pid order.

        *Defined* as :meth:`run` of that one-yield program; the fast
        engine may instead run the stage from ``values`` alone (see
        :meth:`MCBNetwork.run_stage
        <repro.mcb.network.MCBNetwork.run_stage>`).
        """
        p = self.p
        if len(values) != p:
            raise ValueError(
                f"a stage takes one value per processor: {len(values)} "
                f"for p={p}"
            )

        def program(ctx: ProcContext):
            return (yield cls(ctx, values[ctx.pid - 1], shared))

        return list(self.run([program] * p, phase=phase).values())

    # ------------------------------------------------------------------
    def _check_programs(
        self, programs: dict[int, ProgramFn] | Sequence[ProgramFn]
    ) -> dict[int, ProgramFn]:
        """``run``'s programs as a dict ``pid -> program``, checked."""
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
        return programs

    def _close_phase(
        self, ph: PhaseStats, cycle: int, contexts: dict[int, ProcContext]
    ) -> None:
        """Stamp the phase's cycle count and aux peaks, list its channel
        writes in ascending channel order (as the fast engine does);
        add it to stats."""
        ph.cycles = cycle
        ph.channel_writes = dict(sorted(ph.channel_writes.items()))
        for pid, ctx in contexts.items():
            ph.aux_peak[pid] = ctx.aux_peak
        self.stats.add(ph)

    def _validate_listen(self, pid: int, op: Listen) -> Optional[int]:
        """Check a Listen op; return its window (None = until_nonempty)."""
        if not 1 <= op.channel <= self.k:
            raise ProtocolError(
                f"P{pid} listens on invalid channel C{op.channel} (k={self.k})"
            )
        return listen_window(pid, op)

    def _validate_write(self, pid: int, op: Any, cycle: int) -> None:
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

    def _multi_read(self, pid: int, want: Any, read_all: bool) -> tuple:
        """Check an ``ExtOp`` multi-channel read; return its channels."""
        if not read_all:
            raise ProtocolError(
                f"P{pid}: multi-channel read requires read_policy='all'"
            )
        chans = tuple(range(1, self.k + 1)) if want == "all" else tuple(want)
        for ch in chans:
            if not isinstance(ch, int) or not 1 <= ch <= self.k:
                raise ProtocolError(
                    f"P{pid} read invalid channel C{ch} (k={self.k})"
                )
        return chans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(p={self.p}, k={self.k})"


# ---------------------------------------------------------------------------
# Original simulation scheduling (linear scans inside the block loop)
# ---------------------------------------------------------------------------

def run_simulated_reference(
    net,
    p_virtual: int,
    k_virtual: int,
    programs: dict[int, ProgramFn],
    *,
    data: Optional[dict[int, Any]] = None,
    phase: str = "simulated",
) -> dict[int, Any]:
    """Pre-optimization :func:`~repro.mcb.simulate.run_simulated` (oracle).

    Identical schedule and costs; the writer/reader of each real cycle is
    found by scanning all pending ops instead of a precomputed table.
    """
    from .simulate import (
        desugar,
        host_index,
        host_of,
        real_channel,
        subslot,
    )

    p, k = net.p, net.k
    if p_virtual < p or k_virtual < k:
        raise ConfigurationError(
            f"can only simulate a larger network: MCB({p_virtual},{k_virtual}) "
            f"on MCB({p},{k})"
        )
    if k_virtual > p_virtual:
        raise ConfigurationError("virtual network requires k' <= p'")
    v = math.ceil(p_virtual / p)
    s = math.ceil(k_virtual / k)

    hosted: dict[int, list[int]] = {}
    for q in programs:
        if not 1 <= q <= p_virtual:
            raise ConfigurationError(f"virtual pid {q} out of range 1..{p_virtual}")
        hosted.setdefault(host_of(q, v), []).append(q)

    results: dict[int, Any] = {}

    def make_host(host_pid: int, vpids: list[int]):
        def host_program(ctx: ProcContext):
            gens: dict[int, Any] = {}
            vctxs: dict[int, ProcContext] = {}
            for q in sorted(vpids):
                vctx = ProcContext(
                    pid=q,
                    p=p_virtual,
                    k=k_virtual,
                    data=None if data is None else data.get(q),
                )
                vctxs[q] = vctx
                gens[q] = desugar(q, k_virtual, programs[q](vctx))
            inbox: dict[int, Any] = {q: None for q in gens}
            sleeping: dict[int, int] = {}

            while gens:
                writes: dict[int, tuple[int, Any]] = {}
                reads: dict[int, int] = {}
                for q in list(gens):
                    if sleeping.get(q, 0) > 0:
                        sleeping[q] -= 1
                        continue
                    try:
                        op = gens[q].send(inbox[q])
                    except StopIteration as stop:
                        results[q] = stop.value
                        del gens[q]
                        continue
                    finally:
                        inbox[q] = None
                    if isinstance(op, Sleep):
                        sleeping[q] = max(1, op.cycles) - 1
                        continue
                    if op.write is not None:
                        writes[q] = (op.write, op.payload)
                    if op.read is not None:
                        reads[q] = op.read
                        inbox[q] = EMPTY

                if not gens and not writes and not reads:
                    return None

                if not writes and not reads:
                    yield Sleep(v * v * s)
                    continue

                for rep in range(v):
                    for wrep in range(v):
                        for t in range(s):
                            op_write = None
                            op_payload = None
                            for q, (chan, msg) in writes.items():
                                if host_index(q, v) == wrep and subslot(chan, k) == t:
                                    op_write = real_channel(chan, k)
                                    op_payload = msg
                                    break
                            op_read = None
                            reader_q = None
                            for q, chan in reads.items():
                                if host_index(q, v) == rep and subslot(chan, k) == t:
                                    op_read = real_channel(chan, k)
                                    reader_q = q
                                    break
                            got = yield CycleOp(
                                write=op_write, payload=op_payload, read=op_read
                            )
                            if reader_q is not None and got is not EMPTY and got is not None:
                                inbox[reader_q] = got
            return None

        return host_program

    host_programs = {
        host_pid: make_host(host_pid, vpids) for host_pid, vpids in hosted.items()
    }
    net.run(host_programs, phase=phase)
    if net.stats.phases:
        net.stats.phases[-1].extra["simulated"] = {
            "p_virtual": p_virtual,
            "k_virtual": k_virtual,
            "hosts": len(hosted),
            "v": v,
            "s": s,
            "cycles_per_virtual_cycle": v * v * s,
            "messages_per_message": v,
        }
    return results
