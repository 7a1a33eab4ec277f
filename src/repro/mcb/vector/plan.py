"""The oblivious-schedule IR: plans, compile-time checks, compiled phases.

An *oblivious* phase is one in which every message's (writer, channel,
reader, payload position) is a pure function of ``(p, k, m, cycle)``
known before the run starts — the §5.2 columnsort transformation
schedules, §6.1's virtual-column transfers, a comparator network's
compare rounds.  Such a phase needs no per-cycle generator
dispatch at all: it is a fixed permutation-with-fanout from an input
state matrix to an output state matrix, and can be validated *before*
execution and executed as two NumPy gathers
(:mod:`repro.mcb.vector.executor`).

Two layers:

* :class:`SchedulePlan` — the raw, unvalidated event form produced by
  the lowerings in :mod:`repro.mcb.vector.lower`: int64 event arrays
  (or, for hand-built plans, lists of event tuples).  Its
  :meth:`~SchedulePlan.as_programs` renders the plan back into ordinary
  per-processor generator programs, so any plan can also be run on the
  generator engines — that interpreter is the parity oracle the vector
  executor is tested against, and it defines the
  :class:`~repro.mcb.program.RunPlan` op through which columnsort and
  the comparator-network backends run their plans on the generator
  engines (the fast engine may run such a phase in one collective
  step, :meth:`~SchedulePlan.gather_rows`).

* :class:`CompiledPhase` — the validated form produced by
  :meth:`SchedulePlan.compile`: the write events as int64 arrays plus
  one ``(p, slots)`` gather table, ``out_idx``, which every executor
  reads — the vector engine on arrays, ``gather_rows`` on Python rows,
  phase fusion on an index state.  Compilation enforces the MCB access
  rules statically: collision-freedom (one writer per channel per
  cycle — a violation raises :class:`~repro.mcb.errors.CollisionError`
  with exactly the engine's message, *before* any element moves), one
  write and one read per processor per cycle, matched reads, and
  unambiguous destination slots.

Semantics of one plan are "update": every write sources the *input*
state, every matched read (plus every local move) fills one destination
slot, and every other slot keeps its input value — so the whole phase
is one gather from the input state and the values the writes send.
This is exactly what the per-cycle generator form computes, because a
collision-free oblivious schedule never reads a slot it has already
overwritten in the same phase — each phase is built from a permutation
of element positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from sys import getsizeof
from typing import Any, Optional, Sequence

import numpy as np

from ..errors import CollisionError, ConfigurationError, MCBError
from ..message import EMPTY, Message, delivered, pack_elem, unpack_elem
from ..program import IDLE, CycleOp, ProcContext

#: (cycle, proc0, channel, src_slot) — proc0 is 0-based, channel 1-based.
WriteEvent = tuple[int, int, int, int]
#: (cycle, proc0, channel, dst_slot)
ReadEvent = tuple[int, int, int, int]
#: (proc0, src_slot, dst_slot) — a free local permutation step.
MoveEvent = tuple[int, int, int]


def _event_array(events: Any, width: int) -> Optional[np.ndarray]:
    """``events`` as an ``(n, width)`` int64 array, or ``None`` if they
    are not ``width``-wide rows of ints (then only the per-event
    checks of :meth:`SchedulePlan._compile_slow` can say why)."""
    if (
        isinstance(events, np.ndarray)
        and events.dtype == np.int64
        and events.shape[1:] == (width,)
    ):
        return events
    try:
        return np.array(events, dtype=np.int64).reshape(-1, width)
    except (OverflowError, TypeError, ValueError):
        return None


def _event_rows(events: Any) -> list:
    """``events`` as a list of rows of Python ints."""
    return events.tolist() if isinstance(events, np.ndarray) else events


@dataclass(eq=False, repr=False, slots=True)
class CompiledPhase:
    """A validated oblivious phase as one flat gather.

    Write event ``i`` broadcasts ``state[w_proc[i], w_src[i]]`` on
    channel ``w_chan[i]`` in cycle ``w_cycle[i]``.  Write events are
    sorted by ``(cycle, proc)``, which is the order the generator
    engines deliver (and emit observability events for) them.

    ``out_idx`` is the whole phase as one ``(p, slots)`` gather.  With
    ``flat`` the input state's ``p * slots`` entries in row-major order
    and ``vals = flat[w_flat]`` the value each write sends, the output
    state is ``concat(vals, flat)[out_idx]``: an entry below
    ``messages`` is the write a matched read stores into that slot, any
    other is ``messages + proc * slots + src``, a free local move's
    source or the slot's own value.
    """

    p: int
    k: int
    cycles: int
    slots: int
    kind: str
    w_cycle: np.ndarray
    w_proc: np.ndarray
    w_chan: np.ndarray
    w_src: np.ndarray
    out_idx: np.ndarray
    _w_flat: Optional[np.ndarray] = field(default=None, init=False)
    _readers: Optional[list] = field(default=None, init=False)
    _cw_counts: Optional[np.ndarray] = field(default=None, init=False)
    _cw_pairs: Optional[list] = field(default=None, init=False)

    @property
    def messages(self) -> int:
        """Broadcast count of the phase (== number of write events)."""
        return len(self.w_cycle)

    @property
    def w_flat(self) -> np.ndarray:
        """Each write's source as an index into the flat state, cached."""
        if self._w_flat is None:
            self._w_flat = self.w_proc * self.slots + self.w_src
        return self._w_flat

    def channel_write_counts(self) -> np.ndarray:
        """Writes per channel, dense ``(k + 1,)`` array (index 0 unused).

        A compile-time constant of the phase, computed once and cached —
        the executor adds it straight into its per-channel accounting on
        every execute call.
        """
        counts = self._cw_counts
        if counts is None:
            counts = np.bincount(
                self.w_chan, minlength=self.k + 1
            ).astype(np.int64)
            self._cw_counts = counts
        return counts

    def channel_writes(self) -> list[tuple[int, int]]:
        """``(channel, writes)`` of every channel the phase writes,
        ascending, cached."""
        pairs = self._cw_pairs
        if pairs is None:
            pairs = self._cw_pairs = [
                (ch, n)
                for ch, n in enumerate(self.channel_write_counts().tolist())
                if n
            ]
        return pairs

    def readers_by_write(self) -> list[tuple[int, ...]]:
        """1-based reader pids per write event, ascending (event order)."""
        readers = self._readers
        if readers is None:
            readers = [()] * len(self.w_cycle)
            flat = self.out_idx.ravel()
            read = np.flatnonzero(flat < len(self.w_cycle))
            by_widx: dict[int, list[int]] = {}
            # Row-major positions come in ascending processor order.
            for pos, widx in zip(read.tolist(), flat[read].tolist()):
                by_widx.setdefault(widx, []).append(pos // self.slots + 1)
            for widx, pids in by_widx.items():
                readers[widx] = tuple(pids)
            self._readers = readers
        return readers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledPhase(kind={self.kind!r}, p={self.p}, k={self.k}, "
            f"cycles={self.cycles}, slots={self.slots}, "
            f"writes={len(self.w_cycle)})"
        )


def _out_index(
    p: int,
    slots: int,
    messages: int,
    reads: tuple[np.ndarray, np.ndarray, np.ndarray],
    moves: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """A phase's :attr:`CompiledPhase.out_idx` from its matched
    ``reads`` (``proc, dst, write``) and local ``moves`` (``proc, src,
    dst``), whose destinations are distinct."""
    out = np.arange(messages, messages + p * slots, dtype=np.int64)
    out = out.reshape(p, slots)
    m_proc, m_src, m_dst = moves
    out[m_proc, m_dst] = messages + m_proc * slots + m_src
    r_proc, r_dst, r_widx = reads
    out[r_proc, r_dst] = r_widx
    return out


@dataclass(eq=False)
class SchedulePlan:
    """Raw (unvalidated) oblivious phase: flat event tables.

    ``writes``/``reads`` are ``(n, 4)`` int64 arrays of ``(cycle, proc,
    channel, slot)`` rows with 0-based cycles/procs/slots and 1-based
    channels; ``moves`` an ``(n, 3)`` array of free local ``(proc,
    src_slot, dst_slot)`` copies (none by default).  Lists of event
    tuples are accepted in their place and checked the same way.  Use
    :meth:`compile` to validate into a :class:`CompiledPhase` for the
    vector executor and :meth:`gather_rows`, or :meth:`as_programs` to render the identical
    computation as generator programs for any MCB engine.  Plans
    compare by identity.
    """

    p: int
    k: int
    cycles: int
    slots: int
    writes: Any
    reads: Any
    moves: Any = field(default_factory=list)
    kind: str = "elem"

    @classmethod
    def from_compiled(cls, phase: CompiledPhase) -> "SchedulePlan":
        """The plan whose :meth:`compile` is ``phase`` (a disk-loaded
        phase), for the generator engines: ``phase``'s writes, each
        matched read at its write's cycle and channel, and each local
        move that changes a slot.  Recompiling it gives ``phase``."""
        p, slots, n = phase.p, phase.slots, phase.messages
        out = phase.out_idx
        proc, dst = np.nonzero(out < n)
        widx = out[proc, dst]
        src = out - n - np.arange(p, dtype=np.int64)[:, None] * slots
        m_proc, m_dst = np.nonzero((out >= n) & (src != np.arange(slots)))
        plan = cls(
            p, phase.k, phase.cycles, slots,
            np.stack(
                [phase.w_cycle, phase.w_proc, phase.w_chan, phase.w_src],
                axis=1,
            ),
            np.stack(
                [phase.w_cycle[widx], proc, phase.w_chan[widx], dst], axis=1
            ),
            np.stack([m_proc, src[m_proc, m_dst], m_dst], axis=1),
            phase.kind,
        )
        plan._compiled = phase
        return plan

    # ------------------------------------------------------------------
    def compile(self) -> CompiledPhase:
        """Validate the plan and lower it to its write events and gather
        table.

        The result is cached, so a plan's events must not change once
        it has compiled.

        Raises
        ------
        CollisionError
            Two writers share one channel in one cycle.  Raised with the
            engines' exact message — collision-freedom is a *static*
            property of an oblivious schedule, so it is checked here,
            before any element moves.
        ConfigurationError
            Any other violation of the model's access rules: a processor
            writing or reading twice in one cycle, out-of-range indices,
            a read of a silent channel, or
            two events landing in one destination slot.
        """
        try:
            return self._compiled
        except AttributeError:
            pass
        p, k, cycles, slots = self.p, self.k, self.cycles, self.slots
        if p < 1 or k < 1 or cycles < 0 or slots < 1:
            raise ConfigurationError(
                f"invalid plan shape: p={p}, k={k}, cycles={cycles}, "
                f"slots={slots}"
            )
        w = _event_array(self.writes, 4)
        r = _event_array(self.reads, 4)
        mv = _event_array(self.moves, 3)
        compiled = None
        if w is not None and r is not None and mv is not None:
            compiled = self._compile_fast(w, r, mv)
        if compiled is None:
            compiled = self._compile_slow()
        self._compiled = compiled
        return compiled

    def _compile_fast(
        self, w: np.ndarray, r: np.ndarray, mv: np.ndarray
    ) -> Optional[CompiledPhase]:
        """Vectorized validation of the event arrays ``w``, ``r`` and
        ``mv`` — the whole-plan checks as array ops.

        Returns ``None`` whenever *any* rule is (or merely might be)
        violated, and :meth:`compile` falls back to :meth:`_compile_slow`,
        which re-derives the exact diagnostic (message text and raise
        order are pinned by tests).  The happy path — every lowering in
        :mod:`repro.mcb.vector.lower` — never takes the fallback, so
        compile cost scales with NumPy sorts instead of per-event Python.
        """
        p, k, cycles, slots = self.p, self.k, self.cycles, self.slots

        for ev in (w, r):
            if len(ev) and not (
                (ev[:, 0] >= 0).all() and (ev[:, 0] < cycles).all()
                and (ev[:, 1] >= 0).all() and (ev[:, 1] < p).all()
                and (ev[:, 2] >= 1).all() and (ev[:, 2] <= k).all()
                and (ev[:, 3] >= 0).all() and (ev[:, 3] < slots).all()
            ):
                return None
        if len(mv) and not (
            (mv[:, 0] >= 0).all() and (mv[:, 0] < p).all()
            and (mv[:, 1:] >= 0).all() and (mv[:, 1:] < slots).all()
        ):
            return None

        # Writes in (cycle, proc) order — the generator delivery order.
        w = w[np.lexsort((w[:, 1], w[:, 0]))]
        if len(w):
            if (np.diff(w[:, 0] * p + w[:, 1]) == 0).any():
                return None  # a processor writes twice in one cycle
            wc_key = w[:, 0] * (k + 1) + w[:, 2]
            wc_order = np.argsort(wc_key, kind="stable")
            wc_sorted = wc_key[wc_order]
            if (np.diff(wc_sorted) == 0).any():
                return None  # channel collision
        else:
            wc_order = wc_sorted = np.empty(0, dtype=np.int64)

        r = r[np.lexsort((r[:, 1], r[:, 0]))]
        if len(r):
            if (np.diff(r[:, 0] * p + r[:, 1]) == 0).any():
                return None  # a processor reads twice in one cycle
            rc_key = r[:, 0] * (k + 1) + r[:, 2]
            pos = np.searchsorted(wc_sorted, rc_key)
            if len(wc_sorted):
                found = wc_sorted[np.minimum(pos, len(wc_sorted) - 1)] == rc_key
            else:
                found = np.zeros(len(r), dtype=bool)
            if not found.all():
                return None  # read of a silent channel
            r_widx = wc_order[pos]
        else:
            r_widx = np.empty(0, dtype=np.int64)

        dest_keys = np.concatenate(
            [r[:, 1] * slots + r[:, 3], mv[:, 0] * slots + mv[:, 2]]
        )
        dest_keys.sort()
        if (np.diff(dest_keys) == 0).any():
            return None  # two events deliver into one slot

        return CompiledPhase(
            p=p, k=k, cycles=cycles, slots=slots, kind=self.kind,
            w_cycle=w[:, 0].copy(), w_proc=w[:, 1].copy(),
            w_chan=w[:, 2].copy(), w_src=w[:, 3].copy(),
            out_idx=_out_index(
                p, slots, len(w), (r[:, 1], r[:, 3], r_widx), mv.T
            ),
        )

    def _compile_slow(self) -> CompiledPhase:
        """Event-at-a-time validation: the diagnostic (and fallback) path."""
        p, k, cycles, slots = self.p, self.k, self.cycles, self.slots
        writes = sorted(
            _event_rows(self.writes), key=lambda w: (w[0], w[1])
        )
        seen_wp: set[tuple[int, int]] = set()
        for cy, proc, chan, src in writes:
            self._check_event("write", cy, proc, chan, src)
            if (cy, proc) in seen_wp:
                raise ConfigurationError(
                    f"P{proc + 1} writes twice in cycle {cy}"
                )
            seen_wp.add((cy, proc))

        # Collision scan, replicating the generator engines: a cycle's
        # ops are collected in pid order, the whole cycle is scanned
        # before aborting, and the reported channel is the first one to
        # receive its second writer.
        self._check_collisions(writes)

        reads = sorted(_event_rows(self.reads), key=lambda r: (r[0], r[1]))
        seen_rp: set[tuple[int, int]] = set()
        for cy, proc, chan, dst in reads:
            self._check_event("read", cy, proc, chan, dst)
            if (cy, proc) in seen_rp:
                raise ConfigurationError(
                    f"P{proc + 1} reads twice in cycle {cy}"
                )
            seen_rp.add((cy, proc))

        write_at = {
            (cy, chan): i for i, (cy, _, chan, _) in enumerate(writes)
        }
        matched: list[tuple[int, int, int]] = []  # (proc, dst, widx)
        for cy, proc, chan, dst in reads:
            widx = write_at.get((cy, chan))
            if widx is None:
                raise ConfigurationError(
                    f"P{proc + 1} reads silent channel C{chan} in cycle "
                    f"{cy} (no writer scheduled)"
                )
            matched.append((proc, dst, widx))

        dests: set[tuple[int, int]] = set()
        for proc, dst, _ in matched:
            if (proc, dst) in dests:
                raise ConfigurationError(
                    f"two events deliver into slot {dst} of P{proc + 1}"
                )
            dests.add((proc, dst))
        moves = _event_rows(self.moves)
        for proc, src, dst in moves:
            if not (0 <= proc < p and 0 <= src < slots and 0 <= dst < slots):
                raise ConfigurationError(
                    f"local move ({proc}, {src}, {dst}) out of range for "
                    f"p={p}, slots={slots}"
                )
            if (proc, dst) in dests:
                raise ConfigurationError(
                    f"two events deliver into slot {dst} of P{proc + 1}"
                )
            dests.add((proc, dst))

        def cols(rows: list, width: int) -> np.ndarray:
            return np.array(rows, dtype=np.int64).reshape(-1, width).T

        w = cols(writes, 4)
        return CompiledPhase(
            p=p, k=k, cycles=cycles, slots=slots, kind=self.kind,
            w_cycle=w[0].copy(), w_proc=w[1].copy(),
            w_chan=w[2].copy(), w_src=w[3].copy(),
            out_idx=_out_index(
                p, slots, len(writes), cols(matched, 3), cols(moves, 3)
            ),
        )

    # ------------------------------------------------------------------
    def _check_event(
        self, what: str, cy: int, proc: int, chan: int, slot: int
    ) -> None:
        if not 0 <= cy < self.cycles:
            raise ConfigurationError(
                f"{what} event cycle {cy} outside 0..{self.cycles - 1}"
            )
        if not 0 <= proc < self.p:
            raise ConfigurationError(
                f"{what} event processor {proc} outside 0..{self.p - 1}"
            )
        if not 1 <= chan <= self.k:
            raise ConfigurationError(
                f"{what} event on invalid channel C{chan} (k={self.k})"
            )
        if not 0 <= slot < self.slots:
            raise ConfigurationError(
                f"{what} event slot {slot} outside 0..{self.slots - 1}"
            )

    def _check_collisions(self, writes: list[WriteEvent]) -> None:
        """Abort on the first cycle with two writers on one channel."""
        i, n = 0, len(writes)
        while i < n:
            cy = writes[i][0]
            first: dict[int, int] = {}
            collided: dict[int, list[int]] = {}
            while i < n and writes[i][0] == cy:
                _, proc, chan, _ = writes[i]
                if chan in collided:
                    collided[chan].append(proc + 1)
                elif chan in first:
                    collided[chan] = [first.pop(chan), proc + 1]
                else:
                    first[chan] = proc + 1
                i += 1
            if collided:
                channel, pids = next(iter(collided.items()))
                raise CollisionError(cy, channel, pids)

    # ------------------------------------------------------------------
    def as_programs(self, state: Sequence[Sequence[Any]]):
        """Render the plan as per-processor generator programs.

        ``state[proc][slot]`` supplies each processor's initial row;
        every processor's program returns its final row (a list).  The
        programs follow the plan literally — one :class:`CycleOp` per
        cycle, writes sourcing the *initial* row — so running them on
        any generator engine computes exactly what the vector executor
        computes, with identical cycle/message/bit accounting.  This is
        the parity oracle: no validation happens here; an invalid plan
        fails at runtime exactly as a hand-written program would.
        """
        return {
            proc + 1: self.as_program(proc, state[proc])
            for proc in range(self.p)
        }

    def _program_maps(self):
        """Per-processor step tables for the program renderers, cached —
        a pure function of the plan's event lists, shared by every
        :meth:`as_program` call instead of rebuilt per processor.

        ``steps[proc][cy]`` is ``(write_chan, src_slot, read_chan,
        dst_slot)``, with ``None`` for the half that does not happen, or
        ``None`` for an idle cycle; events outside ``0..cycles-1`` never
        run.  One list per processor keeps the cache small: plans stay
        cached for the generator engines' columnsort and network paths.
        A :class:`~repro.mcb.vector.cache.PlanRegistry` that holds the
        plan sets ``_charge``, which is called once, with the plan and
        the tables' bytes, when they are built, so they count against
        its budget.
        """
        maps = getattr(self, "_prog_maps", None)
        if maps is None:
            cycles = self.cycles
            steps: dict[int, list] = {}

            def table(proc: int) -> list:
                t = steps.get(proc)
                if t is None:
                    t = steps[proc] = [None] * cycles
                return t

            for cy, proc, chan, src in _event_rows(self.writes):
                if 0 <= cy < cycles:
                    table(proc)[cy] = (chan, src, None, None)
            for cy, proc, chan, dst in _event_rows(self.reads):
                if 0 <= cy < cycles:
                    t = table(proc)
                    w = t[cy]
                    t[cy] = (
                        (None, None, chan, dst) if w is None
                        else (w[0], w[1], chan, dst)
                    )
            per_m: dict[int, list[tuple[int, int]]] = {}
            for proc, src, dst in _event_rows(self.moves):
                per_m.setdefault(proc, []).append((src, dst))
            maps = self._prog_maps = (steps, per_m)
            charge = getattr(self, "_charge", None)
            if charge is not None:
                charge(self, _held_bytes(maps))
        return maps

    def as_program(self, proc: int, row: Sequence[Any]):
        """One processor's program over its initial ``row`` — the
        single-processor form of :meth:`as_programs`, sharing the cached
        step tables so per-processor rendering costs O(own events)."""
        steps, per_m = self._program_maps()
        kind = self.kind
        row = list(row)
        table = steps.get(proc) or [None] * self.cycles
        moves = per_m.get(proc, [])

        def program(ctx: ProcContext):
            out = list(row)
            for src, dst in moves:
                out[dst] = row[src]
            for step in table:
                got = yield _step_op(kind, row, step)
                if (
                    step is not None
                    and step[2] is not None
                    and got is not EMPTY
                    and got is not None
                ):
                    out[step[3]] = unpack_elem(got.fields)
            return out

        return program

    def gather_rows(
        self, rows: list[Sequence[Any]], max_fields: int
    ) -> Optional[tuple[list[list], int, list[tuple[int, int]]]]:
        """Run the plan on ``rows`` (indexed by processor) as one gather
        over object arrays: what every processor's :meth:`as_program`
        returns, the bits its writes charge (``Message(kind,
        *pack_elem(v))`` each) and the ``(channel, writes)`` pairs.

        ``None`` if stepping must decide: the plan does not compile, a
        row is shorter than ``slots``, or some write would fail the
        engines' write guard of ``max_fields`` fields or its bit sizing.
        This is the collective step of :class:`~repro.mcb.program.RunPlan`.
        """
        try:
            compiled = self.compile()
        except MCBError:
            return None
        slots = self.slots
        if any(len(row) < slots for row in rows):
            return None
        # fromiter keeps each element whole: a tuple is not an axis.
        flat = np.fromiter(
            chain.from_iterable(
                row if len(row) == slots else row[:slots] for row in rows
            ),
            dtype=object, count=len(rows) * slots,
        )
        vals = flat[compiled.w_flat]
        listed = vals.tolist()
        sent = delivered(listed, self.kind, max_fields)
        if sent is None:
            return None
        got, bits = sent
        if got is not listed:  # a message changed some value
            vals = np.fromiter(got, dtype=object, count=len(got))
        outs = np.concatenate((vals, flat))[compiled.out_idx].tolist()
        for out, row in zip(outs, rows):
            if len(row) > slots:
                out += row[slots:]
        return outs, bits, compiled.channel_writes()


def _held_bytes(maps: tuple) -> int:
    """Bytes :meth:`SchedulePlan._program_maps`' tables hold: every dict,
    list and tuple, and every int outside CPython's small-int cache
    (``sys.getsizeof``, which counts the GC header)."""
    steps, per_m = maps
    tables = [*steps.values(), *per_m.values()]
    rows = [row for table in tables for row in table if row is not None]
    return sum(map(getsizeof, (steps, per_m, *tables, *rows))) + sum(
        getsizeof(v) for row in rows for v in row
        if v.__class__ is int and not -5 <= v <= 256
    )


def _step_op(kind: str, row: Sequence[Any], step: Any) -> CycleOp:
    """A plan program's op for one cycle: ``step`` is the processor's
    ``(write_chan, src_slot, read_chan, dst_slot)`` for the cycle (see
    :meth:`SchedulePlan._program_maps`), or ``None`` for an idle one."""
    if step is None:
        return IDLE
    wchan, src, rchan, _ = step
    return CycleOp(
        write=wchan,
        payload=None if wchan is None
        else Message(kind, *pack_elem(row[src])),
        read=rchan,
    )
