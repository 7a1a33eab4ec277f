"""Columnar execution of compiled oblivious phases.

One :class:`CompiledPhase` executes as two whole-array NumPy gathers
over a ``(p, slots)`` element matrix — or ``(p, slots, B)``
with a trailing *batch axis*, running ``B`` independent instances of the
same schedule in a single vectorized pass:

1. gather every write's payload from the flat input state:
   ``vals = flat[w_flat]``;
2. gather the output: ``out = concat(vals, flat)[out_idx]`` — each
   slot takes the write its processor reads into it, a local move's
   source or its own input value (*update* semantics);
3. account messages/bits/channel-writes from the gathered values.

Bit accounting is exact: a message's size is a pure function of its
payload value (:func:`repro.mcb.message.scalar_bits`), so
:func:`message_bits` computes per-event bit sizes vectorized — floats
cost a constant 64(+8 kind tag) bits, integers their exact two's
complement width via a branch-free bit-length reduction, and object
payloads (tuples, mixed columns) fall back to the scalar rule per
element.  Batched lanes share every structural counter (cycles,
messages, channel writes) and differ only in bits, which is tracked
per lane.

:class:`VectorRun` accumulates one phase's worth of accounting across
any number of ``execute`` calls and finishes into the same
:class:`~repro.mcb.trace.PhaseStats` a generator engine would commit,
plus the obs-pipeline event stream when a dispatcher is attached.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..message import pack_elem, scalar_bits
from ..trace import PhaseStats, RunStats
from .plan import CompiledPhase

try:  # events only needed when a dispatcher is attached
    from ...obs.events import MessageBroadcast, PhaseEnded, PhaseStarted
except ImportError:  # pragma: no cover - obs is part of the package
    MessageBroadcast = PhaseEnded = PhaseStarted = None

#: Message kind tag cost (mirrors ``Message.bit_size``'s constant).
_KIND_BITS = 8

#: Integers at or beyond this magnitude lose exactness in int64 ops;
#: :func:`detect_dtype` routes them to the object path instead.
_INT_LIMIT = 1 << 62


def _object_bits(value: Any) -> int:
    """Exact ``Message("...", *pack_elem(value)).bit_size()``."""
    return _KIND_BITS + sum(scalar_bits(f) for f in pack_elem(value))


#: Powers of two 2^1..2^62 — the break points of ``max(bit_length, 1)``.
#: ``searchsorted`` against this table is one C pass over the payload
#: array, ~14x faster than the shift-and-mask reduction it replaced.
_POW2 = np.int64(1) << np.arange(1, 63, dtype=np.int64)


def _int_bit_lengths(a: np.ndarray) -> np.ndarray:
    """``max(bit_length(abs(v)), 1)`` of signed int64-range integers.

    One fused ``np.absolute(a, dtype=float64)`` pass feeds ``frexp``,
    whose binary exponent is the bit length directly (the exponent of
    ``v`` is ``floor(log2 v) + 1``) — one vector op instead of a binary
    search per element.  Every magnitude below ``2^53`` converts
    exactly; above that the conversion can only round *up* across a
    power of two (``2^k - 1 -> 2.0^k``), so any element whose computed
    length exceeds 53 is redone with an exact ``searchsorted`` against
    the power table.  Zero maps to exponent 0 and is clamped to the
    message rule's one-bit floor.  frexp's int32 exponent is returned
    as-is: lengths fit easily, and the accounting paths re-accumulate
    through int64 sums anyway.
    """
    _, bl = np.frexp(np.absolute(a, dtype=np.float64))
    big = bl > 53
    if big.any():
        huge = np.abs(a[big].astype(np.int64, copy=False))
        bl[big] = np.searchsorted(_POW2, huge, side="right") + 1
    np.maximum(bl, 1, out=bl)
    return bl


def message_bits(values: np.ndarray) -> np.ndarray:
    """Per-element message bit sizes (kind tag included), any shape.

    Matches ``Message(kind, *pack_elem(v)).bit_size()`` exactly for
    every supported payload: the bit size is a function of the value
    alone, never of which processor sent it.
    """
    a = np.asarray(values)
    if a.dtype == object:
        flat = a.ravel()
        out = np.fromiter(
            (_object_bits(v) for v in flat), dtype=np.int64, count=flat.size
        )
        return out.reshape(a.shape)
    if a.dtype.kind == "f":
        return np.full(a.shape, _KIND_BITS + 64, dtype=np.int64)
    if a.dtype.kind == "b":
        return np.full(a.shape, _KIND_BITS + 1, dtype=np.int64)
    if a.dtype.kind in "iu":
        bl = _int_bit_lengths(a)
        bl += _KIND_BITS + 1  # +1 sign bit, in place (bl is ours)
        return bl
    raise TypeError(f"unsupported element dtype {a.dtype!r}")


def static_message_bits(dtype: np.dtype) -> Optional[int]:
    """Per-message bit cost when it is value-independent, else ``None``.

    Floats always cost 64 payload bits and bools 1 (plus the kind tag),
    so phases over those states can charge ``messages * constant`` —
    a compile-time product — instead of materializing a per-message bits
    array; int and object payloads are charged their exact per-value
    lengths on the dynamic path.
    """
    if dtype.kind == "f":
        return _KIND_BITS + 64
    if dtype.kind == "b":
        return _KIND_BITS + 1
    return None


def detect_dtype(values: Iterable[Any]) -> np.dtype:
    """The narrowest dtype that preserves generator-engine semantics.

    Pure ``int`` data (within int64 exactness) -> int64, pure ``float``
    -> float64, anything else — tuples, strings, bools, mixed int/float
    columns, huge integers — -> object, where comparisons and bit
    accounting run the scalar Python rules element by element.  Mixing
    ints and floats must not promote to float64: the generator engines
    charge an int payload its exact bit length, not 64 bits.
    """
    kind = ""
    for v in values:
        t = type(v)
        if t is int:
            if not -_INT_LIMIT < v < _INT_LIMIT:
                return np.dtype(object)
            this = "i"
        elif t is float:
            this = "f"
        else:
            return np.dtype(object)
        if not kind:
            kind = this
        elif kind != this:
            return np.dtype(object)
    return np.dtype({"i": np.int64, "f": np.float64, "": np.float64}[kind])


def detect_dtype_rows(rows: Iterable[Sequence[Any]]) -> np.dtype:
    """:func:`detect_dtype` over row sequences, without per-element cost.

    Type scanning runs as ``set.update(map(type, row))`` (one C pass per
    row) and the int-exactness check as per-row ``min``/``max`` — same
    answer as the element-by-element rule on every input, ~20x faster on
    the wide batched states where dtype detection used to be a
    measurable slice of the pass.
    """
    types: set = set()
    lo = hi = 0
    for row in rows:
        types.update(map(type, row))
        if types == {int} and row:
            lo = min(lo, min(row))
            hi = max(hi, max(row))
    if not types:
        return np.dtype(np.float64)
    if types == {int}:
        if -_INT_LIMIT < lo and hi < _INT_LIMIT:
            return np.dtype(np.int64)
        return np.dtype(object)
    if types == {float}:
        return np.dtype(np.float64)
    return np.dtype(object)


def build_state(
    rows: Sequence[Sequence[Any]], dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Stack per-processor rows into the ``(p, slots)`` state matrix."""
    if dtype is None:
        dtype = detect_dtype_rows(rows)
    if dtype == np.dtype(object):
        out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                out[i, j] = v
        return out
    return np.array(rows, dtype=dtype)


def build_batched_state(
    lanes: Sequence[Sequence[Sequence[Any]]], dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Stack ``B`` per-lane row sets into a ``(p, slots, B)`` state.

    The dtype is detected over *all* lanes so every lane of one batch
    shares comparison and bit-accounting semantics.
    """
    if not lanes:
        raise ConfigurationError("a batch needs at least one lane")
    if dtype is None:
        rows_flat = chain.from_iterable(lanes)
        types = set(map(type, chain.from_iterable(rows_flat)))
        if types == {int}:
            # Parse first, bounds-check in C afterwards — cheaper than
            # the per-row Python min/max of detect_dtype_rows on wide
            # batches, same answer: int64 only when every value sits
            # strictly inside ±2^62, object otherwise.
            try:
                arr = np.array(lanes, dtype=np.int64)
            except OverflowError:
                arr = None  # beyond int64: exact math needs objects
            if arr is not None:
                if arr.ndim != 3:
                    raise ConfigurationError(
                        "all batch lanes must share one (p, slots) shape"
                    )
                if arr.size == 0 or (
                    -_INT_LIMIT < int(arr.min())
                    and int(arr.max()) < _INT_LIMIT
                ):
                    return np.ascontiguousarray(arr.transpose(1, 2, 0))
            dtype = np.dtype(object)
        elif types == {float} or not types:
            dtype = np.dtype(np.float64)
        else:
            dtype = np.dtype(object)
    if dtype != np.dtype(object):
        # One C-level parse of the whole nested batch into (B, p, slots),
        # then a single transpose+copy into the contiguous (p, slots, B)
        # layout — much cheaper than a strided per-lane assignment loop.
        arr = np.array(lanes, dtype=dtype)
        if arr.ndim != 3:
            raise ConfigurationError(
                "all batch lanes must share one (p, slots) shape"
            )
        return np.ascontiguousarray(arr.transpose(1, 2, 0))
    p = len(lanes[0])
    slots = len(lanes[0][0]) if p else 0
    out = np.empty((p, slots, len(lanes)), dtype=dtype)
    for b, rows in enumerate(lanes):
        out[:, :, b] = build_state(rows, dtype)
    return out


class VectorRun:
    """Accounting context for one phase executed on the vector engine.

    Mirrors what one :meth:`MCBNetwork.run` invocation tracks: absolute
    cycle position, message/bit/channel-write totals, and — via
    :meth:`finish` — the committed :class:`PhaseStats`.  A run may span
    several ``execute`` calls (e.g. the four columnsort transformation
    phases form one ``"columnsort"`` phase, exactly like the generator
    program that yields through all four schedules in one ``run()``).

    Parameters
    ----------
    p, k:
        Network shape the phase runs on (stamped into stats/events).
    phase:
        Phase name for stats and obs events.
    batch:
        ``None`` for a single instance (state is ``(p, slots)``), or the
        batch width ``B`` (state is ``(p, slots, B)``).  Batched runs
        cannot be observed — per-lane event streams would interleave —
        so ``batch`` and ``dispatch`` are mutually exclusive.
    stats:
        Optional :class:`RunStats` to commit the finished phase into,
        like an engine commits into ``net.stats``.
    dispatch:
        Optional obs dispatcher (``net._dispatch``) to emit the engine
        event stream into: ``PhaseStarted`` at construction, one
        ``MessageBroadcast`` per write in ``(cycle, writer)`` order,
        ``PhaseEnded`` on finish.
    """

    def __init__(
        self,
        p: int,
        k: int,
        *,
        phase: str = "vector",
        batch: Optional[int] = None,
        stats: Optional[RunStats] = None,
        dispatch=None,
    ):
        if batch is not None:
            if batch < 1:
                raise ConfigurationError(f"batch width must be >= 1, got {batch}")
            if dispatch is not None:
                raise ConfigurationError(
                    "batched vector runs cannot emit per-message events; "
                    "attach observers only to single-instance (batch=None) runs"
                )
        self.p = p
        self.k = k
        self.phase = phase
        self.batch = batch
        self.cycle = 0
        self._lanes = 1 if batch is None else batch
        # Every lane runs the same schedule, so messages and channel
        # writes are shared; only bits depend on the payload values.
        self._messages = 0
        self._bits = np.zeros(self._lanes, dtype=np.int64)
        self._cw = np.zeros(self.k + 1, dtype=np.int64)
        self._stats = stats
        self._dispatch = dispatch
        if dispatch is not None:
            dispatch.dispatch(PhaseStarted(phase=phase, p=p, k=k))

    # ------------------------------------------------------------------
    def execute(
        self, compiled: CompiledPhase, state: np.ndarray
    ) -> np.ndarray:
        """Run one compiled phase; returns the new state matrix.

        ``state`` is the phase's ``(p, slots)`` matrix (plus the batch
        axis) and is left as it is: the output is the phase's gather,
        ``concat(vals, flat)[out_idx]`` with ``vals = flat[w_flat]``.
        """
        expect_ndim = 2 if self.batch is None else 3
        if state.ndim != expect_ndim:
            raise ConfigurationError(
                f"state has {state.ndim} axes; expected {expect_ndim} "
                f"(batch={self.batch})"
            )
        p, slots = compiled.p, compiled.slots
        if compiled.k != self.k or state.shape[:2] != (p, slots):
            raise ConfigurationError(
                f"compiled phase shape (p={p}, k={compiled.k}, "
                f"slots={slots}) does not fit the run (state "
                f"{state.shape[:2]}, k={self.k})"
            )
        flat = state.reshape(p * slots, *state.shape[2:])
        vals = flat[compiled.w_flat]
        out = np.concatenate((vals, flat))[compiled.out_idx]
        n_writes = len(vals)
        if n_writes:
            # Phases on value-independent dtypes need no runtime
            # accounting at all: messages and channel writes are plan
            # constants, and the bit total is messages * static cost.
            # The dynamic path stays for int/object payloads (exact
            # per-value bit lengths) and for observed runs (events carry
            # per-message bits).
            static = (
                None if self._dispatch is not None
                else static_message_bits(vals.dtype)
            )
            if static is not None:
                self._bits += n_writes * static
            else:
                bits = message_bits(vals)
                if self.batch is None:
                    self._bits[0] += int(bits.sum())
                else:
                    self._bits += bits.sum(axis=0)
            self._messages += n_writes
            self._cw += compiled.channel_write_counts()
            if self._dispatch is not None:
                self._emit_messages(compiled, vals, bits)
        self.cycle += compiled.cycles
        return out

    def execute_fused(self, fused, state: np.ndarray) -> np.ndarray:
        """Run a :class:`~repro.mcb.vector.optimize.FusedPhase`.

        The fused phase is the whole composed permutation as one gather:
        ``out[proc, slot] = state[g_proc[proc, slot], g_slot[proc, slot]]``
        — every intermediate pass (and every dead move) is gone.
        Accounting is identical to running the constituent phases in
        sequence: messages/cycles/channel-writes are fused constants, and
        bits are charged per original broadcast — statically for
        value-independent dtypes, else by gathering the original write
        values (``b_proc``/``b_slot`` index the *pre-fusion* state, which
        is exactly the value each constituent write would have sent,
        because fused phases contain no intervening reads of written
        slots).

        Fused phases cannot be observed (the per-message event stream of
        the constituents is not reconstructed) — observed phases stay on
        :meth:`execute`.
        """
        if self._dispatch is not None:
            raise ConfigurationError(
                "fused phases cannot emit per-message events; run the "
                "constituent phases individually on observed runs"
            )
        expect_ndim = 2 if self.batch is None else 3
        if state.ndim != expect_ndim:
            raise ConfigurationError(
                f"state has {state.ndim} axes; expected {expect_ndim} "
                f"(batch={self.batch})"
            )
        if fused.k != self.k or state.shape[:2] != (fused.p, fused.slots):
            raise ConfigurationError(
                f"fused phase shape (p={fused.p}, k={fused.k}, "
                f"slots={fused.slots}) does not fit the run (state "
                f"{state.shape[:2]}, k={self.k})"
            )
        out = state[fused.g_proc, fused.g_slot]
        static = static_message_bits(state.dtype)
        if static is not None:
            self._bits += fused.messages * static
        else:
            bits = message_bits(state[fused.b_proc, fused.b_slot])
            if self.batch is None:
                self._bits[0] += int(bits.sum())
            else:
                self._bits += bits.sum(axis=0)
        self._messages += fused.messages
        self._cw += fused.channel_write_counts()
        self.cycle += fused.cycles
        return out

    # ------------------------------------------------------------------
    def finish(self) -> list[PhaseStats]:
        """Commit the phase; returns one :class:`PhaseStats` per lane.

        Lane stats are structurally identical (cycles, messages, channel
        writes) and differ only in ``bits``.  Lane 0 is committed to
        ``stats`` when one was given (single-instance runs pass
        ``net.stats``; batched callers distribute the list themselves).
        """
        channel_writes = {
            ch: n for ch, n in enumerate(self._cw.tolist()) if ch and n
        }
        phases = [
            PhaseStats(
                name=self.phase,
                cycles=self.cycle,
                messages=self._messages,
                bits=int(self._bits[lane]),
                channel_writes=dict(channel_writes),
                k=self.k,
            )
            for lane in range(self._lanes)
        ]
        if self._stats is not None:
            self._stats.add(phases[0])
        if self._dispatch is not None:
            ph = phases[0]
            self._dispatch.dispatch(
                PhaseEnded(
                    phase=self.phase,
                    p=self.p,
                    k=self.k,
                    cycles=ph.cycles,
                    messages=ph.messages,
                    bits=ph.bits,
                    channel_writes=dict(ph.channel_writes),
                    max_aux_peak=0,
                    fast_forward_cycles=0,
                    collisions=0,
                    utilization=ph.channel_utilization(),
                )
            )
        return phases

    # ------------------------------------------------------------------
    def _emit_messages(
        self,
        compiled: CompiledPhase,
        vals: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        dispatch = self._dispatch
        readers = compiled.readers_by_write()
        base = self.cycle
        vlist = vals.tolist()
        w_cycle = compiled.w_cycle.tolist()
        w_proc = compiled.w_proc.tolist()
        w_chan = compiled.w_chan.tolist()
        for i, value in enumerate(vlist):
            dispatch.dispatch(
                MessageBroadcast(
                    phase=self.phase,
                    cycle=base + w_cycle[i],
                    channel=w_chan[i],
                    writer=w_proc[i] + 1,
                    readers=readers[i],
                    msg_kind=compiled.kind,
                    fields=pack_elem(value),
                    bits=int(bits[i]),
                )
            )


# ----------------------------------------------------------------------
# Predicated bulk operations (the data-dependent glue that used to force
# a fall-back to generator stepping: purge/compact rounds, lane-local
# reductions over live candidates).

def compact_rows(
    values: np.ndarray,
    keep: np.ndarray,
    fill: Any = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable per-row compaction: kept elements left-packed, order intact.

    ``values`` and ``keep`` are ``(p, cap)``; the result row ``i`` holds
    ``values[i, keep[i]]`` in their original relative order in slots
    ``0..counts[i]-1``, with every later slot set to ``fill``.  This is
    the vector form of the filtering loop's purge step (``[e for e in
    row if pred(e)]``) — one boolean-mask scatter instead of ``p``
    Python list comprehensions.

    Returns ``(compacted, counts)`` with ``counts`` of shape ``(p,)``.
    """
    values = np.asarray(values)
    keep = np.asarray(keep, dtype=bool)
    if values.shape != keep.shape or values.ndim != 2:
        raise ConfigurationError(
            f"compact_rows needs matching (p, cap) arrays, got "
            f"values{values.shape} keep{keep.shape}"
        )
    # Boolean indexing reads and writes in row-major order, so the kept
    # elements, read row by row, fill each row's first counts[i] slots
    # in their original order.
    counts = keep.sum(axis=1)
    out = np.full_like(values, fill)
    out[np.arange(values.shape[1]) < counts[:, None]] = values[keep]
    return out, counts


def masked_reduce(
    values: np.ndarray,
    mask: np.ndarray,
    ufunc: np.ufunc = np.add,
    identity: Any = None,
) -> np.ndarray:
    """Lane-local reduction over the masked-in elements of each row.

    ``values``/``mask`` are ``(p, cap)``; row ``i`` reduces
    ``values[i, mask[i]]`` under ``ufunc`` (default: sum), with masked
    slots contributing the ufunc identity.  Rows whose mask is empty
    return the identity — pass ``identity`` explicitly for ufuncs
    without one (e.g. ``np.maximum`` on floats uses ``-inf``).
    """
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if values.shape != mask.shape or values.ndim != 2:
        raise ConfigurationError(
            f"masked_reduce needs matching (p, cap) arrays, got "
            f"values{values.shape} mask{mask.shape}"
        )
    if identity is None:
        identity = ufunc.identity
    if identity is None:
        raise ConfigurationError(
            f"{ufunc.__name__} has no identity; pass identity= explicitly"
        )
    return ufunc.reduce(np.where(mask, values, identity), axis=1)
