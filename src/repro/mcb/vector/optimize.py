"""Plan-optimizer stage: fuse compiled phases into one gather.

Every :class:`~repro.mcb.vector.plan.CompiledPhase` is a permutation
with fanout over the state matrix under update semantics: each output
slot holds either its prior contents or one pre-phase value.  A sequence
of such phases therefore composes into a single *origin map* — for every
final ``(proc, slot)``, the initial ``(proc, slot)`` its value came from
— and the executor can apply the whole pipeline as one NumPy gather
instead of one pass per phase.  The map is each phase's own gather run
on a state of initial positions.  Moves whose destinations
are overwritten later in the sequence (dead moves) vanish in the
composition for free.

Accounting stays bit-identical to the unfused sequence: cycle, message
and per-channel write totals are sums of the per-phase compile-time
constants, and the per-message bit charges reference each constituent
write's *origin* in the initial state (``b_proc``/``b_slot``) — the
exact value that write would have broadcast — so int payloads keep
their exact per-value bit lengths.  Masked or observed phases cannot be
fused (the per-write predicate and the per-message event stream both
name the constituent phases); they stay on
:meth:`~repro.mcb.vector.executor.VectorRun.execute`.

Each fusion increments the ``vector_plan_phases_fused`` counter of the
global metrics registry by the number of constituent phases.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .plan import CompiledPhase


class FusedPhase:
    """A composed pipeline of compiled phases as one origin-map gather.

    ``out[proc, slot] = initial[g_proc[proc, slot], g_slot[proc, slot]]``
    computes the entire sequence; ``b_proc``/``b_slot`` (one entry per
    constituent write event, phase order) locate each broadcast value in
    the initial state for dynamic bit accounting.  ``cycles``,
    ``messages`` and :meth:`channel_write_counts` are the sequence
    totals, precomputed at fusion time.
    """

    __slots__ = (
        "p", "k", "slots", "cycles", "messages", "phases_fused", "kind",
        "g_proc", "g_slot", "b_proc", "b_slot", "_cw_counts",
    )

    def __init__(
        self,
        *,
        p: int,
        k: int,
        slots: int,
        cycles: int,
        messages: int,
        phases_fused: int,
        kind: str,
        g_proc: np.ndarray,
        g_slot: np.ndarray,
        b_proc: np.ndarray,
        b_slot: np.ndarray,
        cw_counts: np.ndarray,
    ):
        self.p = p
        self.k = k
        self.slots = slots
        self.cycles = cycles
        self.messages = messages
        self.phases_fused = phases_fused
        self.kind = kind
        self.g_proc = g_proc
        self.g_slot = g_slot
        self.b_proc = b_proc
        self.b_slot = b_slot
        self._cw_counts = cw_counts

    def channel_write_counts(self) -> np.ndarray:
        """Writes per channel, dense ``(k + 1,)`` array (index 0 unused)."""
        return self._cw_counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedPhase(kind={self.kind!r}, p={self.p}, k={self.k}, "
            f"slots={self.slots}, phases={self.phases_fused}, "
            f"cycles={self.cycles}, messages={self.messages})"
        )


def _count_fused(n: int) -> None:
    from ...obs.metrics import global_registry

    global_registry().counter(
        "vector_plan_phases_fused",
        "compiled phases composed into fused gathers",
    ).inc(n)


def fuse_phases(phases: Sequence[CompiledPhase]) -> FusedPhase:
    """Compose consecutive compiled phases into one :class:`FusedPhase`.

    All phases must share one ``(p, k, slots)`` shape (they run on the
    same state matrix).  The composition runs each phase's own gather
    (``concat(vals, flat)[out_idx]``) on a state of initial positions,
    so every slot ends holding its origin; a slot overwritten twice
    keeps only its last origin — which is exactly the dead-move
    elimination.
    """
    if not phases:
        raise ConfigurationError("fuse_phases needs at least one phase")
    first = phases[0]
    p, k, slots = first.p, first.k, first.slots
    # Each phase's gather run on an index state: ``origin[i]`` is the
    # initial flat position whose value sits at flat position ``i``.
    origin = np.arange(p * slots, dtype=np.int64)
    sent: list[np.ndarray] = []
    cw = np.zeros(k + 1, dtype=np.int64)
    cycles = messages = 0
    for ph in phases:
        if (ph.p, ph.k, ph.slots) != (p, k, slots):
            raise ConfigurationError(
                f"cannot fuse phase of shape (p={ph.p}, k={ph.k}, "
                f"slots={ph.slots}) with (p={p}, k={k}, slots={slots})"
            )
        vals = origin[ph.w_flat]
        sent.append(vals)
        origin = np.concatenate((vals, origin))[ph.out_idx].ravel()
        cycles += ph.cycles
        messages += ph.messages
        cw += ph.channel_write_counts()
    _count_fused(len(phases))
    g_proc, g_slot = np.divmod(origin.reshape(p, slots), slots)
    b_proc, b_slot = np.divmod(np.concatenate(sent), slots)
    return FusedPhase(
        p=p, k=k, slots=slots, cycles=cycles, messages=messages,
        phases_fused=len(phases), kind=first.kind,
        g_proc=g_proc, g_slot=g_slot, b_proc=b_proc, b_slot=b_slot,
        cw_counts=cw,
    )
