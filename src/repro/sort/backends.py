"""Backend registry and cost-model auto-tuner for ``mcb_sort``.

Every backend is a comparator-network family (:mod:`repro.mcb.cnet`)
sorting an even ``p = k`` distribution of ``m`` elements per processor:

``columnsort``
    The paper's §5.2 pipeline — four transformation broadcasts (``4m``
    comm cycles, at most ``4mk`` messages; elements whose destination is
    their own processor travel free), valid only under the dimension rule
    ``m >= k(k-1)`` and ``k | m``.
``batcher``
    Batcher odd-even merge-sort lifted to merge-split columns — any
    shape, ``m * rounds(k)`` comm cycles where ``rounds(k)`` grows as
    ``O(log^2 k)`` but is tiny at service scale (1 round at ``k = 2``,
    3 at ``k = 4``, 6 at ``k = 8``).

:func:`choose_backend` is the auto-tuner behind
``mcb_sort(..., backend="auto")``: it scores every *available* backend
from the static stats of its compiled plans (cycle totals, message
counts — exactly what ``RunStats`` will report, since the schedules are
oblivious) and returns the cheapest.  The columnsort constant factor
loses to Batcher below the crossover ``4m`` vs ``m * rounds(k)`` —
i.e. whenever ``rounds(k) < 4`` (``k <= 4``) — and columnsort's
dimension rule excludes it entirely from the small-``m`` shapes the
service layer serves most, where Batcher extends the fast even-``p = k``
path that previously fell back to the uneven strategy.

:func:`predicted_cost` is the closed form mirrored into
:mod:`repro.bounds.overlay` next to the paper's §7.1 predictions;
:func:`crossover_table` renders the ``repro backends`` CLI table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from ..columnsort.matrix import dims_valid
from ..mcb.cnet import CompareRound, ComparatorNetwork, build_network
from ..mcb.errors import ConfigurationError

#: Preference-ordered backend names (ties in cost break left-to-right,
#: so the paper's pipeline wins any exact draw).
BACKENDS = ("columnsort", "batcher")


def network_for(backend: str, k: int) -> ComparatorNetwork:
    """The backend's comparator network at width ``k``."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known: {sorted(BACKENDS)}"
        )
    return build_network(backend, k)


def backend_unavailable_reason(
    backend: str, p: int, k: int, m: int
) -> Optional[str]:
    """Why the backend cannot sort this shape, or ``None`` if it can."""
    if backend not in BACKENDS:
        return f"unknown backend {backend!r}; known: {sorted(BACKENDS)}"
    if p != k:
        return f"comparator networks need p == k, got p={p}, k={k}"
    if m < 1:
        return f"need m >= 1 elements per processor, got m={m}"
    if backend == "columnsort" and not dims_valid(m, k):
        return (
            f"columnsort needs m >= k(k-1) and k | m, got m={m}, k={k}"
        )
    return None


@lru_cache(maxsize=4096)
def _permute_messages(phase: int, m: int, k: int) -> int:
    """Broadcast count of one columnsort permute phase.

    The columnar lowerings elide elements whose destination is their own
    processor (a local move, no broadcast), so the count is the
    lowering's static write total — still a pure function of
    ``(phase, m, k)``, cached, no compile/validation pass.
    """
    from ..mcb.vector.lower import lower_phase_columnar

    return len(lower_phase_columnar(phase, m, k).writes)


def predicted_cost(backend: str, k: int, m: int) -> dict:
    """Closed-form cost of one sort: comm cycles and message count.

    Derived from the round structure — each compare round costs ``m``
    cycles and ``2m`` messages per pair; each permute round costs ``m``
    cycles and its lowering's static broadcast count (at most ``mk``;
    elements that stay home travel for free).  These equal the compiled
    plans' static totals exactly (:func:`static_plan_stats` asserts as
    much in the tests) because the schedules are oblivious.
    """
    network = network_for(backend, k)
    cycles = 0
    messages = 0
    for rnd in network.rounds:
        if isinstance(rnd, CompareRound):
            cycles += m
            messages += 2 * m * len(rnd.pairs)
        elif not hasattr(rnd, "skip_first"):  # PermuteRound
            cycles += m
            messages += _permute_messages(rnd.phase, m, k)
    return {
        "backend": backend,
        "k": k,
        "m": m,
        "comm_rounds": network.comm_rounds,
        "cycles": cycles,
        "messages": messages,
    }


def static_plan_stats(
    backend: str, k: int, m: int, dtype: str = "f8"
) -> Optional[dict]:
    """Static totals of the backend's compiled plans, or ``None``.

    Compiles (through the shared plan cache) and sums each phase's
    compile-time constants: total cycles, total messages, per-channel
    write counts, and — for value-independent dtypes — the exact bit
    total via :func:`~repro.mcb.vector.static_message_bits`.
    """
    if backend_unavailable_reason(backend, k, k, m) is not None:
        return None
    from ..mcb.vector import static_message_bits
    from .cnet_sort import compiled_cnet_phases

    compiled = compiled_cnet_phases(backend, m, k)
    cw = np.zeros(k + 1, dtype=np.int64)
    cycles = 0
    messages = 0
    for ph in compiled:
        cycles += ph.cycles
        messages += ph.messages
        cw += ph.channel_write_counts()
    per_msg = static_message_bits(np.dtype(dtype))
    return {
        "backend": backend,
        "cycles": cycles,
        "messages": messages,
        "channel_write_counts": cw[1:].tolist(),
        "static_message_bits": (
            None if per_msg is None else messages * per_msg
        ),
    }


@lru_cache(maxsize=4096)
def _score(k: int, m: int) -> str:
    best = None
    for rank, backend in enumerate(BACKENDS):
        if backend_unavailable_reason(backend, k, k, m) is not None:
            continue
        stats = static_plan_stats(backend, k, m)
        key = (stats["cycles"], stats["messages"], rank)
        if best is None or key < best[0]:
            best = (key, backend)
    # batcher is available at every even p == k shape, so best is set.
    return best[1]


def choose_backend(p: int, k: int, n: int) -> str:
    """The cheapest available backend for this shape (the auto-tuner).

    Scores candidates by the static totals of their compiled plans —
    fewest comm cycles, then fewest messages, then registry order.
    Shapes no comparator network covers (``p != k``, uneven ``n``) fall
    back to ``"columnsort"`` — the dispatcher's other strategies take
    over.
    """
    if p != k or n <= 0 or n % p != 0:
        return "columnsort"
    return _score(k, n // p)


def crossover_table(
    ks: tuple[int, ...] = (2, 3, 4, 8),
    ms: tuple[int, ...] = (2, 8, 32, 128),
) -> list[dict]:
    """Grid of per-backend costs and auto choices (``repro backends``)."""
    rows = []
    for k in ks:
        for m in ms:
            backends = {}
            for backend in BACKENDS:
                reason = backend_unavailable_reason(backend, k, k, m)
                entry = {"available": reason is None, "reason": reason}
                if reason is None:
                    entry.update(
                        {
                            key: val
                            for key, val in predicted_cost(
                                backend, k, m
                            ).items()
                            if key in ("comm_rounds", "cycles", "messages")
                        }
                    )
                backends[backend] = entry
            rows.append(
                {
                    "k": k,
                    "m": m,
                    "n": k * m,
                    "choice": choose_backend(k, k, k * m),
                    "backends": backends,
                }
            )
    return rows
