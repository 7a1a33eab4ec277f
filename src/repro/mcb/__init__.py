"""The Multi-Channel Broadcast (MCB) network simulator — the paper's substrate.

Public surface:

* :class:`MCBNetwork` — the synchronous MCB(p, k) engine.
* :class:`CycleOp` / :class:`Sleep` / :class:`Listen` / :class:`Emit` /
  :class:`ProcContext` — the program protocol.
* :class:`Message` / :data:`EMPTY` — channel payloads.
* :func:`run_simulated` — Section 2's larger-network-on-smaller simulation.
* :class:`RunStats` / :class:`PhaseStats` — cost accounting.
"""

from .errors import (
    CollisionError,
    ConfigurationError,
    MCBError,
    MessageSizeError,
    ProtocolError,
)
from .message import EMPTY, Message, log2ceil, scalar_bits
from .network import MCBNetwork
from .program import (
    IDLE,
    CycleOp,
    Emit,
    Listen,
    ProcContext,
    ProgramFn,
    Sleep,
    emit_from,
    read,
    write,
    write_read,
)
from .debug import busiest_processors, channel_report, diff_runs, render_gantt
from .extensions import (
    COLLISION,
    ExtOp,
    ExtendedNetwork,
    find_max_bitwise,
    find_max_exclusive,
    gossip,
)
from .routing import alltoall, alltoall_schedule, exchange_counts, greedy_edge_coloring
from .simulate import run_simulated, simulation_overhead
from .trace import PhaseStats, RunStats, TraceEvent, format_events

__all__ = [
    "COLLISION",
    "CollisionError",
    "ConfigurationError",
    "CycleOp",
    "EMPTY",
    "Emit",
    "IDLE",
    "Listen",
    "MCBError",
    "MCBNetwork",
    "Message",
    "MessageSizeError",
    "ExtOp",
    "ExtendedNetwork",
    "PhaseStats",
    "ProcContext",
    "ProgramFn",
    "ProtocolError",
    "RunStats",
    "Sleep",
    "TraceEvent",
    "alltoall",
    "alltoall_schedule",
    "busiest_processors",
    "channel_report",
    "diff_runs",
    "emit_from",
    "exchange_counts",
    "find_max_bitwise",
    "find_max_exclusive",
    "format_events",
    "gossip",
    "greedy_edge_coloring",
    "log2ceil",
    "render_gantt",
    "read",
    "run_simulated",
    "scalar_bits",
    "simulation_overhead",
    "write",
    "write_read",
]
