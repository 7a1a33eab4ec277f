"""Observability helpers for MCB runs: timelines, channel reports, diffs.

Algorithm debugging on a synchronous broadcast network is mostly about
*when* things happened on *which* channel.  These helpers turn the
engine's accounting (and the event stream an
:class:`~repro.obs.hooks.EventLog` records) into terminal-friendly views:

* :func:`render_gantt` — an ASCII channel-activity timeline;
* :func:`channel_report` — per-channel write counts and utilization;
* :func:`diff_runs` — phase-by-phase comparison of two runs (used by the
  ablation benchmarks to show where two algorithm variants diverge).
"""

from __future__ import annotations

from typing import Iterable

from ..obs.events import MessageBroadcast, ObsEvent
from .trace import PhaseStats, RunStats


def _broadcasts(events: Iterable[ObsEvent]) -> list[MessageBroadcast]:
    return [ev for ev in events if isinstance(ev, MessageBroadcast)]


def render_gantt(
    events: Iterable[ObsEvent],
    k: int,
    *,
    width: int = 72,
    char_busy: str = "#",
    char_idle: str = ".",
) -> str:
    """ASCII timeline: one row per channel, time left to right.

    ``events`` is an event stream, such as an
    :class:`~repro.obs.hooks.EventLog`'s ``events``; only its
    :class:`~repro.obs.events.MessageBroadcast` events are drawn.  Cycles
    are bucketed so the timeline fits in ``width`` columns; a bucket is
    busy if any of its cycles carried a message on that channel.
    Returns a drawing like::

        C1 |####..##########....####|
        C2 |....####........####....|
    """
    events = _broadcasts(events)
    if not events:
        return "(no events recorded — attach an EventLog to the network)"
    last = max(ev.cycle for ev in events) + 1
    width = min(width, last)
    bucket = max(1, -(-last // width))  # ceil division
    cols = -(-last // bucket)
    grid = [[char_idle] * cols for _ in range(k)]
    for ev in events:
        grid[ev.channel - 1][ev.cycle // bucket] = char_busy
    lines = [
        f"C{ch + 1:<2}|{''.join(grid[ch])}|" for ch in range(k)
    ]
    lines.append(f"    0{' ' * (cols - len(str(last)) - 1)}{last} cycles"
                 f" ({bucket} per column)")
    return "\n".join(lines)


def channel_report(stats: RunStats | PhaseStats, k: int) -> str:
    """Per-channel write counts with a load-balance summary."""
    if isinstance(stats, RunStats):
        merged: dict[int, int] = {}
        cycles = stats.cycles
        for phase in stats.phases:
            for ch, w in phase.channel_writes.items():
                merged[ch] = merged.get(ch, 0) + w
    else:
        merged = dict(stats.channel_writes)
        cycles = stats.cycles
    total = sum(merged.values())
    lines = [f"{'channel':<9}{'writes':>8}{'share':>8}{'busy':>8}"]
    for ch in range(1, k + 1):
        w = merged.get(ch, 0)
        share = w / total if total else 0.0
        busy = w / cycles if cycles else 0.0
        lines.append(f"C{ch:<8}{w:>8}{share:>8.1%}{busy:>8.1%}")
    if merged and total:
        top = max(merged.values())
        bottom = min(merged.get(ch, 0) for ch in range(1, k + 1))
        lines.append(
            f"balance: max/min = "
            f"{'inf' if bottom == 0 else f'{top / bottom:.2f}'}"
        )
    return "\n".join(lines)


def diff_runs(a: RunStats, b: RunStats, *, label_a: str = "A", label_b: str = "B") -> str:
    """Phase-by-phase cycle/message comparison of two runs."""
    names = list(dict.fromkeys(a.phase_names() + b.phase_names()))
    lines = [
        f"{'phase':<28}{label_a + ' cyc':>10}{label_b + ' cyc':>10}"
        f"{label_a + ' msg':>10}{label_b + ' msg':>10}"
    ]
    for name in names:
        pa, pb = a.phase(name), b.phase(name)
        lines.append(
            f"{name:<28}{pa.cycles:>10}{pb.cycles:>10}"
            f"{pa.messages:>10}{pb.messages:>10}"
        )
    lines.append(
        f"{'TOTAL':<28}{a.cycles:>10}{b.cycles:>10}"
        f"{a.messages:>10}{b.messages:>10}"
    )
    return "\n".join(lines)


def busiest_processors(
    events: Iterable[ObsEvent], top: int = 5
) -> list[tuple[int, int]]:
    """(pid, messages written) for the most talkative processors, from
    the :class:`~repro.obs.events.MessageBroadcast` events of a stream."""
    counts: dict[int, int] = {}
    for ev in _broadcasts(events):
        counts[ev.writer] = counts.get(ev.writer, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[1])[:top]
