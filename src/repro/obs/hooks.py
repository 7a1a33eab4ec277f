"""The observer hooks API: how engines talk to the obs subsystem.

An :class:`Observer` receives typed events at four (plus one) points of
an engine's lifecycle::

    on_phase_start(PhaseStarted)     one per run() stage
    on_message(MessageBroadcast)     one per delivered broadcast
    on_collision(CollisionDetected)  concurrent writers on one channel
    on_fast_forward(FastForward)     all-asleep cycle skips
    on_processor_slept(ProcessorSlept) multi-cycle Sleep started
    on_listen_parked(ListenParked)   a Listen window opened
    on_listen_woken(ListenWoken)     a Listen window completed
    on_phase_end(PhaseEnded)         one per run() stage

Design constraints, in order:

1. **Zero overhead when nobody listens.**  Engines keep a single
   ``_dispatch`` slot that is ``None`` until the first observer is
   attached.  :class:`~repro.mcb.network.MCBNetwork` tests it once per
   stage: an unobserved stage runs the fast loop, which has no observer
   branch at all, and an observed one runs on the reference
   interpreter's loop, the only generator loop that builds events.
2. **Observers cannot corrupt a run.**  The dispatcher isolates every
   callback: an observer that raises is counted (``Dispatcher.errors``)
   and skipped for the rest of the phase, and the network's own cycle
   accounting proceeds untouched.
"""

from __future__ import annotations

from typing import Any, Optional

from .events import (
    CollisionDetected,
    FastForward,
    ListenParked,
    ListenWoken,
    MessageBroadcast,
    ObsEvent,
    PhaseEnded,
    PhaseStarted,
    ProcessorSlept,
)
from .metrics import MetricsRegistry


class Observer:
    """Base observer; override any subset of the hook methods."""

    def on_phase_start(self, event: PhaseStarted) -> None:
        """Called once when a ``run()`` stage begins."""

    def on_phase_end(self, event: PhaseEnded) -> None:
        """Called once when a ``run()`` stage finishes, with its totals."""

    def on_message(self, event: MessageBroadcast) -> None:
        """Called for every successfully delivered broadcast."""

    def on_collision(self, event: CollisionDetected) -> None:
        """Called when several processors write one channel in one cycle."""

    def on_fast_forward(self, event: FastForward) -> None:
        """Called when the engine skips cycles with all processors asleep."""

    def on_processor_slept(self, event: ProcessorSlept) -> None:
        """Called when a processor starts a multi-cycle sleep."""

    def on_listen_parked(self, event: ListenParked) -> None:
        """Called when a processor enters a ``Listen`` window."""

    def on_listen_woken(self, event: ListenWoken) -> None:
        """Called when an in-flight ``Listen`` completes and resumes."""


_HOOK_BY_KIND = {
    "phase_start": "on_phase_start",
    "phase_end": "on_phase_end",
    "message": "on_message",
    "collision": "on_collision",
    "fast_forward": "on_fast_forward",
    "sleep": "on_processor_slept",
    "listen_park": "on_listen_parked",
    "listen_wake": "on_listen_woken",
}


class Dispatcher:
    """Fan an event out to every observer, isolating their failures.

    A raising observer is disabled until the next ``phase_start`` (one
    bad plugin must not turn every message of a long phase into an
    exception handler) and the failure is tallied in ``errors``.
    """

    def __init__(self, observers: list[Observer]):
        self.observers = observers
        self.errors: dict[str, int] = {}
        self._disabled: set[int] = set()

    def dispatch(self, event: ObsEvent) -> None:
        """Route ``event`` to the matching hook of each healthy observer."""
        hook_name = _HOOK_BY_KIND[event.kind]
        if event.kind == "phase_start":
            self._disabled.clear()
        for i, obs in enumerate(self.observers):
            if i in self._disabled:
                continue
            try:
                getattr(obs, hook_name)(event)
            except Exception:
                name = type(obs).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                self._disabled.add(i)


class ObservableMixin:
    """Observer management shared by the MCB engines.

    Engines call :meth:`_init_observability` from ``__init__`` and test
    ``self._dispatch is not None`` before building events — the slot
    stays ``None`` until the first observer is attached, so an
    unobserved run constructs no event objects.
    """

    def _init_observability(self) -> None:
        self._observers: list[Observer] = []
        self._dispatch: Optional[Dispatcher] = None

    def attach_observer(self, observer: Observer) -> None:
        """Subscribe an observer to this engine's lifecycle events."""
        self._observers.append(observer)
        self._dispatch = Dispatcher(self._observers)

    def detach_observer(self, observer: Observer) -> None:
        """Unsubscribe; unknown observers are ignored."""
        try:
            self._observers.remove(observer)
        except ValueError:
            return
        self._dispatch = Dispatcher(self._observers) if self._observers else None

    @property
    def observers(self) -> tuple:
        """The currently attached observers (read-only view)."""
        return tuple(self._observers)

    def _reset_observability(self) -> None:
        """Detach every observer.

        ``reset_stats()`` calls this so a reused network starts from a
        clean slate.
        """
        self._observers = []
        self._dispatch = None


class MetricsObserver(Observer):
    """Maintain the standard MCB metric set in a registry.

    Metrics kept (all prefixed ``mcb_``):

    * ``mcb_phases_total`` — counter of finished stages;
    * ``mcb_cycles_total`` / ``mcb_messages_total`` / ``mcb_bits_total``
      — the Section 2 cost counters, labelled by phase;
    * ``mcb_channel_writes_total`` — counter labelled by channel;
    * ``mcb_channel_utilization`` — gauge per phase (messages over
      cycles*k);
    * ``mcb_collisions_total`` — counter labelled by resolution policy;
    * ``mcb_fast_forward_cycles_total`` — cycles skipped while all
      processors slept;
    * ``mcb_aux_peak_slots`` — gauge, running max per run;
    * ``mcb_phase_cycles`` — histogram of per-stage lengths;
    * ``mcb_sleeps_total`` / ``mcb_listen_parks_total`` /
      ``mcb_listen_wakes_total`` — sparse-cycle protocol activity.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._phases = r.counter("mcb_phases_total", "finished run() stages")
        self._cycles = r.counter("mcb_cycles_total", "cycles per phase")
        self._messages = r.counter("mcb_messages_total", "broadcasts per phase")
        self._bits = r.counter("mcb_bits_total", "broadcast bits per phase")
        self._chan_writes = r.counter(
            "mcb_channel_writes_total", "writes per channel"
        )
        self._utilization = r.gauge(
            "mcb_channel_utilization", "messages / (cycles * k), last phase value"
        )
        self._collisions = r.counter(
            "mcb_collisions_total", "concurrent-write incidents by resolution"
        )
        self._ff = r.counter(
            "mcb_fast_forward_cycles_total", "cycles skipped with all asleep"
        )
        self._aux = r.gauge("mcb_aux_peak_slots", "max aux slots of any processor")
        self._phase_hist = r.histogram("mcb_phase_cycles", "stage length in cycles")
        self._sleeps = r.counter("mcb_sleeps_total", "multi-cycle sleeps started")
        self._parks = r.counter("mcb_listen_parks_total", "Listen windows opened")
        self._wakes = r.counter("mcb_listen_wakes_total", "Listen windows completed")

    def on_message(self, event: MessageBroadcast) -> None:
        """Count the write against its channel."""
        self._chan_writes.inc(channel=event.channel)

    def on_collision(self, event: CollisionDetected) -> None:
        """Count the collision under its resolution policy."""
        self._collisions.inc(resolution=event.resolution)

    def on_fast_forward(self, event: FastForward) -> None:
        """Accumulate the number of skipped all-asleep cycles."""
        self._ff.inc(event.to_cycle - event.from_cycle)

    def on_processor_slept(self, event: ProcessorSlept) -> None:
        """Count a multi-cycle sleep."""
        self._sleeps.inc()

    def on_listen_parked(self, event: ListenParked) -> None:
        """Count an opened Listen window against its channel."""
        self._parks.inc(channel=event.channel)

    def on_listen_woken(self, event: ListenWoken) -> None:
        """Count a completed Listen window against its channel."""
        self._wakes.inc(channel=event.channel)

    def on_phase_end(self, event: PhaseEnded) -> None:
        """Fold the finished stage's totals into every metric family."""
        self._phases.inc()
        self._cycles.inc(event.cycles, phase=event.phase)
        self._messages.inc(event.messages, phase=event.phase)
        self._bits.inc(event.bits, phase=event.phase)
        self._utilization.set(round(event.utilization, 6), phase=event.phase)
        self._aux.set_max(event.max_aux_peak)
        self._phase_hist.observe(event.cycles)

    def snapshot(self) -> dict[str, Any]:
        """Shorthand for ``self.registry.snapshot()``."""
        return self.registry.snapshot()


class EventLog(Observer):
    """Record every event, in dispatch order, in ``events``.

    The profiler buckets its timeline from this list, and tests use it
    to capture an engine's event stream; write ``events`` through a
    :class:`~repro.obs.sinks.JsonlSink` or ``CsvSink`` to persist them.
    """

    def __init__(self) -> None:
        self.events: list[ObsEvent] = []

    def _record(self, event: ObsEvent) -> None:
        """Append the event to ``events``."""
        self.events.append(event)

    on_phase_start = on_phase_end = on_message = on_collision = _record
    on_fast_forward = on_processor_slept = _record
    on_listen_parked = on_listen_woken = _record
