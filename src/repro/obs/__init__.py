"""repro.obs — structured observability for MCB runs.

The paper's whole empirical argument is cost accounting ("complexity is
measured in terms of the total number of cycles and the total number of
broadcast messages", Section 2).  This subsystem turns that accounting
into observable, exportable data instead of process-local state.
Observers are the only way events are delivered; sinks only write:

* :mod:`repro.obs.events` — typed run/phase/message/collision events;
* :mod:`repro.obs.hooks` — the observer API the engines dispatch into,
  plus the built-in observers (metrics and the recording
  :class:`~repro.obs.hooks.EventLog`);
* :mod:`repro.obs.sinks` — memory / JSONL / CSV writers for events;
* :mod:`repro.obs.metrics` — counters/gauges/histograms + snapshots;
* :mod:`repro.obs.trace` — cycle-accurate processor/channel timelines
  with Chrome Trace Event / Perfetto export
  (``python -m repro timeline``);
* :mod:`repro.obs.profile` — the profiler report used by
  ``python -m repro profile`` (:mod:`repro.obs.cli`).

Quickstart::

    from repro import MCBNetwork, Distribution, mcb_sort
    from repro.obs import Profiler

    net = MCBNetwork(p=16, k=4)
    with Profiler(net) as prof:
        mcb_sort(net, Distribution.even(1024, 16, seed=7))
    print(prof.report().render())

See ``docs/OBSERVABILITY.md`` for the event schema and sink contracts.
"""

from .events import (
    EVENT_TYPES,
    CollisionDetected,
    FastForward,
    JobAborted,
    JobFailed,
    JobFinished,
    JobQueued,
    JobRejected,
    JobStarted,
    ListenParked,
    ListenWoken,
    MessageBroadcast,
    ObsEvent,
    PhaseEnded,
    PhaseStarted,
    ProcessorSlept,
    from_dict,
)
from .hooks import (
    Dispatcher,
    EventLog,
    MetricsObserver,
    ObservableMixin,
    Observer,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    global_registry,
)
from .profile import PhaseProfile, Profiler, ProfileReport
from .sinks import CsvSink, JsonlSink, MemorySink, Sink
from .trace import (
    TraceBuilder,
    chrome_trace_phase_totals,
    chrome_trace_query_totals,
    load_run_to_chrome_trace,
    sparkline,
    to_chrome_trace,
)

__all__ = [
    "CollisionDetected",
    "Counter",
    "CsvSink",
    "Dispatcher",
    "EVENT_TYPES",
    "EventLog",
    "FastForward",
    "Gauge",
    "Histogram",
    "JobAborted",
    "JobFailed",
    "JobFinished",
    "JobQueued",
    "JobRejected",
    "JobStarted",
    "JsonlSink",
    "ListenParked",
    "ListenWoken",
    "MemorySink",
    "MessageBroadcast",
    "MetricsObserver",
    "MetricsRegistry",
    "ObsEvent",
    "ObservableMixin",
    "Observer",
    "QuantileSketch",
    "PhaseEnded",
    "PhaseProfile",
    "PhaseStarted",
    "ProcessorSlept",
    "Profiler",
    "ProfileReport",
    "Sink",
    "TraceBuilder",
    "chrome_trace_phase_totals",
    "chrome_trace_query_totals",
    "from_dict",
    "global_registry",
    "load_run_to_chrome_trace",
    "sparkline",
    "to_chrome_trace",
]
