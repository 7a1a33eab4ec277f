"""Profiler: run an algorithm under full instrumentation, report costs.

:class:`Profiler` wraps a network with the whole obs stack — a
:class:`~repro.obs.hooks.MetricsObserver` plus an
:class:`~repro.obs.hooks.EventLog` that records every event — runs
whatever the caller executes on that network, and distills a
:class:`ProfileReport`:

* per-phase cycles / messages / bits / utilization / hottest channel /
  aux-memory peak (totals match ``net.stats`` *exactly* — the report is
  derived from the same :class:`~repro.mcb.trace.RunStats`, the event
  stream only adds the timeline);
* a run-wide channel-utilization timeline (phases laid end to end on a
  global cycle axis, bucketed);
* the metrics-registry snapshot.

Used by ``python -m repro profile`` (see :mod:`repro.obs.cli`) and by
the benchmark recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..bounds.overlay import overlay_phases
from .events import MessageBroadcast, PhaseEnded
from .hooks import EventLog, MetricsObserver
from .metrics import MetricsRegistry

_SPARK = "▁▂▃▄▅▆▇█"

#: Process-global counter families surfaced on profile reports.  The
#: plan-compiler counters land on the *global* registry (they belong to
#: the library, not to one network), so without this list ``repro
#: profile --engine vector`` would report a run with no plan-cache
#: activity at all.
_GLOBAL_FAMILIES = (
    "vector_plan_cache_total",
    "vector_plan_compile_seconds",
    "vector_plan_phases_fused",
)


@dataclass
class PhaseProfile:
    """One (name-merged) phase's cost summary.

    The ``predicted_*`` / ``*_ratio`` / ``bound_*`` fields carry the
    theory overlay (see :mod:`repro.bounds.overlay`) when the profiler
    was given a ``theory`` config; they stay ``None`` otherwise.  A
    ``bound_scope`` of ``"run"`` means the ratio is this phase's share
    of the whole-run bound, not a per-phase tightness constant.
    """

    name: str
    cycles: int
    messages: int
    bits: int
    utilization: float
    hottest_channel: Optional[int]
    hottest_channel_writes: int
    channel_writes: dict[int, int]
    max_aux_peak: int
    fast_forward_cycles: int
    collisions: int
    predicted_cycles: Optional[float] = None
    predicted_messages: Optional[float] = None
    cycles_ratio: Optional[float] = None
    messages_ratio: Optional[float] = None
    bound_source: Optional[str] = None
    bound_scope: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        """Project to a JSON-serializable dict (utilization rounded)."""
        out = {
            "name": self.name,
            "cycles": self.cycles,
            "messages": self.messages,
            "bits": self.bits,
            "utilization": round(self.utilization, 6),
            "hottest_channel": self.hottest_channel,
            "hottest_channel_writes": self.hottest_channel_writes,
            "channel_writes": dict(sorted(self.channel_writes.items())),
            "max_aux_peak": self.max_aux_peak,
            "fast_forward_cycles": self.fast_forward_cycles,
            "collisions": self.collisions,
        }
        if self.predicted_cycles is not None:
            out["predicted_cycles"] = self.predicted_cycles
            out["predicted_messages"] = self.predicted_messages
            out["cycles_ratio"] = self.cycles_ratio
            out["messages_ratio"] = self.messages_ratio
            out["bound_source"] = self.bound_source
            out["bound_scope"] = self.bound_scope
        return out


@dataclass
class ProfileReport:
    """Everything ``repro profile`` prints, as data."""

    config: dict[str, Any]
    phases: list[PhaseProfile]
    totals: dict[str, Any]
    timeline: dict[str, Any]
    metrics: dict[str, Any] = field(default_factory=dict)
    observer_errors: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Project the whole report to a JSON-serializable dict."""
        return {
            "config": self.config,
            "phases": [ph.to_dict() for ph in self.phases],
            "totals": self.totals,
            "timeline": self.timeline,
            "metrics": self.metrics,
            "observer_errors": dict(self.observer_errors),
        }

    def warnings(self) -> list[str]:
        """Human-readable warnings (observer failures)."""
        out = []
        for name, count in sorted(self.observer_errors.items()):
            out.append(
                f"observer {name} raised {count} time(s) and was disabled "
                "for the rest of its phase; metrics/timeline may undercount"
            )
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable profile: per-phase table + timeline sparkline."""
        lines = []
        cfg = " ".join(f"{k}={v}" for k, v in self.config.items())
        if cfg:
            lines.append(f"profile: {cfg}")
        overlay = any(ph.predicted_cycles is not None for ph in self.phases)
        header = (
            f"{'phase':<28}{'cycles':>9}{'messages':>10}{'bits':>12}"
            f"{'util':>8}{'hot-ch':>8}{'aux':>6}"
        )
        if overlay:
            header += f"{'pred-cyc':>10}{'c-ratio':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for ph in self.phases:
            hot = f"C{ph.hottest_channel}" if ph.hottest_channel else "-"
            row = (
                f"{ph.name:<28}{ph.cycles:>9}{ph.messages:>10}{ph.bits:>12}"
                f"{ph.utilization:>8.3f}{hot:>8}{ph.max_aux_peak:>6}"
            )
            if overlay:
                if ph.predicted_cycles is not None:
                    mark = "" if ph.bound_scope == "phase" else "*"
                    ratio = (
                        f"{ph.cycles_ratio:.2f}{mark}"
                        if ph.cycles_ratio is not None else "-"
                    )
                    row += f"{ph.predicted_cycles:>10.1f}{ratio:>9}"
                else:
                    row += f"{'-':>10}{'-':>9}"
            lines.append(row)
        lines.append("-" * len(header))
        t = self.totals
        total_row = (
            f"{'TOTAL':<28}{t['cycles']:>9}{t['messages']:>10}{t['bits']:>12}"
            f"{t['utilization']:>8.3f}{'':>8}{t['max_aux_peak']:>6}"
        )
        if overlay and t.get("predicted_cycles") is not None:
            ratio = t.get("cycles_ratio")
            total_row += (
                f"{t['predicted_cycles']:>10.1f}"
                f"{(f'{ratio:.2f}' if ratio is not None else '-'):>9}"
            )
        lines.append(total_row)
        if overlay:
            src = t.get("bound_source", "the run bound")
            lines.append(
                f"  (pred-cyc: theory overlay; * = phase's share of {src}, "
                "unmarked = per-phase closed form)"
            )
        util = self.timeline.get("utilization", [])
        if util:
            peak = max(util)
            spark = "".join(
                _SPARK[min(len(_SPARK) - 1, int(u / peak * (len(_SPARK) - 1)))]
                if peak > 0 else _SPARK[0]
                for u in util
            )
            lines.append(
                f"\nutilization timeline ({self.timeline['total_cycles']} cycles, "
                f"{len(util)} buckets, peak {peak:.3f}):"
            )
            lines.append(f"  [{spark}]")
        warns = self.warnings()
        if warns:
            lines.append("")
            lines.append("WARNING: observer failures detected")
            for w in warns:
                lines.append(f"  - {w}")
        return "\n".join(lines)


class Profiler:
    """Attach the full obs stack to a network for the caller's run(s).

    Usage::

        net = MCBNetwork(p=16, k=4)
        with Profiler(net, config={"algo": "sort"}) as prof:
            mcb_sort(net, dist)
        report = prof.report()

    Detaches its observers on exit; ``report()`` may be called after.
    """

    def __init__(
        self,
        net: Any,
        *,
        config: Optional[dict[str, Any]] = None,
        timeline_buckets: int = 60,
        registry: Optional[MetricsRegistry] = None,
        theory: Optional[dict[str, Any]] = None,
    ):
        self.net = net
        self.config = dict(config or {})
        self.theory = dict(theory) if theory else None
        self.timeline_buckets = timeline_buckets
        self.metrics_observer = MetricsObserver(registry)
        self.event_log = EventLog()
        self._attached = False
        self._observer_errors: dict[str, int] = {}
        self._err_disp: Any = None
        self._err_seen: dict[str, int] = {}
        self._global_before: dict[str, dict] = {}

    @property
    def events(self) -> list:
        """Every event the run dispatched, in order."""
        return self.event_log.events

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        from .metrics import global_registry

        reg = global_registry()
        self._global_before = {
            name: dict(reg._metrics[name]._samples)
            for name in _GLOBAL_FAMILIES
            if name in reg
        }
        self.net.attach_observer(self.metrics_observer)
        self.net.attach_observer(self.event_log)
        self._attached = True
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def detach(self) -> None:
        """Remove both observers (idempotent)."""
        if self._attached:
            self._capture_observer_errors()
            self.net.detach_observer(self.event_log)
            self.net.detach_observer(self.metrics_observer)
            self._attached = False

    def _capture_observer_errors(self) -> None:
        """Fold ``Dispatcher.errors`` into the running tally.

        Detach rebuilds the network's dispatcher, so the tally must be
        saved *before* the observers are removed.  Captures are
        delta-based per dispatcher instance, so calling ``report()``
        repeatedly while attached never double-counts.
        """
        disp = getattr(self.net, "_dispatch", None)
        if disp is None:
            return
        if disp is not self._err_disp:
            self._err_disp = disp
            self._err_seen = {}
        for name, count in disp.errors.items():
            delta = count - self._err_seen.get(name, 0)
            if delta > 0:
                self._observer_errors[name] = (
                    self._observer_errors.get(name, 0) + delta
                )
                self._err_seen[name] = count

    # ------------------------------------------------------------------
    def report(self) -> ProfileReport:
        """Build the report from ``net.stats`` + the captured events."""
        if self._attached:
            self._capture_observer_errors()
        stats = self.net.stats
        k = getattr(self.net, "k", 0)

        merged = stats.merged_phases()
        predictions, run_pred = self._predictions(
            [ph.name for ph in merged], k
        )

        phases: list[PhaseProfile] = []
        for ph in merged:
            name = ph.name
            if ph.channel_writes:
                hot = max(ph.channel_writes, key=lambda c: (ph.channel_writes[c], -c))
                hot_writes = ph.channel_writes[hot]
            else:
                hot, hot_writes = None, 0
            overlay: dict[str, Any] = {}
            pred = predictions.get(name)
            if pred is not None:
                overlay = pred.with_ratios(ph.cycles, ph.messages)
            phases.append(
                PhaseProfile(
                    name=name,
                    cycles=ph.cycles,
                    messages=ph.messages,
                    bits=ph.bits,
                    utilization=ph.channel_utilization(),
                    hottest_channel=hot,
                    hottest_channel_writes=hot_writes,
                    channel_writes=dict(ph.channel_writes),
                    max_aux_peak=ph.max_aux_peak,
                    fast_forward_cycles=ph.fast_forward_cycles,
                    collisions=ph.collisions,
                    **overlay,
                )
            )

        total_cycles = stats.cycles
        denom = total_cycles * k
        totals = {
            "cycles": total_cycles,
            "messages": stats.messages,
            "bits": stats.bits,
            "max_aux_peak": stats.max_aux_peak,
            "utilization": round(stats.messages / denom, 6) if denom else 0.0,
        }
        if run_pred is not None:
            totals.update(run_pred.with_ratios(total_cycles, stats.messages))

        return ProfileReport(
            config=self.config,
            phases=phases,
            totals=totals,
            timeline=self._timeline(total_cycles, k),
            metrics=self._merged_metrics(),
            observer_errors=dict(self._observer_errors),
        )

    def _merged_metrics(self) -> dict[str, Any]:
        """The observer's registry snapshot plus plan-compiler deltas.

        Only the *increments* since ``__enter__`` are reported — this run
        caused them — so reports stay reproducible no matter what earlier
        runs in the process did to the cumulative global counters.
        Per-run families win on a name collision.
        """
        from .metrics import global_registry

        reg = global_registry()
        merged: dict[str, Any] = {}
        for name in _GLOBAL_FAMILIES:
            metric = reg._metrics.get(name)
            if metric is None:
                continue
            before = self._global_before.get(name, {})
            delta = {
                key: value - before.get(key, 0)
                for key, value in metric._samples.items()
                if value != before.get(key, 0)
            }
            if not delta:
                continue
            if list(delta.keys()) == [()]:
                value: Any = delta[()]
            else:
                value = {
                    ",".join(f"{k}={v}" for k, v in key) or "": val
                    for key, val in sorted(delta.items(), key=repr)
                }
            merged[name] = {
                "type": metric.metric_type,
                "help": metric.help,
                "value": value,
            }
        merged.update(self.metrics_observer.registry.snapshot())
        return merged

    def _predictions(self, names, k):
        """Theory-overlay predictions keyed by phase name (may be empty).

        Driven by the ``theory`` config: ``{"algorithm": "sort"|"select",
        "n": ..., "p": ..., "k": ..., "n_max": ...}``; ``p``/``k``
        default to the network's own dimensions.
        """
        th = self.theory
        if not th or "algorithm" not in th or "n" not in th:
            return {}, None
        p = int(th.get("p", getattr(self.net, "p", 0)) or 0)
        kk = int(th.get("k", k) or 0)
        if p <= 0 or kk <= 0:
            return {}, None
        return overlay_phases(
            th["algorithm"], names, n=int(th["n"]), p=p, k=kk,
            n_max=th.get("n_max"),
        )

    # ------------------------------------------------------------------
    def _timeline(self, total_cycles: int, k: int) -> dict[str, Any]:
        """Bucketed run-wide utilization from the captured message events.

        Each ``run()`` stage restarts its cycle counter at 0, so stages
        are laid end to end on a global axis using the ``phase_end``
        cycle totals as offsets.
        """
        buckets = self.timeline_buckets
        if total_cycles <= 0 or k <= 0:
            return {"total_cycles": total_cycles, "bucket_cycles": 0,
                    "utilization": []}
        buckets = min(buckets, total_cycles)
        width = total_cycles / buckets
        counts = [0] * buckets
        offset = 0
        for ev in self.events:
            if isinstance(ev, MessageBroadcast):
                g = offset + ev.cycle
                idx = min(buckets - 1, int(g / width))
                counts[idx] += 1
            elif isinstance(ev, PhaseEnded):
                offset += ev.cycles
        util = [round(c / (width * k), 6) for c in counts]
        return {
            "total_cycles": total_cycles,
            "bucket_cycles": round(width, 3),
            "utilization": util,
        }
