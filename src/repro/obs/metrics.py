"""A small metrics registry: counters, gauges, histograms, snapshots.

The MCB cost model has a closed set of headline quantities — cycles,
messages, bits (Section 2), per-channel utilization, collisions (under
the Section 9 extended policies), sleep/fast-forward skips, and
per-processor auxiliary-memory peaks (Section 6.1).  The registry gives
each a named, labelled metric and one ``snapshot()`` that projects the
whole registry to a plain nested dict — the contract every exporter
(JSON profile, bench recorder, future Prometheus bridge) builds on.

No external dependencies: a registry is an object you attach to a
network via :class:`~repro.obs.hooks.MetricsObserver`.  One process-wide
default lives behind :func:`global_registry` for cross-cutting library
counters (schedule-cache hit rates and the like) that have no network
object to hang off; everything per-run should keep using its own
registry instance.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: Any) -> str:
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _quantile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p999"``."""
    digits = str(q)[2:]
    return f"p{digits}0" if len(digits) == 1 else f"p{digits}"


class _Metric:
    """Shared naming/labelling plumbing for all metric families."""

    metric_type = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._samples: dict[LabelKey, Any] = {}

    def _project(self, value: Any) -> Any:
        return value

    # -- cross-process fold protocol -----------------------------------
    # Worker processes mutate their *own* registries; these hooks let a
    # parent ship per-label increments back (see
    # ``MetricsRegistry.export_state`` / ``delta_state`` / ``fold_state``).

    def config(self) -> dict[str, Any]:
        """Construction parameters a fold peer must agree on."""
        return {}

    def _export(self, value: Any) -> Any:
        """One sample as plain picklable data (scalar by default)."""
        return value

    @staticmethod
    def diff(before: Any, after: Any) -> Optional[Any]:
        """Increment between two exported samples (``None`` = unchanged)."""
        if before == after:
            return None
        return after - (before or 0)

    def fold(self, key: LabelKey, payload: Any, **_: Any) -> None:
        """Apply one exported increment to the sample at ``key``."""
        self._samples[key] = self._samples.get(key, 0) + payload

    def snapshot(self) -> Any:
        """Unlabelled metric -> scalar; labelled -> {label-repr: value}."""
        if list(self._samples.keys()) == [()]:
            return self._project(self._samples[()])
        return {
            ",".join(f"{k}={v}" for k, v in key) or "": self._project(value)
            for key, value in sorted(self._samples.items(), key=repr)
        }


class Counter(_Metric):
    """Monotonically increasing count (messages, collisions, skips)."""

    metric_type = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the sample selected by ``labels``."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def get(self, **labels: Any) -> float:
        """Current value for ``labels`` (0 if never incremented)."""
        return self._samples.get(_label_key(labels), 0)

    def labelled(self, **labels: Any) -> Callable[[float], None]:
        """:meth:`inc` of the sample ``labels`` select, with its label
        key built once, for callers that count on a hot path."""
        key = _label_key(labels)
        samples = self._samples

        def inc(amount: float = 1) -> None:
            if amount < 0:
                raise ValueError("counters only go up; use a Gauge")
            samples[key] = samples.get(key, 0) + amount

        return inc


class Gauge(_Metric):
    """A value that can move both ways (utilization, buffer depth)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Replace the sample selected by ``labels`` with ``value``."""
        self._samples[_label_key(labels)] = value

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum (aux-memory high-water marks)."""
        key = _label_key(labels)
        if key not in self._samples or value > self._samples[key]:
            self._samples[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Move the sample by ``amount`` (may be negative)."""
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def get(self, **labels: Any) -> float:
        """Current value for ``labels`` (0 if never set)."""
        return self._samples.get(_label_key(labels), 0)

    @staticmethod
    def diff(before: Any, after: Any) -> Optional[Any]:
        """Gauges ship their absolute value when it moved."""
        if before == after:
            return None
        return after

    def fold(self, key: LabelKey, payload: Any, **_: Any) -> None:
        """Folding a gauge adopts the worker's last value."""
        self._samples[key] = payload


class Histogram(_Metric):
    """Cumulative-bucket histogram (message sizes, phase lengths).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  The snapshot carries cumulative counts per bound plus
    ``sum``/``count``, mirroring the Prometheus exposition semantics so
    downstream tooling needs no new conventions.
    """

    metric_type = "histogram"

    DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help)
        bounds = (
            self.DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the matching bucket."""
        key = _label_key(labels)
        state = self._samples.get(key)
        if state is None:
            state = {"counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}
            self._samples[key] = state
        idx = bisect.bisect_left(self.bounds, value)
        state["counts"][idx] += 1
        state["sum"] += value
        state["count"] += 1

    def get(self, **labels: Any) -> dict[str, Any]:
        """Cumulative ``{buckets, sum, count}`` view for ``labels``."""
        return self._project(
            self._samples.get(
                _label_key(labels),
                {"counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0},
            )
        )

    def _project(self, state: dict[str, Any]) -> dict[str, Any]:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, n in zip(self.bounds, state["counts"]):
            running += n
            cumulative[f"le_{bound:g}"] = running
        cumulative["le_inf"] = running + state["counts"][-1]
        return {
            "buckets": cumulative,
            "sum": state["sum"],
            "count": state["count"],
        }

    def config(self) -> dict[str, Any]:
        """Bucket bounds a fold peer must agree on."""
        return {"buckets": list(self.bounds)}

    def _export(self, state: dict[str, Any]) -> dict[str, Any]:
        return {
            "counts": list(state["counts"]),
            "sum": state["sum"],
            "count": state["count"],
        }

    @staticmethod
    def diff(before: Any, after: Any) -> Optional[Any]:
        if before is None:
            before = {"counts": [0] * len(after["counts"]), "sum": 0.0,
                      "count": 0}
        if before["count"] == after["count"]:
            return None
        return {
            "counts": [a - b for a, b in
                       zip(after["counts"], before["counts"])],
            "sum": after["sum"] - before["sum"],
            "count": after["count"] - before["count"],
        }

    def fold(self, key: LabelKey, payload: Any, **_: Any) -> None:
        """Add a shipped bucket-count increment into the sample at ``key``."""
        state = self._samples.get(key)
        if state is None:
            state = {
                "counts": [0] * (len(self.bounds) + 1), "sum": 0.0,
                "count": 0,
            }
            self._samples[key] = state
        if len(payload["counts"]) != len(state["counts"]):
            raise ValueError(
                f"histogram {self.name!r}: folding {len(payload['counts'])} "
                f"bucket counts into {len(state['counts'])} (bucket bounds "
                "must match across processes)"
            )
        state["counts"] = [
            a + b for a, b in zip(state["counts"], payload["counts"])
        ]
        state["sum"] += payload["sum"]
        state["count"] += payload["count"]


class QuantileSketch(_Metric):
    """Mergeable streaming quantile sketch over fixed log-scale buckets.

    HDR-histogram style: values land in geometric buckets of width
    ``10**(1/buckets_per_decade)``, so any quantile estimate carries a
    bounded *relative* error (:attr:`relative_error`, ~3.7% at the
    default resolution) regardless of the value range — the right shape
    for latency distributions, whose tails span decades.  Buckets are a
    sparse dict, so memory is O(occupied buckets), never O(range).

    Two sketches with the same resolution merge exactly: bucket counts
    add, ``min``/``max`` combine — ``merge(a, b)`` of any partition of
    an observation stream equals the sketch of the whole stream.  That
    is the property the service relies on to fold per-worker latency
    sketches into one ``/metrics`` exposition.
    """

    metric_type = "sketch"

    DEFAULT_BUCKETS_PER_DECADE = 32
    DEFAULT_MIN_VALUE = 1e-6
    #: Quantiles projected into snapshots and the Prometheus exposition.
    QUANTILES = (0.5, 0.9, 0.99, 0.999)

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets_per_decade: Optional[int] = None,
        min_value: Optional[float] = None,
    ):
        super().__init__(name, help)
        bpd = (
            self.DEFAULT_BUCKETS_PER_DECADE
            if buckets_per_decade is None else buckets_per_decade
        )
        if bpd < 1:
            raise ValueError(f"buckets_per_decade must be >= 1, got {bpd}")
        mv = self.DEFAULT_MIN_VALUE if min_value is None else min_value
        if mv <= 0:
            raise ValueError(f"min_value must be > 0, got {mv}")
        self.buckets_per_decade = bpd
        self.min_value = mv

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantile error (half a bucket, geometric)."""
        return 10 ** (0.5 / self.buckets_per_decade) - 1

    # -- bucket arithmetic ---------------------------------------------
    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return -1  # the underflow bucket, represented by min_value
        return int(math.floor(
            math.log10(value / self.min_value) * self.buckets_per_decade
        ))

    def _representative(self, index: int) -> float:
        if index < 0:
            return self.min_value
        return self.min_value * 10 ** (
            (index + 0.5) / self.buckets_per_decade
        )

    def _new_state(self) -> dict[str, Any]:
        return {"counts": {}, "sum": 0.0, "count": 0,
                "min": None, "max": None}

    # -- recording ------------------------------------------------------
    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation (values <= min_value underflow-clamp)."""
        key = _label_key(labels)
        state = self._samples.get(key)
        if state is None:
            state = self._new_state()
            self._samples[key] = state
        idx = self._index(value)
        state["counts"][idx] = state["counts"].get(idx, 0) + 1
        state["sum"] += value
        state["count"] += 1
        if state["min"] is None or value < state["min"]:
            state["min"] = value
        if state["max"] is None or value > state["max"]:
            state["max"] = value

    # -- querying -------------------------------------------------------
    def count(self, **labels: Any) -> int:
        """Observations recorded for ``labels`` (0 if none)."""
        state = self._samples.get(_label_key(labels))
        return state["count"] if state else 0

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimated ``q``-quantile for ``labels`` (``None`` if empty).

        The estimate is the geometric midpoint of the bucket holding the
        rank, clamped into the observed ``[min, max]`` — within
        :attr:`relative_error` of the true order statistic.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        state = self._samples.get(_label_key(labels))
        return self._state_quantile(state, q) if state else None

    def _state_quantile(
        self, state: Mapping[str, Any], q: float
    ) -> Optional[float]:
        total = state["count"]
        if total == 0:
            return None
        target = max(1, math.ceil(q * total))
        running = 0
        for idx in sorted(state["counts"]):
            running += state["counts"][idx]
            if running >= target:
                value = self._representative(idx)
                return min(max(value, state["min"]), state["max"])
        return state["max"]  # pragma: no cover - counts always reach total

    # -- merging --------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> None:
        """Fold every label set of ``other`` into this sketch (exact)."""
        if (other.buckets_per_decade != self.buckets_per_decade
                or other.min_value != self.min_value):
            raise ValueError(
                f"cannot merge sketch {other.name!r} "
                f"({other.buckets_per_decade}/decade, min "
                f"{other.min_value:g}) into {self.name!r} "
                f"({self.buckets_per_decade}/decade, min "
                f"{self.min_value:g})"
            )
        for key, state in other._samples.items():
            self.fold(key, other._export(state))

    def _project(self, state: dict[str, Any]) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": state["count"],
            "sum": state["sum"],
            "min": state["min"],
            "max": state["max"],
        }
        for q in self.QUANTILES:
            out[_quantile_label(q)] = self._state_quantile(state, q)
        return out

    def config(self) -> dict[str, Any]:
        """Resolution parameters a fold peer must agree on."""
        return {
            "buckets_per_decade": self.buckets_per_decade,
            "min_value": self.min_value,
        }

    def _export(self, state: dict[str, Any]) -> dict[str, Any]:
        return {
            "counts": dict(state["counts"]),
            "sum": state["sum"],
            "count": state["count"],
            "min": state["min"],
            "max": state["max"],
        }

    @staticmethod
    def diff(before: Any, after: Any) -> Optional[Any]:
        if before is None:
            before = {"counts": {}, "sum": 0.0, "count": 0,
                      "min": None, "max": None}
        if before["count"] == after["count"]:
            return None
        counts = {
            idx: n - before["counts"].get(idx, 0)
            for idx, n in after["counts"].items()
            if n != before["counts"].get(idx, 0)
        }
        return {
            "counts": counts,
            "sum": after["sum"] - before["sum"],
            "count": after["count"] - before["count"],
            "min": after["min"],
            "max": after["max"],
        }

    def fold(self, key: LabelKey, payload: Any, **_: Any) -> None:
        """Merge a shipped sparse bucket increment into the sample at
        ``key`` — exact on counts, so folded quantiles equal a single
        sketch observing the union stream."""
        state = self._samples.get(key)
        if state is None:
            state = self._new_state()
            self._samples[key] = state
        for idx, n in payload["counts"].items():
            state["counts"][idx] = state["counts"].get(idx, 0) + n
        state["sum"] += payload["sum"]
        state["count"] += payload["count"]
        for side, pick in (("min", min), ("max", max)):
            if payload[side] is not None:
                state[side] = (
                    payload[side] if state[side] is None
                    else pick(state[side], payload[side])
                )


class MetricsRegistry:
    """Create-or-get metric families; snapshot the lot as a plain dict."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        #: how many times :meth:`reset` has dropped every family, so a
        #: caller holding a family knows when to fetch it again
        self.resets = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.metric_type}, not {cls.metric_type}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Create (or fetch the existing) :class:`Counter` ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Create (or fetch the existing) :class:`Gauge` ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Create (or fetch the existing) :class:`Histogram` ``name``.

        ``buckets`` only applies on first creation; a later call returns
        the existing family with its original bounds.
        """
        if name in self._metrics:
            return self._get_or_create(Histogram, name, help)
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def sketch(
        self,
        name: str,
        help: str = "",
        *,
        buckets_per_decade: Optional[int] = None,
        min_value: Optional[float] = None,
    ) -> QuantileSketch:
        """Create (or fetch the existing) :class:`QuantileSketch` ``name``.

        Resolution parameters only apply on first creation, mirroring
        :meth:`histogram`.
        """
        if name in self._metrics:
            return self._get_or_create(QuantileSketch, name, help)
        return self._get_or_create(
            QuantileSketch, name, help,
            buckets_per_decade=buckets_per_decade, min_value=min_value,
        )

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Sorted names of every registered metric family."""
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric:
        """Look up a registered family; raises ``KeyError`` if absent."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def reset(self) -> None:
        """Drop every registered family (a fresh registry, same object)."""
        self._metrics.clear()
        self.resets += 1

    def snapshot(self) -> dict[str, Any]:
        """Project the registry to ``{name: {type, help, value}}``."""
        return {
            name: {
                "type": metric.metric_type,
                "help": metric.help,
                "value": metric.snapshot(),
            }
            for name, metric in sorted(self._metrics.items())
        }

    # ------------------------------------------------------------------
    # cross-process state transfer (worker registries -> parent /metrics)

    def export_state(self) -> dict[str, Any]:
        """The whole registry as plain picklable data.

        ``{name: {type, help, config, samples}}`` with every sample
        projected through the family's ``_export`` — the input of
        :meth:`delta_state` and :meth:`fold_state`.  Worker processes
        snapshot around a unit of work and ship the delta home.
        """
        return {
            name: {
                "type": metric.metric_type,
                "help": metric.help,
                "config": metric.config(),
                "samples": {
                    key: metric._export(value)
                    for key, value in metric._samples.items()
                },
            }
            for name, metric in self._metrics.items()
        }

    @staticmethod
    def delta_state(
        before: Mapping[str, Any], after: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Per-family, per-label increments between two exported states.

        Counters/histograms/sketches diff additively; gauges ship their
        latest absolute value.  Unchanged samples and empty families are
        dropped, keeping the pickled payload minimal.
        """
        delta: dict[str, Any] = {}
        for name, fam in after.items():
            cls = METRIC_TYPES.get(fam["type"])
            if cls is None:
                continue
            prior = before.get(name, {}).get("samples", {})
            changed = {}
            for key, payload in fam["samples"].items():
                d = cls.diff(prior.get(key), payload)
                if d is not None:
                    changed[key] = d
            if changed:
                delta[name] = {
                    "type": fam["type"],
                    "help": fam["help"],
                    "config": fam["config"],
                    "samples": changed,
                }
        return delta

    def fold_state(self, delta: Mapping[str, Any]) -> None:
        """Apply a :meth:`delta_state` payload to this registry.

        Families are created on first sight with the shipped help text
        and config (bucket bounds, sketch resolution), so the parent
        exposition matches the workers' without pre-registration.
        """
        for name, fam in delta.items():
            cls = METRIC_TYPES.get(fam["type"])
            if cls is None:
                raise ValueError(
                    f"cannot fold unknown metric type {fam['type']!r} "
                    f"for {name!r}"
                )
            metric = self._get_or_create(
                cls, name, fam["help"], **_config_kwargs(fam["config"])
            )
            if metric.config() != fam["config"]:
                raise ValueError(
                    f"metric {name!r}: cannot fold config {fam['config']} "
                    f"into existing {metric.config()}"
                )
            for key, payload in fam["samples"].items():
                metric.fold(key, payload)

    def render_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format.

        ``# HELP`` / ``# TYPE`` headers per family; counters and gauges
        emit one sample line per label set; histograms emit cumulative
        ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``.  The
        output ends with a newline, as scrapers expect.
        """
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            # Prometheus has no sketch type; quantile-labelled series are
            # the summary exposition, so render sketches as summaries.
            prom_type = (
                "summary" if isinstance(metric, QuantileSketch)
                else metric.metric_type
            )
            lines.append(f"# TYPE {name} {prom_type}")
            if isinstance(metric, QuantileSketch):
                for key, state in sorted(metric._samples.items(), key=repr):
                    labels = dict(key)
                    for q in metric.QUANTILES:
                        value = metric._state_quantile(state, q)
                        lines.append(
                            f"{name}{_fmt_labels({**labels, 'quantile': q})}"
                            f" {_fmt_value(value)}"
                        )
                    lines.append(
                        f"{name}_sum{_fmt_labels(labels)} "
                        f"{_fmt_value(state['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_fmt_labels(labels)} "
                        f"{state['count']}"
                    )
            elif isinstance(metric, Histogram):
                for key, state in sorted(metric._samples.items(), key=repr):
                    labels = dict(key)
                    running = 0
                    for bound, n in zip(metric.bounds, state["counts"]):
                        running += n
                        lines.append(
                            f"{name}_bucket"
                            f"{_fmt_labels({**labels, 'le': f'{bound:g}'})}"
                            f" {running}"
                        )
                    total = running + state["counts"][-1]
                    lines.append(
                        f"{name}_bucket{_fmt_labels({**labels, 'le': '+Inf'})}"
                        f" {total}"
                    )
                    lines.append(
                        f"{name}_sum{_fmt_labels(labels)} {_fmt_value(state['sum'])}"
                    )
                    lines.append(f"{name}_count{_fmt_labels(labels)} {total}")
            else:
                for key, value in sorted(metric._samples.items(), key=repr):
                    lines.append(
                        f"{name}{_fmt_labels(dict(key))} {_fmt_value(value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


#: metric_type discriminator -> class, for state-transfer payloads.
METRIC_TYPES: dict[str, type[_Metric]] = {
    cls.metric_type: cls
    for cls in (Counter, Gauge, Histogram, QuantileSketch)
}


def _config_kwargs(config: Mapping[str, Any]) -> dict[str, Any]:
    """Map an exported ``config()`` dict back to constructor kwargs."""
    out = dict(config)
    if "buckets" in out:
        out["buckets"] = tuple(out["buckets"])
    return out


_GLOBAL_REGISTRY: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use).

    Home for library-internal counters that outlive any single network —
    e.g. the columnsort schedule/BvN cache hit rates.  Call
    ``global_registry().reset()`` in tests that assert on deltas.
    """
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is None:
        _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
