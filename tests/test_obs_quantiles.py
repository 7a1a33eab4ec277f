"""Property tests for the mergeable metrics fold protocol.

The cross-process observability story rests on two algebraic claims:

* **merge-of-parts equals whole** — observing a stream into one sketch
  (or histogram) gives the same state as partitioning the stream,
  observing each part separately, and merging/folding the parts.  This
  is what lets the service fold per-worker registries into ``/metrics``
  without double counting or loss.
* **bounded quantile error** — a :class:`~repro.obs.metrics.QuantileSketch`
  estimate is within ``relative_error`` of the true order statistic,
  for any input distribution.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)

#: Latency-like magnitudes spanning several decades, away from the
#: underflow clamp at min_value=1e-6.
values_st = st.lists(
    st.floats(min_value=1e-4, max_value=1e4,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


def _sketch_of(values, **config) -> QuantileSketch:
    sketch = QuantileSketch("s", **config)
    for v in values:
        sketch.observe(v)
    return sketch


class TestSketchMerge:
    @given(values=values_st, cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_merge_of_parts_equals_whole(self, values, cut):
        cut = min(cut, len(values))
        whole = _sketch_of(values)
        left = _sketch_of(values[:cut])
        right = _sketch_of(values[cut:])
        left.merge(right)

        w = whole._samples[()]
        m = left._samples[()]
        assert m["counts"] == w["counts"]
        assert m["count"] == w["count"]
        assert m["min"] == w["min"] and m["max"] == w["max"]
        # float accumulation order differs between the two paths
        assert m["sum"] == pytest.approx(w["sum"], rel=1e-9)
        for q in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0):
            assert left.quantile(q) == whole.quantile(q)

    @given(values=values_st,
           parts=st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_order_independent(self, values, parts):
        chunks = [values[i::parts] for i in range(parts)]
        forward = QuantileSketch("f")
        backward = QuantileSketch("b")
        for chunk in chunks:
            forward.merge(_sketch_of(chunk))
        for chunk in reversed(chunks):
            backward.merge(_sketch_of(chunk))
        f, b = forward._samples[()], backward._samples[()]
        assert f["counts"] == b["counts"]
        assert f["count"] == b["count"]
        assert f["min"] == b["min"] and f["max"] == b["max"]
        assert f["sum"] == pytest.approx(b["sum"], rel=1e-9)

    def test_merge_rejects_config_mismatch(self):
        a = QuantileSketch("a", buckets_per_decade=32)
        b = QuantileSketch("b", buckets_per_decade=16)
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(b)

    @given(values=values_st)
    @settings(max_examples=60, deadline=None)
    def test_quantiles_within_relative_error(self, values):
        sketch = _sketch_of(values)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99, 0.999):
            estimate = sketch.quantile(q)
            # Same rank convention as the sketch walk.
            truth = ordered[max(1, math.ceil(q * len(ordered))) - 1]
            # A value on a bucket's lower edge sits *exactly*
            # relative_error away from the geometric midpoint, so give
            # the equality case room for float rounding.
            assert (
                abs(estimate - truth)
                <= sketch.relative_error * truth * (1 + 1e-9)
            )

    @given(values=values_st)
    @settings(max_examples=30, deadline=None)
    def test_quantiles_monotone_and_clamped(self, values):
        sketch = _sketch_of(values)
        qs = [sketch.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert min(values) <= qs[0] and qs[-1] <= max(values)

    def test_underflow_bucket_clamps(self):
        sketch = QuantileSketch("s", min_value=1e-6)
        sketch.observe(0.0)
        sketch.observe(-5.0)
        assert sketch.count() == 2
        assert sketch.quantile(0.5) == 0.0  # clamped into [min, max]


class TestHistogramFold:
    @given(values=st.lists(st.floats(min_value=0, max_value=500,
                                     allow_nan=False),
                           min_size=1, max_size=100),
           cut=st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_fold_of_parts_equals_whole(self, values, cut):
        cut = min(cut, len(values))
        buckets = (1, 10, 100)

        def hist_of(vals):
            h = Histogram("h", buckets=buckets)
            for v in vals:
                h.observe(v)
            return h

        whole = hist_of(values)
        merged = hist_of(values[:cut])
        part = hist_of(values[cut:])
        for key, state in part._samples.items():
            merged.fold(key, part._export(state))
        w, m = whole._samples[()], merged._samples[()]
        assert m["counts"] == w["counts"]
        assert m["count"] == w["count"]
        assert m["sum"] == pytest.approx(w["sum"], rel=1e-9)

    def test_fold_rejects_bucket_mismatch(self):
        a = Histogram("a", buckets=(1, 2, 3))
        b = Histogram("b", buckets=(1, 2))
        b.observe(1.5)
        state = b._samples[()]
        with pytest.raises(ValueError):
            a.fold((), b._export(state))


class TestRegistryDeltaFold:
    """The wire protocol the service's metered executors use."""

    @staticmethod
    def _work(reg: MetricsRegistry, rounds: int) -> None:
        reg.counter("jobs_total", "jobs").inc(rounds, status="done")
        reg.gauge("depth", "queue depth").set(rounds)
        hist = reg.histogram("wall", "wall", buckets=(1, 10))
        sketch = reg.sketch("lat", "latency")
        for i in range(rounds):
            hist.observe(i % 12)
            sketch.observe(0.001 * (i + 1), algorithm="sort")

    @given(before_rounds=st.integers(min_value=0, max_value=20),
           after_rounds=st.integers(min_value=1, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_delta_folds_increments_only(self, before_rounds, after_rounds):
        worker = MetricsRegistry()
        self._work(worker, before_rounds)
        before = worker.export_state()
        self._work(worker, after_rounds)
        delta = MetricsRegistry.delta_state(before, worker.export_state())

        # The delta is what crosses the process boundary.
        delta = pickle.loads(pickle.dumps(delta))

        parent = MetricsRegistry()
        self._work(parent, 5)  # pre-existing activity must be preserved
        parent.fold_state(delta)

        assert parent.get("jobs_total").get(status="done") == 5 + after_rounds
        # Gauges ship absolute values, and only when they moved between
        # the snapshots; otherwise the parent's own value stands.
        expected_depth = (
            after_rounds if after_rounds != before_rounds else 5
        )
        assert parent.get("depth").get() == expected_depth
        sketch = parent.get("lat")
        assert sketch.count(algorithm="sort") == 5 + after_rounds
        hist_state = parent.get("wall")._samples[()]
        assert hist_state["count"] == 5 + after_rounds

    def test_unchanged_families_ship_nothing(self):
        reg = MetricsRegistry()
        self._work(reg, 3)
        state = reg.export_state()
        assert MetricsRegistry.delta_state(state, state) == {}

    def test_fold_creates_unseen_families_with_config(self):
        worker = MetricsRegistry()
        worker.sketch("w_lat", "worker latency",
                      buckets_per_decade=16).observe(0.5)
        delta = MetricsRegistry.delta_state({}, worker.export_state())
        parent = MetricsRegistry()
        parent.fold_state(delta)
        sketch = parent.get("w_lat")
        assert sketch.buckets_per_decade == 16
        assert sketch.count() == 1

    def test_fold_rejects_conflicting_config(self):
        worker = MetricsRegistry()
        worker.sketch("lat", "x", buckets_per_decade=16).observe(1.0)
        delta = MetricsRegistry.delta_state({}, worker.export_state())
        parent = MetricsRegistry()
        parent.sketch("lat", "x", buckets_per_decade=32).observe(1.0)
        with pytest.raises(ValueError):
            parent.fold_state(delta)
