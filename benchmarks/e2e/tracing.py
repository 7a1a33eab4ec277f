"""In-memory spans recorded from the benchmark's side of each layer call.

A span is ``[name, start, end, parent, query, tid, extra]`` with
``perf_counter`` times.  Spans nest per thread; a span's self time is
its duration minus the durations of its direct children.  Spans are
written out only when the run ends (:func:`write_chrome_trace`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterable, Optional

NAME, START, END, PARENT, QUERY, TID, EXTRA = range(7)
#: Name of the spans around the benchmark's own work between queries.
DRIVER = "driver"


class SpanRecorder:
    """Per-thread span lists and parent stacks (no locks on the hot path)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: list[list] = []
        self._lists_lock = threading.Lock()

    def _state(self) -> dict:
        state = self._local.__dict__
        if "spans" not in state:
            state.update(spans=[], stack=[], query=None,
                         tid=threading.get_ident())
            with self._lists_lock:
                self._lists.append(state["spans"])
        return state

    def set_query(self, query: Any) -> None:
        """Tag spans opened from now on (in this thread) with ``query``."""
        self._state()["query"] = query

    def begin(self, name: str) -> list:
        state = self._state()
        stack = state["stack"]
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, state["query"], state["tid"],
                None]
        state["spans"].append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._state()["stack"].pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name: str, fn: Callable,
             counter: Optional[Callable] = None) -> Callable:
        """``fn``, recording one span per call.

        With ``counter``, the span's extra field holds how much
        ``counter(*args)`` grew across the call (e.g. model cycles).
        """
        def traced(*args, **kwargs):
            before = counter(*args) if counter else None
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
                if counter:
                    span[EXTRA] = counter(*args) - before

        return traced

    def spans(self) -> list[list]:
        with self._lists_lock:
            return [span for spans in self._lists for span in spans]


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name."""
    child = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child[id(span[PARENT])] += span[END] - span[START]
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[NAME]] += span[END] - span[START] - child[id(span)]
    return dict(out)


def totals(spans: list[list]) -> dict[str, tuple[float, int]]:
    """``name -> (total seconds, calls)``."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        acc = out[span[NAME]]
        acc[0] += span[END] - span[START]
        acc[1] += 1
    return {name: (acc[0], acc[1]) for name, acc in out.items()}


def driver_span(recorder: Optional[SpanRecorder]):
    """A :data:`DRIVER` span around the benchmark's own work between
    queries (building inputs, checking outputs); nothing when untraced."""
    return recorder.span(DRIVER) if recorder else nullcontext()


def reconcile(spans: list[list], wall_s: float, root: str) -> dict[str, Any]:
    """Check that the measured parts of the traced window add up to it.

    ``wall_s`` is the traced wall time summed over threads.  The parts
    are the layer self times, the self time of the per-query ``root``
    spans (the query's time outside every layer span) and the driver's
    own work, timed in :data:`DRIVER` spans.  Whatever the window spent
    outside all of them, or any overlap between them, shows as the
    relative ``error``.  Returns the self seconds per layer, the
    unattributed seconds (root self plus driver time) and the error.
    """
    selfs = self_times(spans)
    unattributed = selfs.pop(root, 0.0) + selfs.pop(DRIVER, 0.0)
    total = sum(selfs.values()) + unattributed
    return {
        "layers": selfs,
        "unattributed_s": unattributed,
        "error": abs(wall_s - total) / wall_s if wall_s > 0 else 0.0,
    }


def write_chrome_trace(path, spans: list[list],
                       extra: Iterable[tuple] = ()) -> None:
    """Write spans as Chrome trace-event JSON (complete "X" events).

    ``extra`` adds ``(name, start, end, lane, query)`` tuples on the
    same ``perf_counter`` clock, drawn in process 2 (e.g. server-side
    queue and execution intervals).
    """
    extra = list(extra)
    starts = [s[START] for s in spans] + [e[1] for e in extra]
    base = min(starts, default=0.0)
    tids = {tid: i for i, tid in enumerate(sorted({s[TID] for s in spans}))}

    def event(name, start, end, pid, tid, query):
        return {"name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
                "args": {"query": query}}

    events = [event(s[NAME], s[START], s[END], 1, tids[s[TID]], s[QUERY])
              for s in spans]
    events += [event(name, start, end, 2, lane, query)
               for name, start, end, lane, query in extra]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
