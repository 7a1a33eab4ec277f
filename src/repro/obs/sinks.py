"""Event sinks: plain writers for observability events.

A sink consumes event dicts (or anything with a ``to_dict()``) and
writes them somewhere.  Sinks do no routing, buffering or failure
isolation of their own: engines deliver events to observers (see
:mod:`repro.obs.hooks`), and whoever owns a sink calls ``emit`` —
``repro profile --events/--csv`` over the profiler's recorded events,
the job service for lifecycle events (counting, not raising, a failed
emit).  Three built-ins:

* :class:`MemorySink` — keep events in process;
* :class:`JsonlSink` — one JSON object per line (machine-readable runs,
  the service's ``--events-jsonl`` stream);
* :class:`CsvSink` — flat spreadsheet-friendly projection.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union


def _as_dict(event: Any) -> Mapping[str, Any]:
    """Accept ObsEvent-likes (``to_dict``) and plain mappings alike."""
    if isinstance(event, Mapping):
        return event
    to_dict = getattr(event, "to_dict", None)
    if to_dict is None:
        raise TypeError(
            f"sink received {event!r}; expected a mapping or an object "
            "with to_dict()"
        )
    return to_dict()


class Sink:
    """Base sink: override :meth:`emit`; ``flush``/``close`` are optional."""

    def emit(self, event: Any) -> None:
        """Consume one event (a mapping or an object with ``to_dict``)."""
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - default no-op
        """Push any buffered output downstream (default: nothing)."""

    def close(self) -> None:  # pragma: no cover - default no-op
        """Release resources; the sink must not be used afterwards."""

    # Sinks are context managers so the profiler/CLI can scope them.
    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemorySink(Sink):
    """Keep every emitted event in memory."""

    def __init__(self) -> None:
        self._items: list[Any] = []

    def emit(self, event: Any) -> None:
        """Append the event."""
        self._items.append(event)

    @property
    def events(self) -> list[Any]:
        """Buffered events, oldest first."""
        return list(self._items)

    def clear(self) -> None:
        """Forget every buffered event."""
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)


class JsonlSink(Sink):
    """Write one compact JSON object per event line.

    ``target`` may be a path (opened lazily, owned and closed by the
    sink) or any writable text file object (borrowed — ``close()``
    flushes but does not close it).  ``mode`` selects truncate (``"w"``,
    the default) or append (``"a"`` — used by the benchmark recorder so
    result files accumulate a run-over-run trajectory).
    """

    def __init__(
        self,
        target: Union[str, Path, io.TextIOBase, Any],
        *,
        mode: str = "w",
    ):
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self._path: Optional[Path] = None
        self._fh: Optional[Any] = None
        self._owns_fh = False
        self._mode = mode
        if isinstance(target, (str, Path)):
            self._path = Path(target)
        else:
            self._fh = target
        self.count = 0

    def _handle(self):
        if self._fh is None:
            assert self._path is not None
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self._path.open(self._mode, encoding="utf-8")
            self._owns_fh = True
        return self._fh

    def emit(self, event: Any) -> None:
        """Serialize the event as one compact JSON line."""
        payload = _as_dict(event)
        self._handle().write(
            json.dumps(payload, separators=(",", ":"), default=str) + "\n"
        )
        self.count += 1

    def flush(self) -> None:
        """Flush the underlying file handle, if open."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush, then close the file if this sink opened it."""
        if self._fh is not None:
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
                self._fh = None


class CsvSink(Sink):
    """Flatten events onto a fixed column set; unknown fields go to ``extra``.

    The header is written on first emit from ``COLUMNS`` (the union of
    the core event schema).  Fields outside the column set are
    JSON-packed into the ``extra`` column so no information is lost.
    """

    COLUMNS = (
        "kind",
        "phase",
        "cycle",
        "channel",
        "writer",
        "readers",
        "msg_kind",
        "bits",
        "cycles",
        "messages",
        "utilization",
    )

    def __init__(self, target: Union[str, Path, io.TextIOBase, Any]):
        self._path: Optional[Path] = None
        self._fh: Optional[Any] = None
        self._owns_fh = False
        if isinstance(target, (str, Path)):
            self._path = Path(target)
        else:
            self._fh = target
        self._writer: Optional[csv.DictWriter] = None
        self.count = 0

    def _ensure_writer(self) -> csv.DictWriter:
        if self._writer is None:
            if self._fh is None:
                assert self._path is not None
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self._path.open("w", encoding="utf-8", newline="")
                self._owns_fh = True
            self._writer = csv.DictWriter(
                self._fh, fieldnames=list(self.COLUMNS) + ["extra"]
            )
            self._writer.writeheader()
        return self._writer

    def emit(self, event: Any) -> None:
        """Write the event as one CSV row (header on first emit)."""
        payload = dict(_as_dict(event))
        row = {}
        for col in self.COLUMNS:
            value = payload.pop(col, "")
            if isinstance(value, (tuple, list)):
                value = " ".join(str(v) for v in value)
            row[col] = value
        row["extra"] = (
            json.dumps(payload, separators=(",", ":"), default=str)
            if payload
            else ""
        )
        self._ensure_writer().writerow(row)
        self.count += 1

    def flush(self) -> None:
        """Flush the underlying file handle, if open."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush, then close the file if this sink opened it."""
        if self._fh is not None:
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
                self._fh = None
