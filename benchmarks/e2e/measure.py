"""Small statistics shared by the workload runners and the report."""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pass_rate(latencies: Sequence[float], size: int) -> float:
    """Median over consecutive passes of ``size`` queries of each pass's
    queries per second: a throughput that one stalled query moves less."""
    rates = [size / sum(latencies[i:i + size])
             for i in range(0, len(latencies) - size + 1, size)]
    return median(rates) if rates else len(latencies) / sum(latencies)


def kind_p50_geomean(latencies: Iterable[tuple[str, float]]) -> float:
    """Geometric mean over query kinds of each kind's median latency.

    A mix of kinds has one latency mode per kind, and the plain median
    of the mix lands between modes; a median per kind does not.
    """
    by_kind: dict[str, list] = defaultdict(list)
    for kind, value in latencies:
        by_kind[kind].append(value)
    logs = [math.log(median(v)) for v in by_kind.values()]
    return math.exp(sum(logs) / len(logs))


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    """Sample lines of a Prometheus text exposition."""
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            name, labels, value = match.groups()
            out.append((name, dict(_LABEL.findall(labels or "")),
                        float(value)))
    return out


def metric_sum(samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over the label sets matching ``labels``."""
    return sum(
        value for sample, have, value in samples
        if sample == name
        and all(have.get(k) == v for k, v in labels.items())
    )
