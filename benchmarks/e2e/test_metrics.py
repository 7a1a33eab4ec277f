"""How the benchmark turns records and spans into metrics.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import math
from dataclasses import replace

from reference import NOMINAL_S, SENSITIVITY
from sim import Record, e2e_metrics
from svc import Pass
from tracing import DRIVER, reconcile
from workloads import WORKLOADS, model_size, query_seed


def records(kinds=("a", "b"), passes=4):
    out = []
    for i in range(passes * len(kinds)):
        out.append(Record(i, kinds[i % len(kinds)], 0.01 * (1 + i % 3),
                          100 + i, 400 + i, None, None))
    return out


def test_failed_queries_stay_out_of_the_metrics():
    good = records()
    failed = Record(len(good), "a", 1e-6, 0, 0, "RuntimeError: boom", None)
    with_failure = e2e_metrics(good + [failed], 2, len(good) + 1, 0.5)
    assert with_failure == e2e_metrics(good, 2, len(good) + 1, 0.5)


#: How much longer the program takes on a host that runs the reference
#: kernel twice as slowly.
SLOWDOWN = 2 ** SENSITIVITY


def test_a_slower_host_reads_the_same():
    """Latencies ``SLOWDOWN`` times as long, next to a reference kernel
    twice as slow, give the same timing metrics: the host's speed
    cancels."""
    base = records()
    slow = [replace(r, latency_s=SLOWDOWN * r.latency_s,
                    host_s=2 * NOMINAL_S) for r in base]
    fast, slowed = e2e_metrics(base, 2, 4, 0.5), e2e_metrics(slow, 2, 4, 0.5)
    for name in ("throughput_qps", "latency_p50_ms", "latency_p90_ms"):
        assert math.isclose(fast[name], slowed[name]), name
    assert math.isclose(slowed["raw.throughput_qps"],
                        fast["raw.throughput_qps"] / SLOWDOWN)


def test_service_passes_scale_by_the_reference():
    assert math.isclose(Pass(100, 1.0, NOMINAL_S).rate, 100.0)
    assert math.isclose(Pass(100, SLOWDOWN, 2 * NOMINAL_S).rate, 100.0)


def test_no_returned_query_gives_no_numbers():
    failed = [Record(i, "a", 1e-6, 0, 0, "RuntimeError: boom", None)
              for i in range(4)]
    metrics = e2e_metrics(failed, 1, 4, 0.5)
    assert math.isnan(metrics["throughput_qps"])
    assert math.isnan(metrics["model_cycles_per_query"])


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0, 1, None]


def test_reconcile_accounts_for_every_part():
    query = span("query", 0.0, 1.0)
    spans = [query, span("sort", 0.25, 0.75, query),
             span(DRIVER, 1.0, 1.5)]
    rec = reconcile(spans, 1.5, root="query")
    assert rec["layers"] == {"sort": 0.5}
    assert rec["unattributed_s"] == 1.0
    assert math.isclose(rec["error"], 0.0, abs_tol=1e-12)


def test_reconcile_reports_time_no_span_covers():
    query = span("query", 0.0, 1.0)
    spans = [query, span("sort", 0.2, 0.6, query)]
    assert math.isclose(reconcile(spans, 2.0, root="query")["error"], 0.5)


def test_model_sample_ignores_the_run_seed():
    for workload in WORKLOADS:
        n = model_size(workload)
        assert ([query_seed(1, workload, i) for i in range(n)]
                == [query_seed(2, workload, i) for i in range(n)])
        if workload != "svc-cached":  # whose pool is all model sample
            assert query_seed(1, workload, n) != query_seed(2, workload, n)
