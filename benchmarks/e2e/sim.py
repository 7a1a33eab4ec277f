"""Simulator workloads: the library's sort and select entry points called
in this process, one query at a time (closed loop, one thread).

Only the call into the library is timed.  Building the next input and
checking the last output happen between calls, outside the timing.
After every pass over the kinds the reference kernel gauges the host's
speed, and the pass's latencies are scaled by it (``reference.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import checks
import measure
from reference import NOMINAL_S, reference_s, scaled, settled_reference_s
from tracing import EXTRA, NAME, SpanRecorder, driver_span, reconcile, totals
from workloads import SIM_KINDS, model_size, sim_query


@dataclass
class Record:
    """One query's outcome."""

    index: int
    kind: str
    latency_s: float
    cycles: int
    messages: int
    error: str | None  # the call raised
    mismatch: str | None  # the output check failed
    host_s: float = NOMINAL_S  # reference kernel time after its pass

    @property
    def scaled_s(self) -> float:
        """Latency at the reference host speed."""
        return scaled(self.latency_s, self.host_s)


class SimRunner:
    """Runs one simulator workload; see :func:`run`."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.kinds = SIM_KINDS[workload]

    def setup(self) -> list[Record]:
        """Import the library and run one warm-up query of every kind,
        so lazy set-up (imports, plan compiles) lands in set-up time."""
        from repro import MCBNetwork, mcb_select, mcb_sort
        from repro.sort.vector import sort_even_pk_batch

        self.network = MCBNetwork
        self.entry = {"sort": mcb_sort, "select": mcb_select,
                      "batch": sort_even_pk_batch}
        return [self._one(sim_query(self.workload, self.seed, i, warmup=True))
                for i in range(len(self.kinds))]

    def _call(self, q):
        """The timed call; returns (answer, cycles, messages)."""
        kind = q.kind
        if kind.op == "batch":
            out = self.entry["batch"](kind.k, q.parts, backend=kind.backend)
            return (out.results, sum(s.cycles for s in out.stats),
                    sum(s.messages for s in out.stats))
        net = self.network(kind.p, kind.k)
        if kind.op == "sort":
            out = self.entry["sort"](net, q.parts, engine=kind.engine,
                                     backend=kind.backend).output
        else:
            out = self.entry["select"](net, q.parts, q.rank,
                                       engine=kind.engine).value
        return out, net.stats.cycles, net.stats.messages

    @staticmethod
    def _check(q, answer) -> str | None:
        if q.kind.op == "sort":
            return checks.check_sort(q.parts, answer)
        if q.kind.op == "select":
            return checks.check_select(q.parts, q.rank, answer)
        for lane, (parts, result) in enumerate(zip(q.parts, answer)):
            problem = checks.check_sort(parts, result.output)
            if problem:
                return f"lane {lane}: {problem}"
        return None

    def _one(self, q, recorder: SpanRecorder | None = None) -> Record:
        if recorder is not None:
            recorder.set_query(q.index)
            root = recorder.begin("query")
        start = time.perf_counter()
        try:
            answer, cycles, messages = self._call(q)
        except Exception as exc:  # a failed query is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            answer, cycles, messages = None, 0, 0
        else:
            error = None
        latency = time.perf_counter() - start
        if recorder is not None:
            recorder.end(root)
        with driver_span(recorder):
            mismatch = None if error else self._check(q, answer)
            return Record(q.index, q.kind.name, latency, cycles, messages,
                          error, mismatch)

    def window(self, seconds: float, start: int, min_queries: int,
               recorder: SpanRecorder | None = None):
        """Run queries from index ``start`` until ``seconds`` have passed,
        ending on a whole pass over the kinds; returns (records, wall).
        Each pass is followed by one reference kernel call, whose time
        every record of the pass keeps."""
        records: list[Record] = []
        kinds = len(self.kinds)
        began = time.perf_counter()
        index = start
        while True:
            with driver_span(recorder):
                q = sim_query(self.workload, self.seed, index)
            records.append(self._one(q, recorder))
            index += 1
            done = index - start
            if done % kinds:
                continue
            with driver_span(recorder):
                host_s = reference_s()
            for record in records[-kinds:]:
                record.host_s = host_s
            if done >= min_queries and time.perf_counter() - began >= seconds:
                return records, time.perf_counter() - began

    # ------------------------------------------------------------------
    # tracing

    def install_spans(self, recorder: SpanRecorder):
        """Wrap each layer's public entry points; returns an undo."""
        from repro.mcb.network import MCBNetwork
        from repro.mcb.vector.cache import PlanRegistry
        from repro.mcb.vector.executor import VectorRun

        saved_entry = dict(self.entry)
        patched = [
            (MCBNetwork, "run", "network.run",
             lambda net, *a, **k: net.stats.cycles),
            (PlanRegistry, "lookup", "vector.plan", None),
            (VectorRun, "execute", "vector.exec", None),
            (VectorRun, "execute_fused", "vector.exec", None),
            (VectorRun, "finish", "vector.exec", None),
        ]
        originals = [(cls, attr, cls.__dict__[attr])
                     for cls, attr, _, _ in patched]
        for (cls, attr, fn), (_, _, name, counter) in zip(originals, patched):
            setattr(cls, attr, recorder.wrap(name, fn, counter))
        self.entry = {
            "sort": recorder.wrap("sort", saved_entry["sort"]),
            "select": recorder.wrap("select", saved_entry["select"]),
            "batch": recorder.wrap("sort", saved_entry["batch"]),
        }

        def undo():
            for cls, attr, fn in originals:
                setattr(cls, attr, fn)
            self.entry = saved_entry

        return undo


def _registry_samples():
    from repro.obs.metrics import global_registry

    return measure.parse_prometheus(global_registry().render_prometheus())


def _plan_counts(samples) -> dict[str, float]:
    return {
        result: measure.metric_sum(samples, "vector_plan_cache_total",
                                   result=result)
        for result in ("hit", "disk_hit", "miss")
    }


def _qps(records: list[Record], kinds: int) -> float:
    return measure.pass_rate([r.scaled_s for r in records if not r.error],
                             kinds)


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool, started: float) -> dict:
    """Set up, measure and check one simulator workload.

    ``started`` is the ``perf_counter`` reading at process start, so
    set-up time covers the library import.  With ``trace`` the window
    is split: an untraced half, then a traced half for the layers.
    """
    runner = SimRunner(workload, seed)
    warm = runner.setup()
    setup_s = scaled(time.perf_counter() - started, settled_reference_s())
    model_n = model_size(workload, quick)
    plain_s = seconds / 2 if trace else seconds
    records, _ = runner.window(plain_s, 0, model_n)

    layers, spans = None, []
    traced: list[Record] = []
    if trace:
        recorder = SpanRecorder()
        before = _plan_counts(_registry_samples())
        undo = runner.install_spans(recorder)
        try:
            traced, wall = runner.window(seconds / 2, len(records), 0,
                                         recorder)
        finally:
            undo()
        spans = recorder.spans()
        layers = _layers(spans, traced, wall, records, before,
                         len(runner.kinds))

    return {
        "setup_s": setup_s,
        "e2e": e2e_metrics(records, len(runner.kinds), model_n, setup_s),
        "layers": layers,
        "spans": spans,
        "attempted": len(records) + len(traced),
        "failed": sum(1 for r in records + traced if r.error),
        "failures": (describe(workload, warm, "error", "warm-up query")
                     + describe(workload, records + traced, "error")),
        "mismatches": (describe(workload, warm, "mismatch", "warm-up query")
                       + describe(workload, records + traced, "mismatch")),
    }


def e2e_metrics(records: list[Record], kinds: int, model_n: int,
                setup_s: float) -> dict:
    """End-to-end metrics over the queries that returned.  A query that
    raised is a failure, not a fast query with no cycles: it is left
    out here and fails the run (NaN when no query returned)."""
    ok = [r for r in records if not r.error]
    model = [r for r in ok if r.index < model_n]
    if not ok or not model:
        return {**dict.fromkeys(
            ("throughput_qps", "latency_p50_ms", "latency_p90_ms",
             "latency_p99_ms", "model_cycles_per_query",
             "model_messages_per_query", "raw.throughput_qps",
             "host.reference_ms"), float("nan")), "setup_s": setup_s}
    latencies = [r.scaled_s for r in ok]
    return {
        "throughput_qps": _qps(ok, kinds),
        "latency_p50_ms": 1e3 * measure.kind_p50_geomean(
            (r.kind, r.scaled_s) for r in ok),
        "latency_p90_ms": 1e3 * measure.percentile(latencies, 90),
        "latency_p99_ms": 1e3 * measure.percentile(latencies, 99),
        "setup_s": setup_s,
        "model_cycles_per_query": sum(r.cycles for r in model) / len(model),
        "model_messages_per_query":
            sum(r.messages for r in model) / len(model),
        "raw.throughput_qps": measure.pass_rate(
            [r.latency_s for r in ok], kinds),
        "host.reference_ms": 1e3 * measure.median([r.host_s for r in ok]),
    }


def describe(workload: str, records: list[Record], field: str,
             what: str = "query") -> list:
    return [f"{workload} {what} {r.index} ({r.kind}): {getattr(r, field)}"
            for r in records if getattr(r, field)]


def _layers(spans, traced, wall, plain, plan_before, kinds) -> dict:
    queries = len(traced)
    rec = reconcile(spans, wall, root="query")
    tot = totals(spans)

    def total(name):
        return tot.get(name, (0.0, 0))

    net_s, net_calls = total("network.run")
    net_cycles = sum(s[EXTRA] for s in spans if s[NAME] == "network.run")
    scrape = []
    for _ in range(5):
        t0 = time.perf_counter()
        samples = _registry_samples()
        scrape.append(time.perf_counter() - t0)
    plan = _plan_counts(samples)
    selfs = rec["layers"]
    return {
        "network.run.ms_per_query": 1e3 * net_s / queries,
        "network.run.calls_per_query": net_calls / queries,
        "network.cycles_per_s": net_cycles / net_s if net_s else 0.0,
        "sort.self_ms_per_query": 1e3 * selfs.get("sort", 0.0) / queries,
        "select.self_ms_per_query":
            1e3 * selfs.get("select", 0.0) / queries,
        "vector.plan.hits": (plan["hit"] - plan_before["hit"]) / queries,
        "vector.plan.disk_hits": plan["disk_hit"],
        "vector.plan.misses": plan["miss"],
        "vector.plan.compile_s": measure.metric_sum(
            samples, "vector_plan_compile_seconds"),
        "vector.plan.fetch_ms_per_query":
            1e3 * total("vector.plan")[0] / queries,
        "vector.exec.ms_per_query": 1e3 * total("vector.exec")[0] / queries,
        "vector.exec.calls_per_query": total("vector.exec")[1] / queries,
        "obs.metrics.scrape_ms": 1e3 * measure.median(scrape),
        "obs.metrics.series": len(samples),
        "host.reference_ms": 1e3 * measure.median([r.host_s for r in traced]),
        "trace.throughput_qps": _qps(traced, kinds),
        "trace.overhead_pct":
            100 * (_qps(plain, kinds) / _qps(traced, kinds) - 1),
        "trace.unattributed_pct": 100 * rec["unattributed_s"] / wall,
        "trace.reconcile_error_pct": 100 * rec["error"],
    }
