"""Service workloads: a ``python -m repro serve`` subprocess driven over
plain HTTP by one client connection in a closed loop.

The client posts a job, polls ``GET /jobs/{id}`` every ``POLL_S``
seconds until it is terminal, then takes the next job.  A job's latency
runs from sending the POST to reading the terminal status.  The window
runs in passes (one job of every kind; for svc-cached, every pool job
once); after each pass, while the server idles, the reference kernel
gauges the host's speed and the pass's timings are scaled by it
(``reference.py``).  The server and its pool inherit the workload
process's single CPU (see ``child.py``).
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks
import measure
from reference import NOMINAL_S, reference_s, scaled, settled_reference_s
from tracing import SpanRecorder, driver_span, reconcile
from workloads import (
    DISTINCT, SERVICE_KINDS, SERVICE_PREWARM, job_spec, model_size,
    pool_order,
)

WORKERS = 2
POLL_S = 0.001
JOB_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "aborted")


# ---------------------------------------------------------------------------
# the server process


def _children() -> dict[int, list[int]]:
    """Parent pid -> child pids, from /proc."""
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` process tree with fresh cache directories.

    The server leads its own process group, so stopping it can wait for
    (and if need be kill) every pool worker it spawned.
    """

    def __init__(self, root: Path, tmp: Path, env: dict):
        self.root, self.tmp, self.env = root, tmp, env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(WORKERS), "--executor", "process",
            "--cache-dir", str(self.tmp / "results"),
            "--plan-cache", str(self.tmp / "plans"),
        ]
        for shape in SERVICE_PREWARM:
            cmd += ["--prewarm", shape]
        with open(self.tmp / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True,
            )
        # The parent benchmark process reads this to clean up after a
        # crashed or timed-out workload process.
        with open(self.tmp.parent / "server-pgids", "a") as fh:
            fh.write(f"{self.proc.pid}\n")
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if not match:
            self.stop()
            log_text = (self.tmp / "server.log").read_text()[-2000:]
            raise RuntimeError(f"server did not boot: {line!r}\n{log_text}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus every descendant."""
        tree = _children()
        pids, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            todo.extend(tree.get(pid, ()))
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the whole group."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(pgid, signal.SIGKILL)
            self.proc.wait()
        finally:
            stop_group(pgid)
            self.proc.stdout.close()
            self.proc = None


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    pool workers that outlive the server are reaped here, not left as
    zombies under an init that may never reap them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_group(pgid: int, grace_s: float = 15.0) -> None:
    """Wait up to ``grace_s`` for process group ``pgid`` to end, reaping
    adopted members, then kill what is left and wait for it too."""
    deadline = time.monotonic() + grace_s
    sig = 0
    while True:
        _reap()
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL:
                raise RuntimeError(f"process group {pgid} survived SIGKILL")
            sig, deadline = signal.SIGKILL, time.monotonic() + 5.0
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# the client


def request(port: int, method: str, path: str,
            body: bytes = b"") -> tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection (the server closes)."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status, _, payload = raw.partition(b"\r\n\r\n")
    return int(status.split(b" ", 2)[1]), payload


@dataclass
class JobRecord:
    index: int
    kind: str
    spec: dict
    start: float = 0.0
    end: float = 0.0
    seen_wall: float = 0.0  # time.time() when the terminal status arrived
    polls: int = 0
    status: Optional[dict] = None
    error: Optional[str] = None
    http: list = field(default_factory=list)  # (name, start, end)
    host_s: float = NOMINAL_S  # reference kernel time after its pass

    @property
    def latency_s(self) -> float:
        return self.end - self.start

    @property
    def scaled_s(self) -> float:
        """Latency at the reference host speed."""
        return scaled(self.latency_s, self.host_s)


def run_job(port: int, index: int, kind: str, spec: dict,
            recorder: Optional[SpanRecorder] = None) -> JobRecord:
    """POST one job and poll it to a terminal state."""
    rec = JobRecord(index, kind, spec)

    def call(name, method, path, body=b""):
        span = recorder.begin(name) if recorder else None
        t0 = time.perf_counter()
        try:
            return request(port, method, path, body)
        finally:
            rec.http.append((name, t0, time.perf_counter()))
            if span:
                recorder.end(span)

    if recorder:
        recorder.set_query(index)
        root = recorder.begin("job")
    rec.start = time.perf_counter()
    try:
        code, body = call("http.post", "POST", "/jobs",
                          json.dumps(spec).encode())
        if code != 202:
            rec.error = f"POST /jobs answered {code}: {body[:200]!r}"
            return rec
        path = f"/jobs/{json.loads(body)['id']}"
        while True:
            code, body = call("http.get", "GET", path)
            rec.polls += 1
            if code != 200:
                rec.error = f"GET {path} answered {code}"
                return rec
            status = json.loads(body)
            if status["state"] in TERMINAL:
                rec.seen_wall = time.time()
                rec.status = status
                if status["state"] != "done":
                    rec.error = (f"job {status['state']}: "
                                 f"{status.get('error') or status.get('abort_reason')}")
                return rec
            if time.perf_counter() - rec.start > JOB_TIMEOUT_S:
                rec.error = f"job not done after {JOB_TIMEOUT_S:g}s"
                return rec
            span = recorder.begin("poll.wait") if recorder else None
            time.sleep(POLL_S)
            if span:
                recorder.end(span)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
        return rec
    finally:
        rec.end = time.perf_counter()
        if recorder:
            recorder.end(root)


def drive(port: int, spec_of: Callable[[int], tuple[str, dict]],
          start: int, count: int,
          recorder: Optional[SpanRecorder] = None,
          connections: int = WORKERS):
    """Closed loop over job indexes ``start .. start + count - 1`` on
    ``connections`` threads.  Returns (records, wall)."""
    lock = threading.Lock()
    nxt = [start]
    began = time.perf_counter()
    results: list[list[JobRecord]] = [[] for _ in range(connections)]
    ended = [began] * connections

    def take() -> Optional[int]:
        with lock:
            if nxt[0] - start >= count:
                return None
            nxt[0] += 1
            return nxt[0] - 1

    def loop(slot: int) -> None:
        while True:
            with driver_span(recorder):
                index = take()
                job = None if index is None else spec_of(index)
            if job is None:
                break
            results[slot].append(run_job(port, index, *job, recorder))
        ended[slot] = time.perf_counter()

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = sorted((r for rs in results for r in rs), key=lambda r: r.index)
    return records, max(ended) - began


@dataclass
class Pass:
    """One pass of a measured window."""

    done: int  # jobs that finished without error
    wall_s: float
    host_s: float  # reference kernel time right after the pass

    @property
    def rate(self) -> float:
        """Jobs per second at the reference host speed."""
        return self.done / scaled(self.wall_s, self.host_s)


def pass_size(workload: str) -> int:
    """Jobs per pass: one of every kind, or the whole svc-cached pool."""
    if workload == "svc-cached":
        return DISTINCT[workload]
    return len(SERVICE_KINDS)


def window(port: int, workload: str,
           spec_of: Callable[[int], tuple[str, dict]], start: int,
           seconds: float, min_jobs: int,
           recorder: Optional[SpanRecorder] = None):
    """Whole passes from job index ``start`` on one connection until
    ``seconds`` have passed and at least ``min_jobs`` jobs were taken,
    timing the reference kernel after each pass.  Returns (records,
    passes)."""
    size = pass_size(workload)
    records: list[JobRecord] = []
    passes: list[Pass] = []
    began = time.perf_counter()
    while (len(records) < min_jobs
           or time.perf_counter() - began < seconds):
        part, wall = drive(port, spec_of, start + len(records), size,
                           recorder, connections=1)
        host_s = reference_s()
        for rec in part:
            rec.host_s = host_s
        records += part
        passes.append(Pass(sum(1 for r in part if r.error is None), wall,
                           host_s))
    return records, passes


def pass_rate(passes: list[Pass]) -> float:
    """Median over passes of the scaled jobs per second."""
    return measure.median([p.rate for p in passes])


def scrape(port: int) -> tuple[list, float]:
    """Parsed ``/metrics`` samples and the scrape's round-trip seconds."""
    t0 = time.perf_counter()
    code, body = request(port, "GET", "/metrics")
    took = time.perf_counter() - t0
    if code != 200:
        raise RuntimeError(f"GET /metrics answered {code}")
    return measure.parse_prometheus(body.decode()), took


# ---------------------------------------------------------------------------
# the workload


class Checker:
    """Checks finished jobs against fingerprints the benchmark computes."""

    def __init__(self) -> None:
        self.known: dict[tuple, list[str]] = {}  # svc-cached repeats specs

    def problem(self, rec: JobRecord) -> Optional[str]:
        if rec.error or rec.status is None:
            return None  # counted as failed, not as wrong
        spec = rec.spec
        key = tuple(sorted(spec.items()))
        if key not in self.known:
            self.known[key] = [checks.expected_fingerprint(spec, lane)
                               for lane in range(spec.get("batch", 1))]
        return checks.check_job(spec, rec.status["result"], self.known[key])


def _boot(workload: str, seed: int, root: Path, tmp: Path, env: dict):
    """Start a server and warm it; returns (server, warm-up and pool
    records, pool records).

    Warm-up runs two passes over the job kinds from both connections,
    so both pool workers are spawned and every code path has run.
    svc-cached then fills its pool of distinct jobs once.
    """
    server = Server(root, tmp, env)
    server.start()
    warm = len(SERVICE_KINDS) * 2
    records, _ = drive(
        server.port, lambda i: job_spec(workload, seed, i, warmup=True),
        0, warm)
    pool: list[JobRecord] = []
    if workload == "svc-cached":
        pool, _ = drive(
            server.port, lambda i: job_spec(workload, seed, i), 0,
            DISTINCT[workload])
    return server, records + pool, pool


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool, root: Path, tmp: Path, env: dict) -> dict:
    """Boot, warm, measure and check one service workload."""
    started = time.perf_counter()
    server, warm, pool = _boot(workload, seed, root, tmp, env)
    setup_s = scaled(time.perf_counter() - started, settled_reference_s())
    try:
        if workload == "svc-cached":
            def spec_of(i):
                job = pool[pool_order(seed, len(pool), i)]
                return job.kind, job.spec
            model = pool
            model_n = 0
        else:
            def spec_of(i):
                return job_spec(workload, seed, i)
            model_n = model_size(workload, quick)
        plain_s = seconds / 2 if trace else seconds
        records, passes = window(server.port, workload, spec_of, 0, plain_s,
                                 model_n)
        if workload != "svc-cached":
            model = [r for r in records if r.index < model_n]

        layers, spans, extra, traced = None, [], [], []
        if trace:
            recorder = SpanRecorder()
            before, _ = scrape(server.port)
            clock = time.perf_counter() - time.time()
            traced, traced_passes = window(
                server.port, workload, spec_of, len(records), seconds / 2,
                0, recorder)
            spans = recorder.spans()
            layers = _layers(server.port, before, spans, traced,
                             traced_passes, passes)
            extra = _server_intervals(traced, clock)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    checker = Checker()
    measured = records + traced
    done = [r for r in records if r.error is None]
    latencies = [r.scaled_s for r in done]
    e2e = {
        "throughput_qps": pass_rate(passes),
        "latency_p50_ms": 1e3 * measure.kind_p50_geomean(
            (r.kind, r.scaled_s) for r in done),
        "latency_p90_ms": 1e3 * measure.percentile(latencies, 90),
        "latency_p99_ms": 1e3 * measure.percentile(latencies, 99),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "model_cycles_per_query": _mean_total(model, "cycles"),
        "model_messages_per_query": _mean_total(model, "messages"),
        "raw.throughput_qps": len(done) / sum(p.wall_s for p in passes),
        "host.reference_ms":
            1e3 * measure.median([p.host_s for p in passes]),
    }
    return {
        "setup_s": setup_s,
        "e2e": e2e,
        "layers": layers,
        "spans": spans,
        "trace_extra": extra,
        "attempted": len(records) + len(traced),
        "failed": sum(1 for r in records + traced if r.error),
        **_problems(workload, checker, warm, measured),
    }


def _problems(workload: str, checker: Checker, warm: list[JobRecord],
              measured: list[JobRecord]) -> dict:
    """Failed jobs and wrong answers, each naming its job."""
    named = [("set-up job", r) for r in warm] + [("job", r) for r in measured]
    failures, mismatches = [], []
    for what, r in named:
        name = f"{workload} {what} {r.index} ({r.kind}, seed {r.spec['seed']}): "
        if r.error:
            failures.append(name + r.error)
        elif problem := checker.problem(r):
            mismatches.append(name + problem)
    return {"failures": failures, "mismatches": mismatches}


def _mean_total(records: list[JobRecord], key: str) -> float:
    vals = [r.status["result"]["totals"][key] for r in records
            if r.error is None]
    return sum(vals) / len(vals) if vals else 0.0


def _server_intervals(records: list[JobRecord], clock: float) -> list:
    """Queue-wait and execution intervals from the job timestamps, on
    the client's ``perf_counter`` clock, for the Chrome trace."""
    out = []
    for r in records:
        s = r.status
        if r.error or s is None:
            continue
        out.append(("server.queue", s["submitted_at"] + clock,
                    s["started_at"] + clock, 0, r.index))
        out.append(("server.execute", s["started_at"] + clock,
                    s["finished_at"] + clock, 1, r.index))
    return out


def _layers(port, before, spans, traced, traced_passes,
            plain_passes) -> dict:
    scrapes = [scrape(port) for _ in range(5)]
    after = scrapes[0][0]
    done = [r for r in traced if r.error is None]
    jobs = len(done)

    def delta(name, **labels):
        return (measure.metric_sum(after, name, **labels)
                - measure.metric_sum(before, name, **labels))

    stamps = [r.status for r in done]
    waits = [s["started_at"] - s["submitted_at"] for s in stamps]
    walls = [s["finished_at"] - s["started_at"] for s in stamps]
    seen = [r.seen_wall - r.status["finished_at"] for r in done]
    posts = [e - s for r in done for n, s, e in r.http if n == "http.post"]
    gets = [e - s for r in done for n, s, e in r.http if n == "http.get"]
    lane_s = delta("service_lane_wall_seconds_sum")
    lanes = delta("service_lane_wall_seconds_count")
    job_wall_s = delta("service_job_wall_seconds_sum")
    job_count = delta("service_job_wall_seconds_count")
    hits = delta("bench_result_cache_total", result="hit")
    misses = delta("bench_result_cache_total", result="miss")
    wall = sum(p.wall_s for p in traced_passes)
    rec = reconcile(spans, wall, root="job")
    traced_qps = pass_rate(traced_passes)
    plain_qps = pass_rate(plain_passes)
    return {
        "service.http.post_ms": 1e3 * measure.median(posts),
        "service.http.get_ms": 1e3 * measure.median(gets),
        "service.http.polls_per_job": sum(r.polls for r in done) / jobs,
        "service.app.queue_wait_ms": 1e3 * measure.median(waits),
        "service.app.queue_wait_p99_ms":
            1e3 * measure.percentile(waits, 99),
        "service.app.job_wall_ms": 1e3 * measure.median(walls),
        "service.app.done_to_seen_ms": 1e3 * measure.median(seen),
        "service.execution.lane_wall_ms":
            1e3 * lane_s / lanes if lanes else 0.0,
        "service.execution.overhead_ms":
            1e3 * (job_wall_s - lane_s) / job_count if job_count else 0.0,
        "bench.cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "bench.cache.lookups": (hits + misses) / jobs,
        "vector.plan.hits":
            delta("vector_plan_cache_total", result="hit") / jobs,
        "vector.plan.disk_hits": measure.metric_sum(
            after, "vector_plan_cache_total", result="disk_hit"),
        "vector.plan.misses": measure.metric_sum(
            after, "vector_plan_cache_total", result="miss"),
        "vector.plan.compile_s": measure.metric_sum(
            after, "vector_plan_compile_seconds"),
        "obs.metrics.scrape_ms":
            1e3 * measure.median([took for _, took in scrapes]),
        "obs.metrics.series": len(after),
        "host.reference_ms":
            1e3 * measure.median([p.host_s for p in traced_passes]),
        "trace.throughput_qps": traced_qps,
        "trace.overhead_pct": 100 * (plain_qps / traced_qps - 1),
        "trace.unattributed_pct":
            100 * rec["unattributed_s"] / wall,
        "trace.reconcile_error_pct": 100 * rec["error"],
    }
