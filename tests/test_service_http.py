"""End-to-end tests for the HTTP front end (real sockets, one loop).

Each scenario boots a :class:`ServiceServer` on an ephemeral port inside
the test's own event loop and speaks raw HTTP/1.1 over
``asyncio.open_connection`` — requests and job completion are sequenced
with explicit awaits (``app.join()``), never timed waits.
"""

from __future__ import annotations

import asyncio
import json

from repro.bench.cache import ResultCache
from repro.obs import MetricsRegistry
from repro.service import ServiceApp, ServiceServer


def drive(coro):
    return asyncio.run(coro)


async def request(port, method, path, body=None, raw_body=None):
    """One HTTP exchange; returns (status, headers, decoded-or-raw body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = raw_body if raw_body is not None else (
        json.dumps(body).encode() if body is not None else b""
    )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head_bytes, _, body_bytes = data.partition(b"\r\n\r\n")
    head_lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("content-type", "").startswith("application/json"):
        return status, headers, json.loads(body_bytes)
    return status, headers, body_bytes.decode("utf-8")


def make_server(tmp_path=None, **app_kwargs) -> ServiceServer:
    app_kwargs.setdefault("executor", "sync")
    app_kwargs.setdefault("workers", 1)
    app_kwargs.setdefault("registry", MetricsRegistry())
    if tmp_path is not None:
        app_kwargs.setdefault("cache", ResultCache(tmp_path))
    return ServiceServer(ServiceApp(**app_kwargs), port=0)


SORT_BODY = {"algorithm": "sort", "p": 4, "k": 4, "n": 64, "seed": 1}
SELECT_BODY = {"algorithm": "select", "p": 8, "k": 2, "n": 64}


class TestJobApi:
    def test_submit_poll_complete(self, tmp_path):
        async def scenario():
            server = make_server(tmp_path)
            await server.start()
            port = server.port
            status, _, accepted = await request(
                port, "POST", "/jobs", SORT_BODY
            )
            assert status == 202
            assert accepted["state"] == "queued"
            await server.app.join()
            status, _, job = await request(
                port, "GET", accepted["status_url"]
            )
            await server.stop(0)
            return status, job

        status, job = drive(scenario())
        assert status == 200
        assert job["state"] == "done"
        assert job["result"]["totals"]["cycles"] > 0
        assert job["result"]["stats"]["totals"]["cycles"] > 0
        assert job["result"]["bounds"]["bound_source"] == "Corollary 6"

    def test_listing_and_unknown_job(self, tmp_path):
        async def scenario():
            server = make_server(tmp_path)
            await server.start()
            port = server.port
            await request(port, "POST", "/jobs", SORT_BODY)
            await server.app.join()
            _, _, listing = await request(port, "GET", "/jobs")
            missing_status, _, _ = await request(
                port, "GET", "/jobs/job-999999"
            )
            await server.stop(0)
            return listing, missing_status

        listing, missing_status = drive(scenario())
        assert [j["state"] for j in listing["jobs"]] == ["done"]
        assert missing_status == 404

    def test_bad_requests_are_400(self, tmp_path):
        async def scenario():
            server = make_server(tmp_path)
            await server.start()
            port = server.port
            invalid_json, _, _ = await request(
                port, "POST", "/jobs", raw_body=b"{nope"
            )
            bad_spec, _, body = await request(
                port, "POST", "/jobs",
                {"algorithm": "sort", "p": 4, "k": 8, "n": 64},
            )
            unknown_field, _, field_body = await request(
                port, "POST", "/jobs",
                {"algorithm": "sort", "p": 4, "k": 4, "n": 64, "shards": 2},
            )
            not_found, _, _ = await request(port, "GET", "/nope")
            bad_method, _, _ = await request(port, "POST", "/metrics")
            await server.stop(0)
            return (invalid_json, bad_spec, body, unknown_field, field_body,
                    not_found, bad_method)

        (invalid_json, bad_spec, body, unknown_field, field_body,
         not_found, bad_method) = drive(scenario())
        assert invalid_json == 400
        assert bad_spec == 400
        assert "k <= p" in body["error"]
        assert unknown_field == 400
        assert "unknown job spec field" in field_body["error"]
        assert not_found == 404
        assert bad_method == 405

    def test_backpressure_is_429_with_retry_after(self):
        async def scenario():
            server = make_server(workers=0, queue_size=1)
            await server.start()
            port = server.port
            first, _, _ = await request(port, "POST", "/jobs", SORT_BODY)
            second, headers, body = await request(
                port, "POST", "/jobs", SORT_BODY
            )
            await server.stop(0)
            return first, second, headers, body

        first, second, headers, body = drive(scenario())
        assert first == 202
        assert second == 429
        assert int(headers["retry-after"]) >= 1
        assert body["retry_after_s"] >= 1


class TestOps:
    def test_metrics_exposition_has_cache_and_queue_series(self, tmp_path):
        async def scenario():
            server = make_server(tmp_path)
            await server.start()
            port = server.port
            for _ in range(2):  # second run hits the result cache
                await request(port, "POST", "/jobs", SORT_BODY)
                await server.app.join()
            await request(port, "POST", "/jobs", SELECT_BODY)
            await server.app.join()
            _, headers, text = await request(port, "GET", "/metrics")
            await server.stop(0)
            return headers, text

        headers, text = drive(scenario())
        assert headers["content-type"].startswith("text/plain")
        assert "service_queue_depth 0" in text
        assert "service_jobs_in_flight 0" in text
        assert 'service_jobs_total{status="done"} 3' in text
        assert 'service_request_seconds_bucket{endpoint="/jobs:post"' in text
        # The instrumented bench cache always lands on the global
        # registry; the app-local registry carries the service series.
        from repro.obs import global_registry
        prom = global_registry().render_prometheus()
        assert 'bench_result_cache_total{result="hit"}' in prom

    def test_healthz(self):
        async def scenario():
            server = make_server()
            await server.start()
            _, _, health = await request(server.port, "GET", "/healthz")
            await server.stop(0)
            return health

        health = drive(scenario())
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_remote_shutdown_opt_in(self):
        async def scenario():
            app = ServiceApp(
                executor="sync", workers=1, registry=MetricsRegistry()
            )
            locked = ServiceServer(app, port=0)
            await locked.start()
            forbidden, _, _ = await request(
                locked.port, "POST", "/shutdown"
            )
            await locked.stop(0)

            app2 = ServiceApp(
                executor="sync", workers=1, registry=MetricsRegistry()
            )
            open_srv = ServiceServer(app2, port=0, allow_shutdown=True)
            await open_srv.start()
            accepted, _, _ = await request(
                open_srv.port, "POST", "/shutdown"
            )
            # serve_until_shutdown returns promptly once requested.
            await open_srv.serve_until_shutdown()
            return forbidden, accepted

        forbidden, accepted = drive(scenario())
        assert forbidden == 403
        assert accepted == 202

    def test_default_registry_is_global(self):
        # When no registry is passed, service metrics join the global
        # exposition next to the cache counters — the /metrics contract.
        from repro.obs import global_registry
        global_registry().reset()
        app = ServiceApp(executor="sync", workers=1)
        assert app.registry is global_registry()
        assert "service_queue_depth" in global_registry().names()
