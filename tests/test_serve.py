"""repro-serve tests: warm queries answered from stores, cold ones enqueued.

Most tests drive :meth:`CacheServer.handle` directly (the HTTP layer is a
thin JSON framing); one end-to-end test runs the real asyncio server with
an in-process drain worker and watches a cold query turn warm.
"""

from __future__ import annotations

import json
import sqlite3
import time
import urllib.request

import pytest

from repro.runtime.executors import LocalExecutor
from repro.runtime.jobs import JOB_PENDING, JobStore, execute_unit
from repro.runtime.registry import app_datasets
from repro.runtime.serve import BackgroundServer, CacheServer

APP = "spmv-csr"
SCALE_QUERY = "1/512"


@pytest.fixture()
def dataset():
    return app_datasets()[APP][0]


@pytest.fixture()
def server(tmp_path):
    handler = CacheServer(db=tmp_path / "runs.sqlite", cache_root=tmp_path / "cache")
    yield handler
    handler.close()


def _get(handler: CacheServer, path: str, query=None):
    return handler.handle("GET", path, dict(query or {}), b"")


class TestRoutes:
    def test_health(self, server):
        status, payload = _get(server, "/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_404(self, server):
        status, _ = _get(server, "/teapot")
        assert status == 404

    def test_wrong_method_405(self, server):
        status, _ = server.handle("POST", "/profile", {}, b"")
        assert status == 405


class TestProfileEndpoint:
    def test_warm_query_serves_from_cache_without_executing(
        self, server, dataset, monkeypatch
    ):
        # Warm the cache through the same unit a drain worker would run.
        execute_unit(
            {
                "kind": "profile",
                "app": APP,
                "dataset": dataset,
                "context": {"scale": 1 / 512},
                "cache_root": str(server.profile_cache.root),
            }
        )

        # From here on, any workload execution is a test failure.
        def explode(*args, **kwargs):
            raise AssertionError("warm serve path executed a workload")

        monkeypatch.setattr("repro.runtime.registry.execute", explode)

        status, payload = _get(
            server, "/profile", {"app": APP, "dataset": dataset, "scale": SCALE_QUERY}
        )
        assert status == 200
        assert payload["status"] == "cached"
        assert payload["profile"]["app"] == APP

    def test_cold_query_enqueues_idempotently(self, server, dataset):
        query = {"app": APP, "dataset": dataset, "scale": SCALE_QUERY}
        status, payload = _get(server, "/profile", query)
        assert status == 202
        assert payload["status"] == "enqueued"
        job_id = payload["job"]

        # The job is persisted and pending with exactly one profile unit.
        with JobStore(store=server.run_store) as jobs:
            job = jobs.job(job_id)
            assert job is not None and job.state == JOB_PENDING
            units = jobs.units(job_id)
            assert len(units) == 1 and units[0].kind == "profile"

        # Asking again resumes the same job, not a duplicate.
        status, payload = _get(server, "/profile", query)
        assert status == 202
        assert payload["job"] == job_id

    def test_cold_query_with_enqueue_disabled_is_a_miss(self, server, dataset):
        status, payload = _get(
            server,
            "/profile",
            {"app": APP, "dataset": dataset, "scale": SCALE_QUERY, "enqueue": "0"},
        )
        assert status == 404
        assert payload["status"] == "miss"

    def test_bad_parameters_rejected(self, server, dataset):
        assert _get(server, "/profile", {"app": APP})[0] == 400
        assert _get(server, "/profile", {"app": APP, "dataset": "nope"})[0] == 400
        assert (
            _get(server, "/profile", {"app": APP, "dataset": dataset, "scale": "1/0"})[0]
            == 400
        )
        assert _get(server, "/profile", {"app": "warpdrive", "dataset": dataset})[0] == 400


class TestThroughputEndpoint:
    def test_cold_then_drained_then_warm(self, server, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "tp"))
        # Fresh store objects pick up the env override.
        from repro.runtime.cache import ThroughputStore

        server.throughput_store = ThroughputStore()

        query = {"ordering": "unordered", "lanes": "4", "banks": "4"}
        status, payload = _get(server, "/throughput", query)
        assert status == 202
        job_id = payload["job"]

        with JobStore(store=server.run_store) as jobs:
            summary = jobs.run_job(job_id, LocalExecutor())
            assert summary.state == "done"

        status, payload = _get(server, "/throughput", query)
        assert status == 200
        assert payload["status"] == "cached"
        assert payload["throughput"] > 0

    def test_bad_ordering_rejected(self, server):
        status, _ = _get(server, "/throughput", {"ordering": "sideways"})
        assert status == 400


class TestJobsEndpoint:
    def test_submit_then_resume_then_inspect(self, server):
        body = json.dumps(
            {"type": "profile_grid", "apps": [APP], "context": {"scale": 1 / 512}}
        ).encode()
        status, payload = server.handle("POST", "/jobs", {}, body)
        assert status == 201
        assert payload["resumed"] is False
        job_id = payload["id"]
        assert payload["units"] == {"pending": len(app_datasets()[APP])}

        status, payload = server.handle("POST", "/jobs", {}, body)
        assert status == 200
        assert payload["resumed"] is True
        assert payload["id"] == job_id

        status, payload = _get(server, "/jobs")
        assert status == 200
        assert [job["id"] for job in payload["jobs"]] == [job_id]

        status, payload = _get(server, f"/jobs/{job_id}")
        assert status == 200
        assert payload["failed_units"] == []

        assert _get(server, "/jobs/999")[0] == 404
        assert _get(server, "/jobs/xyz")[0] == 400

    def test_unknown_job_type_rejected(self, server):
        status, payload = server.handle(
            "POST", "/jobs", {}, json.dumps({"type": "espresso"}).encode()
        )
        assert status == 400
        assert "unknown job type" in payload["error"]

    def test_runs_endpoint_empty_store(self, server):
        status, payload = _get(server, "/runs")
        assert status == 200
        assert payload["runs"] == []


class TestEndToEnd:
    def test_cold_query_turns_warm_through_drain(self, tmp_path, dataset):
        db = tmp_path / "runs.sqlite"
        cache_root = tmp_path / "cache"
        with BackgroundServer(db=db, cache_root=cache_root, drain=True) as server:
            url = (
                f"{server.url}/profile?app={APP}&dataset={dataset}&scale={SCALE_QUERY}"
            )
            with urllib.request.urlopen(url, timeout=10) as response:
                first = json.loads(response.read())
                assert response.status == 202
                assert first["status"] == "enqueued"

            deadline = time.perf_counter() + 60.0
            payload = None
            while time.perf_counter() < deadline:
                with urllib.request.urlopen(url, timeout=10) as response:
                    payload = json.loads(response.read())
                    if response.status == 200:
                        break
                time.sleep(0.1)
            assert payload is not None and payload["status"] == "cached"
            assert payload["profile"]["app"] == APP
            assert list(cache_root.glob("*.json"))

    @staticmethod
    def _get_json(url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    @staticmethod
    def _wait_for(predicate, timeout_s=60.0):
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if predicate():
                return True
            time.sleep(0.1)
        return False

    def test_dse_grid_job_writes_profiles_under_server_cache_root(
        self, tmp_path, monkeypatch
    ):
        default_cache = tmp_path / "default-cache"
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(default_cache))
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
        cache_root = tmp_path / "cache"
        body = json.dumps(
            {
                "type": "dse_grid",
                "axes": {"banks": [16, 32]},
                "apps": [APP],
                "context": {"scale": 1 / 512},
            }
        ).encode()
        with BackgroundServer(
            db=tmp_path / "runs.sqlite", cache_root=cache_root, drain=True
        ) as server:
            request = urllib.request.Request(
                f"{server.url}/jobs", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                job_id = json.loads(response.read())["id"]
            job_url = f"{server.url}/jobs/{job_id}"
            assert self._wait_for(lambda: self._get_json(job_url)[1]["state"] == "done")
        assert list(cache_root.glob("*.json"))
        assert not list(default_cache.glob("*.json"))

    def test_drain_survives_a_failing_job(self, tmp_path, monkeypatch):
        original = JobStore.run_job
        calls = []

        def fails_once(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise sqlite3.OperationalError("database is locked")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(JobStore, "run_job", fails_once)
        first, second = app_datasets()[APP][:2]
        with BackgroundServer(
            db=tmp_path / "runs.sqlite", cache_root=tmp_path / "cache", drain=True
        ) as server:
            urls = [
                f"{server.url}/profile?app={APP}&dataset={dataset}&scale={SCALE_QUERY}"
                for dataset in (first, second)
            ]
            assert self._get_json(urls[0])[0] == 202
            assert self._wait_for(lambda: self._get_json(urls[0])[0] == 200)
            # The drain thread outlived the error: the next job drains too.
            assert self._get_json(urls[1])[0] == 202
            assert self._wait_for(lambda: self._get_json(urls[1])[0] == 200)
            status, health = self._get_json(f"{server.url}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["drain"]["alive"] is True
        assert health["drain"]["errors"] == 1
        assert health["drain"]["jobs_run"] == 2
        assert "database is locked" in health["drain"]["last_error"]


class TestHardening:
    """/healthz, degraded 503s, body caps, request timeouts, drain."""

    def test_healthz_reports_ready(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["requests_total"] >= 1
        assert payload["inflight"] == 0
        assert "uptime_s" in payload and "db" in payload

    def _broken_db(self, tmp_path):
        import sqlite3

        db = tmp_path / "broken.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version=99")  # "newer schema" -> refused
        conn.commit()
        conn.close()
        return db

    def test_unusable_store_degrades_instead_of_crashing(self, tmp_path):
        handler = CacheServer(db=self._broken_db(tmp_path), cache_root=tmp_path / "cache")
        try:
            # Liveness still answers; readiness says degraded and why.
            assert _get(handler, "/health")[0] == 200
            status, payload = _get(handler, "/healthz")
            assert status == 200
            assert payload["status"] == "degraded"
            assert "schema version 99" in payload["store_error"]
            # Store-backed routes answer 503, not 500.
            for path in ("/runs", "/jobs", "/jobs/1"):
                status, payload = _get(handler, path)
                assert status == 503
                assert payload["status"] == "degraded"
            status, _ = handler.handle("POST", "/jobs", {}, b'{"type": "profile_grid"}')
            assert status == 503
        finally:
            handler.close()

    def test_degraded_store_still_serves_warm_cache(self, tmp_path, dataset):
        cache_root = tmp_path / "cache"
        execute_unit(
            {
                "kind": "profile",
                "app": APP,
                "dataset": dataset,
                "context": {"scale": 1 / 512},
                "cache_root": str(cache_root),
            }
        )
        handler = CacheServer(db=self._broken_db(tmp_path), cache_root=cache_root)
        try:
            status, payload = _get(
                handler, "/profile", {"app": APP, "dataset": dataset, "scale": SCALE_QUERY}
            )
            assert status == 200
            assert payload["status"] == "cached"
            # A cold query needs the job store to enqueue: degraded 503.
            other = app_datasets()[APP][1]
            status, _ = _get(
                handler, "/profile", {"app": APP, "dataset": other, "scale": SCALE_QUERY}
            )
            assert status == 503
        finally:
            handler.close()

    def test_oversized_body_refused_with_413(self, tmp_path):
        with BackgroundServer(
            db=tmp_path / "runs.sqlite",
            cache_root=tmp_path / "cache",
            max_body_bytes=256,
        ) as background:
            body = json.dumps({"type": "profile_grid", "pad": "x" * 1024}).encode()
            request = urllib.request.Request(
                background.url + "/jobs", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 413
            assert "exceeds" in json.load(excinfo.value)["error"]
            # The connection-scoped failure must not poison the server.
            with urllib.request.urlopen(background.url + "/healthz", timeout=10) as resp:
                assert resp.status == 200

    def test_stuck_client_cut_off_with_408(self, tmp_path):
        import socket

        with BackgroundServer(
            db=tmp_path / "runs.sqlite",
            cache_root=tmp_path / "cache",
            request_timeout_s=0.5,
        ) as background:
            with socket.create_connection((background.host, background.port), timeout=10) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\n")  # headers never finish
                sock.settimeout(10)
                response = b""
                while b"}" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            assert b"408" in response.split(b"\r\n", 1)[0]
            assert b"timed out" in response

    def test_drain_waits_for_inflight_then_cancels_stragglers(self):
        import asyncio

        from repro.runtime.serve import CacheServer as _CacheServer

        async def scenario():
            handler = _CacheServer.__new__(_CacheServer)  # just the task plumbing
            handler.client_tasks = set()
            finished = []

            async def quick():
                await asyncio.sleep(0.05)
                finished.append("quick")

            async def stuck():
                await asyncio.sleep(600)

            quick_task = asyncio.ensure_future(quick())
            stuck_task = asyncio.ensure_future(stuck())
            handler.client_tasks.update({quick_task, stuck_task})
            await handler.drain_clients(timeout_s=0.5)
            await asyncio.sleep(0)  # let the cancellation land
            assert finished == ["quick"]
            assert stuck_task.cancelled() or stuck_task.cancelling()

        asyncio.run(scenario())


class TestFrontierEndpoint:
    def _run_search(self, tmp_path, monkeypatch):
        from repro.apps.profile import WorkloadProfile
        from repro.runtime.search import (
            AdaptiveSearch,
            SearchSpace,
            SearchStore,
            make_strategy,
        )

        monkeypatch.setenv("REPRO_SEARCH_STORE", str(tmp_path / "search"))
        profiles = [
            WorkloadProfile(
                app="a", dataset="d", compute_iterations=50_000,
                sram_random_updates=30_000, dram_stream_read_bytes=1e6,
            )
        ]
        engine = AdaptiveSearch(
            SearchSpace.from_axes({"lanes": [8, 16], "banks": [16, 32]}),
            make_strategy("evolve", population=4, generations=2),
            profiles,
            seed=1,
            store=SearchStore(),
        )
        return engine.run(), engine.key

    def test_404_until_a_search_completes(self, server, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_STORE", str(tmp_path / "search"))
        status, payload = _get(server, "/frontier")
        assert status == 404
        assert payload["status"] == "miss"

        result, key = self._run_search(tmp_path, monkeypatch)
        status, payload = _get(server, "/frontier")
        assert status == 200
        assert payload["search_key"] == key
        assert payload["strategy"] == "evolve"
        assert payload["objectives"] == ["cycles", "area", "energy"]
        assert [p["name"] for p in payload["frontier"]] == list(result.frontier())
        assert all(p["pareto"] for p in payload["frontier"])

    def test_key_pins_a_specific_search(self, server, tmp_path, monkeypatch):
        _, key = self._run_search(tmp_path, monkeypatch)
        status, payload = _get(server, "/frontier", {"key": key})
        assert status == 200
        assert payload["search_key"] == key
        status, payload = _get(server, "/frontier", {"key": "0" * 16})
        assert status == 404

    def test_post_not_allowed(self, server):
        status, _ = server.handle("POST", "/frontier", {}, b"")
        assert status == 405
