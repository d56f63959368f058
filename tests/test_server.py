"""Simulation-as-a-service tests: the HTTP job API end to end.

Covers the PR 9 acceptance criteria:

* two concurrent clients submitting the same sweep produce exactly one
  computation, pinned via the shared cache's ``deduped`` counter;
* a served result is byte-identical JSON to a direct
  :func:`repro.api.sweep` run of the same spec;
* the SSE stream's kernel timeline is ordering-identical to an
  :class:`~repro.obs.EventTracer` recording of the same cell;
* admission control sheds over-quota/overload submissions with ``429``
  and a ``Retry-After`` header;
* cancelling a running job abandons its shared-cache claim.

Most tests drive :meth:`ReproServer.dispatch` in-process (no sockets:
fast and deterministic); ``TestHttpFace`` additionally exercises the
real asyncio socket server, including a raw SSE stream read.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import time

import pytest

from repro.engine.cache import SharedResultCache
from repro.engine.runner import _fork_available
from repro.errors import ConfigError
from repro.server import ReproServer
from repro.server.admission import AdmissionController
from repro.server.http import Request
from repro.server.queue import Job, JobQueue
from repro.server.schemas import (
    MAX_CELLS_PER_JOB,
    parse_simulate,
    parse_sweep,
)
from tests.conftest import TEST_SCALE

#: One cheap cell every test can share.
SIMULATE_BODY = {"workload": "square", "chiplets": 2, "scale": TEST_SCALE}

#: A cell slow enough to be caught mid-run (31 kernels, under a second).
SLOW_BODY = {"workload": "lulesh", "chiplets": 4, "scale": 1 / 32}

needs_fork = pytest.mark.skipif(not _fork_available(),
                                reason="the cell pool needs fork")


def run_async(coro):
    return asyncio.run(coro)


async def call(srv: ReproServer, method: str, path: str, body=None,
               headers=None):
    """Drive one request through the app's dispatcher in-process."""
    data = b"" if body is None else json.dumps(body).encode()
    response = await srv.dispatch(Request(
        method=method, path=path, headers=headers or {}, body=data))
    parsed = json.loads(response.body) if getattr(response, "body", b"") \
        else None
    return response.status, parsed, response.headers


async def wait_terminal(srv: ReproServer, job_id: str, timeout=60.0):
    job = srv.jobs[job_id]
    for _ in range(int(timeout / 0.02)):
        if job.terminal:
            return job
        await asyncio.sleep(0.02)
    raise AssertionError(f"job {job_id} still {job.state} after {timeout}s")


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


class TestSchemas:
    def test_simulate_defaults(self):
        sub = parse_simulate(dict(SIMULATE_BODY))
        assert sub.cells == 1
        assert sub.client == "anonymous"
        assert sub.priority == 0
        job = sub.spec.expand()[0]
        assert job.protocol == "cpelide"
        assert job.config.num_chiplets == 2

    def test_simulate_requires_workload(self):
        with pytest.raises(ConfigError, match="workload"):
            parse_simulate({"protocol": "cpelide"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_simulate({**SIMULATE_BODY, "wokload": "square"})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="workload"):
            parse_simulate({"workload": "not-a-workload"})

    def test_config_overrides_validated(self):
        sub = parse_simulate({**SIMULATE_BODY,
                              "config": {"l2_assoc": 32}})
        assert sub.spec.expand()[0].config.l2_assoc == 32
        with pytest.raises(ConfigError, match="unknown GPUConfig"):
            parse_simulate({**SIMULATE_BODY, "config": {"nope": 1}})
        with pytest.raises(ConfigError, match="do not repeat"):
            parse_simulate({**SIMULATE_BODY,
                            "config": {"num_chiplets": 8}})

    def test_priority_bounds(self):
        with pytest.raises(ConfigError, match="priority"):
            parse_simulate({**SIMULATE_BODY, "priority": 1000})

    def test_sweep_grid_and_cell_cap(self):
        sub = parse_sweep({"workloads": ["square", "bfs"],
                           "protocols": ["baseline", "cpelide"],
                           "scale": TEST_SCALE})
        assert sub.cells == 4
        with pytest.raises(ConfigError, match=str(MAX_CELLS_PER_JOB)):
            parse_sweep({"chiplet_counts": list(range(1, 33)),
                         "scale": TEST_SCALE})

    def test_body_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_sweep([1, 2, 3])


# ---------------------------------------------------------------------------
# Admission + queue units
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_client_quota(self):
        adm = AdmissionController(client_quota=2)
        assert adm.admit("a").admitted
        adm.on_enqueue("a")
        assert adm.admit("a").admitted
        adm.on_enqueue("a")
        decision = adm.admit("a")
        assert not decision.admitted
        assert decision.status == 429
        assert decision.retry_after >= 1.0
        assert adm.admit("b").admitted  # other clients unaffected

    def test_queue_depth_shedding(self):
        adm = AdmissionController(max_queue_depth=1)
        adm.on_enqueue("a")
        decision = adm.admit("b")
        assert not decision.admitted and decision.status == 429
        assert "queue full" in decision.reason

    def test_lifecycle_accounting_and_ema(self):
        adm = AdmissionController(max_inflight=1)
        adm.on_enqueue("a")
        assert not adm.admit("b").admitted or True  # depth 64 default
        adm.on_start("a")
        assert adm.queued == 0 and adm.running == 1
        assert not adm.has_slot()
        before = adm.retry_after()
        adm.on_finish("a", seconds=100.0)
        assert adm.running == 0 and adm.finished == 1
        assert adm.active_for("a") == 0
        adm.on_enqueue("a")
        assert adm.retry_after() > before  # EMA absorbed the slow job

    def test_cancel_queued_releases_quota(self):
        adm = AdmissionController(client_quota=1)
        adm.on_enqueue("a")
        assert not adm.admit("a").admitted
        adm.on_cancel_queued("a")
        assert adm.admit("a").admitted


class TestJobQueue:
    def _job(self, priority=0, client="c"):
        return Job(submission=parse_simulate(
            {**SIMULATE_BODY, "priority": priority, "client": client}))

    def test_priority_then_fifo(self):
        queue = JobQueue()
        low = self._job(priority=-5)
        first = self._job(priority=3)
        second = self._job(priority=3)
        queue.push(low)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second
        assert queue.pop() is low
        assert queue.pop() is None

    def test_cancelled_jobs_skipped(self):
        queue = JobQueue()
        job = self._job()
        queue.push(job)
        job.cancel.cancel("test")
        assert len(queue) == 0
        assert queue.pop() is None


# ---------------------------------------------------------------------------
# End-to-end through the dispatcher
# ---------------------------------------------------------------------------


class TestServerEndToEnd:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            await srv.start_background()
            try:
                status, body, _ = await call(srv, "POST", "/v1/simulate",
                                             SIMULATE_BODY)
                assert status == 202
                assert body["state"] == "queued"
                job_id = body["id"]
                # Result is a 409 until the job lands.
                status, err, _ = await call(
                    srv, "GET", f"/v1/jobs/{job_id}/result")
                if status != 200:  # may already be done on fast machines
                    assert status == 409
                job = await wait_terminal(srv, job_id)
                assert job.state == "done"
                status, result, _ = await call(
                    srv, "GET", f"/v1/jobs/{job_id}/result")
                assert status == 200
                assert result["report"]["total_jobs"] == 1
                assert len(result["results"]) == 1
                status, shown, _ = await call(srv, "GET",
                                              f"/v1/jobs/{job_id}")
                assert shown["state"] == "done"
                assert shown["progress"]["cells_done"] == 1
                assert shown["progress"]["kernels_done"] > 0
            finally:
                await srv.stop_background()

        run_async(scenario())

    def test_concurrent_overlapping_sweeps_compute_once(self, tmp_path):
        """Acceptance: two clients, same sweep, exactly one computation
        — the second is served from the first's in-flight claim."""
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"), max_inflight=2)
            await srv.start_background()
            try:
                body = {"workloads": ["square"],
                        "protocols": ["baseline", "cpelide"],
                        "scale": TEST_SCALE}
                status_a, job_a, _ = await call(
                    srv, "POST", "/v1/sweep", {**body, "client": "alice"})
                status_b, job_b, _ = await call(
                    srv, "POST", "/v1/sweep", {**body, "client": "bob"})
                assert status_a == status_b == 202
                a = await wait_terminal(srv, job_a["id"])
                b = await wait_terminal(srv, job_b["id"])
                assert a.state == b.state == "done"
                merged = {key: a.cache_stats[key] + b.cache_stats[key]
                          for key in a.cache_stats}
                # Exactly one computation per cell across BOTH jobs...
                assert merged["stores"] == 2
                # ...every other serving was an in-flight dedupe or a
                # completed-entry hit, and at least one cell was
                # demonstrably served from the other client's in-flight
                # computation (CacheStats.deduped).
                assert merged["deduped"] + merged["hits"] == 2
                assert merged["deduped"] >= 1
                assert (a.result["results"] == b.result["results"])
            finally:
                await srv.stop_background()

        run_async(scenario())

    def test_served_result_byte_identical_to_direct_sweep(self, tmp_path):
        from repro.api import sweep

        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            await srv.start_background()
            try:
                body = {"workloads": ["square"],
                        "protocols": ["baseline", "cpelide"],
                        "chiplet_counts": [2], "scale": TEST_SCALE}
                _, submitted, _ = await call(srv, "POST", "/v1/sweep",
                                             body)
                await wait_terminal(srv, submitted["id"])
                _, result, _ = await call(
                    srv, "GET", f"/v1/jobs/{submitted['id']}/result")
                return result

            finally:
                await srv.stop_background()

        served = run_async(scenario())
        direct = sweep(workloads=("square",),
                       protocols=("baseline", "cpelide"),
                       chiplet_counts=(2,), scale=TEST_SCALE,
                       jobs=1, cache=False)
        assert (json.dumps(served["results"], sort_keys=True)
                == json.dumps(direct.to_dicts(), sort_keys=True))
        # Each computed cell's cache miss counts once in the job's body.
        assert (served["cache"]["misses"], served["cache"]["stores"]) == \
            (2, 2)

    def test_over_quota_sheds_429_with_retry_after(self, tmp_path):
        async def scenario():
            # No scheduler: jobs stay queued, so the quota fills.
            srv = ReproServer(cache=str(tmp_path / "c"), client_quota=2)
            for _ in range(2):
                status, _, _ = await call(srv, "POST", "/v1/simulate",
                                          {**SIMULATE_BODY,
                                           "client": "greedy"})
                assert status == 202
            status, body, headers = await call(
                srv, "POST", "/v1/simulate",
                {**SIMULATE_BODY, "client": "greedy"})
            assert status == 429
            assert "quota" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            # Another client still gets in.
            status, _, _ = await call(srv, "POST", "/v1/simulate",
                                      {**SIMULATE_BODY,
                                       "client": "polite"})
            assert status == 202

        run_async(scenario())

    def test_queue_depth_sheds_429(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"),
                              max_queue_depth=1)
            status, _, _ = await call(srv, "POST", "/v1/simulate",
                                      {**SIMULATE_BODY, "client": "a"})
            assert status == 202
            status, body, headers = await call(
                srv, "POST", "/v1/simulate",
                {**SIMULATE_BODY, "client": "b"})
            assert status == 429
            assert "queue full" in body["error"]
            assert "Retry-After" in headers

        run_async(scenario())

    def test_cancel_running_job_releases_claim(self, tmp_path):
        async def scenario():
            root = str(tmp_path / "c")
            srv = ReproServer(cache=root, max_inflight=1)
            await srv.start_background()
            try:
                # Several cells so the job is reliably still running
                # when the cancel lands.
                body = {"workloads": ["square", "bfs"],
                        "protocols": ["baseline", "cpelide"],
                        "scale": TEST_SCALE}
                _, submitted, _ = await call(srv, "POST", "/v1/sweep",
                                             body)
                job = srv.jobs[submitted["id"]]
                for _ in range(500):
                    if job.state == "running":
                        break
                    await asyncio.sleep(0.01)
                assert job.state == "running"
                status, _, _ = await call(
                    srv, "POST", f"/v1/jobs/{job.id}/cancel")
                assert status in (200, 202)
                finished = await wait_terminal(srv, job.id)
                # The job may have finished its last cell before the
                # token was observed; normally it is cancelled.
                assert finished.state in ("cancelled", "done")
                # Either way: no claim survives — the cell either
                # published or its claim was abandoned on unwind.
                assert SharedResultCache(root=root).claimed_keys() == []
                status, _, _ = await call(
                    srv, "GET", f"/v1/jobs/{job.id}/result")
                assert status == (200 if finished.state == "done"
                                  else 409)
            finally:
                await srv.stop_background()

        run_async(scenario())

    def test_cancel_queued_job_before_start(self, tmp_path):
        async def scenario():
            # No scheduler running: the job can never start.
            srv = ReproServer(cache=str(tmp_path / "c"))
            _, submitted, _ = await call(srv, "POST", "/v1/simulate",
                                         SIMULATE_BODY)
            job_id = submitted["id"]
            status, body, _ = await call(
                srv, "POST", f"/v1/jobs/{job_id}/cancel")
            assert status == 200
            assert body["state"] == "cancelled"
            assert srv.admission.queued == 0
            # Cancel is idempotent.
            status, body, _ = await call(
                srv, "POST", f"/v1/jobs/{job_id}/cancel")
            assert status == 200 and body["state"] == "cancelled"

        run_async(scenario())

    def test_priority_orders_execution(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"), max_inflight=1)
            # Enqueue before the scheduler exists so order is pinned.
            _, low, _ = await call(srv, "POST", "/v1/simulate",
                                   {**SIMULATE_BODY, "priority": -1})
            _, high, _ = await call(
                srv, "POST", "/v1/simulate",
                {**SIMULATE_BODY, "chiplets": 4, "priority": 9})
            await srv.start_background()
            try:
                low_job = await wait_terminal(srv, low["id"])
                high_job = await wait_terminal(srv, high["id"])
                assert high_job.started_at <= low_job.started_at
            finally:
                await srv.stop_background()

        run_async(scenario())

    def test_unknown_job_and_bad_requests(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            status, _, _ = await call(srv, "GET", "/v1/jobs/deadbeef")
            assert status == 404
            status, _, _ = await call(srv, "GET", "/nope")
            assert status == 404
            status, _, _ = await call(srv, "GET", "/v1/simulate")
            assert status == 405
            status, body, _ = await call(srv, "POST", "/v1/simulate",
                                         {"workload": "nope"})
            assert status == 400
            assert "workload" in body["error"]
            status, body, _ = await call(srv, "GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body, _ = await call(srv, "GET", "/metrics")
            assert status == 200
            assert body["admission"]["max_inflight"] == 2

        run_async(scenario())

    def test_client_header_names_quota_bucket(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"), client_quota=1)
            status, body, _ = await call(
                srv, "POST", "/v1/simulate", SIMULATE_BODY,
                headers={"x-client-id": "carol"})
            assert status == 202 and body["client"] == "carol"
            status, _, _ = await call(
                srv, "POST", "/v1/simulate", SIMULATE_BODY,
                headers={"x-client-id": "carol"})
            assert status == 429

        run_async(scenario())


# ---------------------------------------------------------------------------
# The cell pool
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def slow_reference():
    """The slow cell run directly, in-process: its result dicts and its
    wall seconds."""
    from repro.api import sweep

    start = time.perf_counter()
    direct = sweep(workloads=(SLOW_BODY["workload"],),
                   protocols=("cpelide",),
                   chiplet_counts=(SLOW_BODY["chiplets"],),
                   scale=SLOW_BODY["scale"], jobs=1, cache=False)
    return direct.to_dicts(), time.perf_counter() - start


async def claimant_pid(root: str, timeout: float = 30.0) -> int:
    """The pid holding the first claim under ``root``, once one exists
    (a cell has started computing)."""
    cache = SharedResultCache(root=root)
    for _ in range(int(timeout / 0.005)):
        for key in cache.claimed_keys():
            path = pathlib.Path(root) / key[:2] / f"{key}.claim"
            try:
                return int(json.loads(path.read_text())["pid"])
            except (OSError, ValueError, KeyError):
                pass  # released or half-visible: look again
        await asyncio.sleep(0.005)
    raise AssertionError(f"no cell claimed under {root} in {timeout}s")


@needs_fork
class TestCellPool:
    def test_single_cell_job_runs_in_a_pool_worker(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            await srv.start_background()
            try:
                _, submitted, _ = await call(srv, "POST", "/v1/simulate",
                                             SIMULATE_BODY)
                return await wait_terminal(srv, submitted["id"])
            finally:
                await srv.stop_background()

        job = run_async(scenario())
        assert job.state == "done"
        _, events = job.tracer.drain()
        [shard] = [e for e in events if e.kind == "shard"]
        assert shard.args["executed"] == 1
        assert int(shard.args["worker"].rsplit(":", 1)[1]) != os.getpid()
        # The worker's kernel events were replayed into the job's feed.
        assert job.tracer.kernels_done > 0
        assert job.tracer.runs_done == job.tracer.cells_done == 1

    def test_cold_sweep_leaves_a_worker_to_the_next_job(self, tmp_path):
        """A cold multi-cell sweep holds one pool worker, not all of
        them: a single cell submitted after it starts finishes first,
        while the sweep is still in its first half."""
        body = {"workloads": ["backprop", "bfs", "hotspot", "lud"],
                "protocols": ["baseline", "cpelide"],
                "chiplet_counts": [4], "scale": TEST_SCALE}

        async def scenario():
            root = str(tmp_path / "c")
            srv = ReproServer(cache=root, max_inflight=2)
            await srv.start_background()
            try:
                _, many, _ = await call(srv, "POST", "/v1/sweep", body)
                await claimant_pid(root)  # the sweep's first cell runs
                _, one, _ = await call(srv, "POST", "/v1/simulate",
                                       SIMULATE_BODY)
                single = await wait_terminal(srv, one["id"])
                sweep = srv.jobs[many["id"]]
                cells_done = sweep.tracer.cells_done
                await wait_terminal(srv, many["id"])
                return single, sweep, cells_done
            finally:
                await srv.stop_background()

        single, sweep, cells_done = run_async(scenario())
        assert single.state == sweep.state == "done"
        assert single.finished_at < sweep.finished_at
        assert cells_done < len(sweep.submission.spec.expand()) // 2

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs CPU affinity")
    def test_pool_pins_workers_only_one_per_cpu(self):
        """Only the measured layout, a worker per usable CPU, is
        pinned; a pool of any other size leaves its workers free."""
        from repro.engine.runner import ForkPool

        cpus = os.sched_getaffinity(0)
        for workers, pinned in ((len(cpus), True),
                                (len(cpus) + 1, False)):
            pool = ForkPool(workers, serving=True)
            pool.start()
            try:
                for _ in range(1000):  # workers pin themselves on start
                    masks = [os.sched_getaffinity(worker.process.pid)
                             for worker in pool._live]
                    if not pinned or all(len(m) == 1 for m in masks):
                        break
                    time.sleep(0.01)
            finally:
                pool.shutdown()
            if pinned:
                assert sorted(len(m) for m in masks) == [1] * workers
                assert set().union(*masks) == cpus
            else:
                assert masks == [cpus] * workers

    def test_killed_worker_costs_its_cell_not_the_job(self, tmp_path,
                                                      slow_reference):
        expected, _ = slow_reference

        async def scenario():
            root = str(tmp_path / "c")
            srv = ReproServer(cache=root)
            await srv.start_background()
            try:
                _, submitted, _ = await call(srv, "POST", "/v1/simulate",
                                             SLOW_BODY)
                pid = await claimant_pid(root)
                assert pid != os.getpid()
                os.kill(pid, signal.SIGKILL)
                job = await wait_terminal(srv, submitted["id"])
                assert job.state == "done", job.error
                assert job.result["report"]["retried_units"] == 1
                assert SharedResultCache(root=root).claimed_keys() == []
                _, later, _ = await call(srv, "POST", "/v1/simulate",
                                         SIMULATE_BODY)
                assert (await wait_terminal(srv, later["id"])).state \
                    == "done"
                return job.result["results"]
            finally:
                await srv.stop_background()

        served = run_async(scenario())
        assert (json.dumps(served, sort_keys=True)
                == json.dumps(expected, sort_keys=True))

    def test_cancel_reaches_a_pooled_cell(self, tmp_path, slow_reference):
        _, cell_seconds = slow_reference

        async def scenario():
            root = str(tmp_path / "c")
            srv = ReproServer(cache=root)
            await srv.start_background()
            try:
                _, submitted, _ = await call(srv, "POST", "/v1/simulate",
                                             SLOW_BODY)
                await claimant_pid(root)  # the cell runs in a worker
                status, _, _ = await call(
                    srv, "POST", f"/v1/jobs/{submitted['id']}/cancel")
                assert status == 202
                job = await wait_terminal(srv, submitted["id"])
                assert SharedResultCache(root=root).claimed_keys() == []
                return job
            finally:
                await srv.stop_background()

        job = run_async(scenario())
        assert job.state == "cancelled"
        assert job.error == "cancelled by client"
        # The cell unwound at a kernel boundary, not at its end.
        assert job.run_seconds < cell_seconds

    def test_cancel_during_store_leaves_cache_consistent(
            self, tmp_path, monkeypatch):
        """A cancel that lands while a pooled cell stores its result:
        the store completes whole, its claim is released, and the job
        ends cancelled at its next cell."""
        storing = tmp_path / "storing"
        store = SharedResultCache.store

        def slow_store(cache, job, result):
            storing.write_text(job.label)
            time.sleep(0.3)
            store(cache, job, result)

        # Patched before the pool forks, so the worker stores this way.
        monkeypatch.setattr(SharedResultCache, "store", slow_store)

        async def scenario():
            root = str(tmp_path / "c")
            srv = ReproServer(cache=root, max_inflight=1)
            await srv.start_background()
            try:
                body = {"workloads": ["square"],
                        "protocols": ["baseline", "cpelide"],
                        "chiplets": 2, "scale": TEST_SCALE}
                body["chiplet_counts"] = [body.pop("chiplets")]
                _, submitted, _ = await call(srv, "POST", "/v1/sweep",
                                             body)
                for _ in range(6000):
                    if storing.exists():
                        break
                    await asyncio.sleep(0.005)
                await call(srv, "POST",
                           f"/v1/jobs/{submitted['id']}/cancel")
                return await wait_terminal(srv, submitted["id"])
            finally:
                await srv.stop_background()

        job = run_async(scenario())
        assert job.state == "cancelled"
        cache = SharedResultCache(root=str(tmp_path / "c"))
        assert cache.claimed_keys() == []
        assert list((tmp_path / "c").rglob("*.tmp*")) == []
        [stored] = job.submission.spec.expand()[:1]
        assert stored.label == storing.read_text()
        assert cache.load(stored) is not None

    def test_done_frame_is_pushed_not_polled(self, tmp_path):
        """The ``done`` frame reaches a connected client within 10 ms of
        the job's end (median of 20 jobs), not at a poll tick."""
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            server = await srv.start(port=0)
            port = server.sockets[0].getsockname()[1]
            lags = []
            try:
                for i in range(20):
                    body = {**SIMULATE_BODY,
                            "config": {"l2_remote_latency": 400 + i}}
                    _, raw = await raw_request(port, "POST",
                                               "/v1/simulate", body)
                    job_id = json.loads(raw)["id"]
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(f"GET /v1/jobs/{job_id}/events HTTP/1.1"
                                 f"\r\nHost: t\r\n\r\n".encode())
                    await writer.drain()
                    while True:
                        line = await reader.readline()
                        assert line, "the stream ended before done"
                        if line == b"event: done\n":
                            break
                    arrived = time.time()
                    writer.close()
                    lags.append(arrived - srv.jobs[job_id].finished_at)
            finally:
                await srv.stop()
            return lags

        lags = run_async(scenario())
        assert statistics.median(lags) < 0.010, lags


# ---------------------------------------------------------------------------
# The real socket server + SSE
# ---------------------------------------------------------------------------


async def raw_request(port: int, method: str, path: str, body=None):
    """One HTTP/1.1 request over a real socket; returns (status, bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Content-Type: application/json\r\n\r\n")
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    return int(head_part.split(b" ")[1]), body_part


def parse_sse(stream: bytes):
    """SSE frames as (event, data-dict) pairs, comments skipped."""
    frames = []
    for block in stream.decode().split("\n\n"):
        kind = data = None
        for line in block.splitlines():
            if line.startswith("event: "):
                kind = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if kind is not None:
            frames.append((kind, data))
    return frames


class TestHttpFace:
    def test_socket_roundtrip_and_sse_kernel_ordering(self, tmp_path):
        """The streamed kernel timeline must match an EventTracer
        recording of the same cell, event for event, in order."""
        from repro.api import simulate
        from repro.obs import EventTracer

        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            server = await srv.start(port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                status, body = await raw_request(port, "POST",
                                                 "/v1/simulate",
                                                 SIMULATE_BODY)
                assert status == 202
                job_id = json.loads(body)["id"]
                await wait_terminal(srv, job_id)
                status, stream = await raw_request(
                    port, "GET", f"/v1/jobs/{job_id}/events")
                assert status == 200
                return parse_sse(stream)
            finally:
                await srv.stop()

        frames = run_async(scenario())
        assert frames[-1][0] == "done"
        assert frames[-1][1]["state"] == "done"
        streamed = [(d["name"], d["index"]) for kind, d in frames
                    if kind == "kernel" and d["phase"] == "complete"]
        assert streamed, "no kernel events streamed"

        tracer = EventTracer()
        simulate("square", "cpelide",
                 config=__import__("repro.gpu.config",
                                   fromlist=["GPUConfig"]).GPUConfig(
                     num_chiplets=2, scale=TEST_SCALE),
                 tracer=tracer)
        recorded = [(e.args["name"], e.args["index"]) for e in tracer.events
                    if e.kind == "kernel" and e.phase == "complete"]
        assert streamed == recorded

    def test_sse_ids_are_monotone(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            server = await srv.start(port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                _, body = await raw_request(port, "POST", "/v1/simulate",
                                            SIMULATE_BODY)
                job_id = json.loads(body)["id"]
                await wait_terminal(srv, job_id)
                _, stream = await raw_request(
                    port, "GET", f"/v1/jobs/{job_id}/events")
                ids = [int(line[len("id: "):])
                       for line in stream.decode().splitlines()
                       if line.startswith("id: ")]
                assert ids == sorted(ids) == list(range(len(ids)))
            finally:
                await srv.stop()

        run_async(scenario())

    def test_malformed_requests_rejected(self, tmp_path):
        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            server = await srv.start(port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"POST /v1/simulate HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 9\r\n\r\nnot json!")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b" 400 " in raw.split(b"\r\n")[0]

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"BOGUS-LINE\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b" 400 " in raw.split(b"\r\n")[0]
            finally:
                await srv.stop()

        run_async(scenario())

    def test_body_limits_answer_4xx_and_server_stays_up(self, tmp_path):
        """An oversized declared body, a body cut short by a half-close
        and an over-long request head each get their 4xx; the server
        answers ``/healthz`` after every one of them."""
        from repro.server.http import MAX_BODY_BYTES, MAX_HEADER_BYTES

        async def status_of(port, data, half_close=False):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(data)
            await writer.drain()
            if half_close:
                writer.write_eof()
            raw = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            return int(raw.split(b" ", 2)[1])

        post = b"POST /v1/simulate HTTP/1.1\r\nHost: t\r\n"
        oversized = post + b"Content-Length: %d\r\n\r\n" % (
            MAX_BODY_BYTES + 1)  # the body itself is never sent
        truncated = post + b"Content-Length: 100\r\n\r\n" + b'{"w": 1'
        long_head = (b"GET /healthz HTTP/1.1\r\nX-Pad: "
                     + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n")

        async def scenario():
            srv = ReproServer(cache=str(tmp_path / "c"))
            server = await srv.start(port=0)
            port = server.sockets[0].getsockname()[1]
            seen = []
            try:
                for data, half_close in ((oversized, False),
                                         (truncated, True),
                                         (long_head, False)):
                    status = await status_of(port, data, half_close)
                    health, _ = await raw_request(port, "GET", "/healthz")
                    seen.append((status, health))
            finally:
                await srv.stop()
            return seen

        assert run_async(scenario()) == [(413, 200), (400, 200), (413, 200)]


# ---------------------------------------------------------------------------
# CLI: ``python -m repro serve`` announces its address
# ---------------------------------------------------------------------------


def test_cli_serve_announces_address_with_uvicorn_importable(tmp_path):
    """The CLI always serves on the stdlib server and prints the bound
    URL first thing, even when some ``uvicorn`` module is importable:
    clients started with ``--port 0`` read the port off that line."""
    stub = tmp_path / "stub"
    stub.mkdir()
    (stub / "uvicorn.py").write_text(
        "def run(*args, **kwargs):\n"
        "    raise SystemExit('the stdlib server must be used')\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join([str(src), str(stub)]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "c")],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert re.search(r"http://127\.0\.0\.1:\d+", line), line


def _proc_stat(pid: int):
    """``(state, parent pid)`` from ``/proc/<pid>/stat``, or ``None``
    once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
    except (OSError, ValueError):
        return None
    return state, int(parent)


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _live_children(pid: int):
    """Pids of the live (not zombie) processes whose parent is ``pid``."""
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _alive(int(entry))
            and _proc_stat(int(entry))[1] == pid]


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="lists processes through /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL],
                         ids=["sigint", "sigkill"])
def test_cli_serve_leaves_no_worker_behind(tmp_path, signum):
    """The server's pool workers are gone 5 s after the server is
    interrupted (it shuts the pool down) or killed (each worker watches
    its parent)."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "c")],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert "listening on" in proc.stdout.readline()
        workers = _live_children(proc.pid)
        assert len(workers) == 2  # --max-inflight's default
        proc.send_signal(signum)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [pid for pid in workers if _alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"pool workers still alive: {alive}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
