"""The simulation service: routes, scheduler, and job execution.

:class:`ReproServer` wires the pieces together. The asyncio thread owns
the HTTP surface, the admission controller, and the job queue; queued
jobs move onto a thread pool whenever a job slot frees up. Each job
thread runs its job through the engine's one
:class:`~repro.engine.runner.SweepRunner` against the server's
:class:`~repro.engine.cache.SharedResultCache`, but computes nothing
itself: it reads the cache, assembles the result, and runs every cell
to compute on the server's one long-lived
:class:`~repro.engine.runner.ForkPool` (``max_inflight`` processes,
forked in :meth:`ReproServer.start_background` before the listener
accepts). Concurrency comes from multiple jobs in flight at once, and
overlapping jobs dedupe through the cache's claim/lease protocol
instead of computing the same cell twice. A pool worker records each
cell's kernel-level progress and ships it back for the job's
:class:`~repro.obs.streaming.StreamingTracer` (the SSE feed), and the
job's :class:`~repro.engine.jobs.CancelToken` reaches the worker
through a shared flag, unwinding a running cell at its next kernel
boundary. Where ``fork`` is unavailable, cells run in the job thread.

Endpoints (all JSON unless noted)::

    POST /v1/simulate          submit one cell            -> 202 job
    POST /v1/sweep             submit a grid              -> 202 job
    GET  /v1/jobs              list jobs + occupancy
    GET  /v1/jobs/{id}         job status + progress
    GET  /v1/jobs/{id}/result  results (409 until done)
    GET  /v1/jobs/{id}/events  live SSE stream (text/event-stream)
    POST /v1/jobs/{id}/cancel  cancel queued/running job
    GET  /healthz              liveness
    GET  /metrics              admission + cache + job metrics

Saturation answers ``429`` with a ``Retry-After`` header; malformed
bodies answer ``400``; unknown jobs ``404``.

A job's ``result`` body carries every cell's ``to_dict()`` payload in
spec order (:meth:`~repro.engine.runner.SweepResult.to_dicts`, exactly
what :func:`repro.api.sweep` returns) plus the sweep's
:class:`~repro.engine.runner.SweepReport` — a served sweep is
byte-identical JSON to a direct in-process run of the same spec.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import re
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Union

from repro.engine.cache import SharedResultCache
from repro.engine.runner import ForkPool, SweepRunner, _fork_available
from repro.errors import ConfigError, JobCancelled
from repro.obs.metrics import MetricRegistry
from repro.server.http import (
    Request,
    Response,
    StreamResponse,
    json_response,
    serve_connection,
)
from repro.server.admission import AdmissionController
from repro.server.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    Job,
    JobQueue,
)
from repro.server.schemas import (
    DEFAULT_CLIENT,
    Submission,
    parse_simulate,
    parse_sweep,
)
from repro.server.sse import job_event_stream

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ReproServer", "run"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642


class ReproServer:
    """The simulation-as-a-service app (framework-independent).

    ``cache`` accepts an existing :class:`SharedResultCache` or a cache
    root path (``None`` = the cache's default root), so several server
    processes — or a server and CLI sweeps — can share one result store
    and dedupe against each other exactly like distributed workers do.
    """

    def __init__(self, cache: Union[SharedResultCache, str, None] = None,
                 max_inflight: int = 2, max_queue_depth: int = 64,
                 client_quota: int = 8) -> None:
        if isinstance(cache, SharedResultCache):
            self.cache = cache
        else:
            self.cache = SharedResultCache(root=cache)
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue_depth=max_queue_depth,
            client_quota=client_quota)
        self.queue = JobQueue()
        self.jobs: Dict[str, Job] = {}
        self.metrics = MetricRegistry("server")
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission.max_inflight,
            thread_name_prefix="repro-job")
        #: The fork pool every job's cells run on (from
        #: :meth:`start_background` until :meth:`stop_background`).
        self._pool: Optional[ForkPool] = None
        self._stats_lock = threading.Lock()
        #: Whether queued jobs are started (between start_background and
        #: stop_background).
        self._scheduling = False
        self._server: Optional[asyncio.AbstractServer] = None

    # ---- routing ---------------------------------------------------------

    _ROUTES = (
        ("POST", re.compile(r"^/v1/simulate$"), "_handle_simulate"),
        ("POST", re.compile(r"^/v1/sweep$"), "_handle_sweep"),
        ("GET", re.compile(r"^/v1/jobs$"), "_handle_jobs"),
        ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]+)$"),
         "_handle_status"),
        ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]+)/result$"),
         "_handle_result"),
        ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]+)/events$"),
         "_handle_events"),
        ("POST", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]+)/cancel$"),
         "_handle_cancel"),
        ("GET", re.compile(r"^/v1/protocols$"), "_handle_protocols"),
        ("GET", re.compile(r"^/healthz$"), "_handle_health"),
        ("GET", re.compile(r"^/metrics$"), "_handle_metrics"),
    )

    async def dispatch(self, request: Request,
                       ) -> "Response | StreamResponse":
        """Route one request to its handler."""
        path_known = False
        for method, pattern, name in self._ROUTES:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_known = True
            if request.method != method:
                continue
            handler: Callable = getattr(self, name)
            return await handler(request, **match.groupdict())
        if path_known:
            return json_response(
                {"error": f"method {request.method} not allowed here"},
                status=405)
        return json_response(
            {"error": f"unknown path {request.path!r}"}, status=404)

    def _job_or_none(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    # ---- submission ------------------------------------------------------

    async def _submit(self, request: Request,
                      parser: Callable[[Any], Submission]) -> Response:
        try:
            body = request.json()
            submission = parser(body)
        except ConfigError as exc:
            return json_response({"error": str(exc)}, status=400)
        header_client = request.client_header
        if (header_client and isinstance(body, dict)
                and "client" not in body
                and submission.client == DEFAULT_CLIENT):
            submission = dataclasses.replace(submission,
                                             client=header_client[:120])
        decision = self.admission.admit(submission.client)
        if not decision.admitted:
            return json_response(
                {"error": decision.reason,
                 "retry_after": decision.retry_after},
                status=decision.status,
                headers={"Retry-After": str(int(decision.retry_after))})
        job = Job(submission=submission)
        self.jobs[job.id] = job
        self.admission.on_enqueue(job.client)
        self.queue.push(job)
        accepted = job.status_payload()
        if self._scheduling:
            # Start it now if a slot is free, before the reply is sent.
            self._start_queued()
        return json_response(accepted, status=202)

    async def _handle_simulate(self, request: Request) -> Response:
        return await self._submit(request, parse_simulate)

    async def _handle_sweep(self, request: Request) -> Response:
        return await self._submit(request, parse_sweep)

    # ---- inspection ------------------------------------------------------

    async def _handle_protocols(self, request: Request) -> Response:
        """The protocol registry, as clients may submit it: every
        :class:`~repro.coherence.registry.ProtocolSpec` as name,
        description, table requirement, and config knobs (api 4.0)."""
        from repro.coherence.registry import protocols

        return json_response(
            {"protocols": [spec.to_dict() for spec in protocols()]})

    async def _handle_jobs(self, request: Request) -> Response:
        jobs: List[Dict[str, Any]] = [{
            "id": job.id,
            "state": job.state,
            "client": job.client,
            "priority": job.priority,
            "cells_total": job.cells_total,
            "cells_done": job.tracer.cells_done,
        } for job in self.jobs.values()]
        return json_response({"jobs": jobs,
                              "admission": self.admission.snapshot()})

    async def _handle_status(self, request: Request,
                             job_id: str) -> Response:
        job = self._job_or_none(job_id)
        if job is None:
            return json_response({"error": f"no job {job_id!r}"},
                                 status=404)
        return json_response(job.status_payload())

    async def _handle_result(self, request: Request,
                             job_id: str) -> Response:
        job = self._job_or_none(job_id)
        if job is None:
            return json_response({"error": f"no job {job_id!r}"},
                                 status=404)
        if not job.terminal:
            return json_response(
                {"error": f"job {job_id} is {job.state}; result not "
                          f"ready", "state": job.state},
                status=409)
        if job.state != DONE:
            return json_response(
                {"error": f"job {job_id} ended {job.state}: "
                          f"{job.error or 'no result'}",
                 "state": job.state},
                status=409)
        assert job.result is not None
        return json_response(job.result)

    async def _handle_events(self, request: Request,
                             job_id: str) -> "Response | StreamResponse":
        job = self._job_or_none(job_id)
        if job is None:
            return json_response({"error": f"no job {job_id!r}"},
                                 status=404)
        return StreamResponse(
            chunks=job_event_stream(job),
            headers={"Content-Type": "text/event-stream",
                     "Cache-Control": "no-cache"})

    # ---- cancellation ----------------------------------------------------

    async def _handle_cancel(self, request: Request,
                             job_id: str) -> Response:
        job = self._job_or_none(job_id)
        if job is None:
            return json_response({"error": f"no job {job_id!r}"},
                                 status=404)
        if job.terminal:
            return json_response(job.status_payload())  # idempotent
        if job.state == QUEUED:
            job.cancel.cancel("cancelled while queued")
            job.mark_finished(CANCELLED, error="cancelled before start")
            self.admission.on_cancel_queued(job.client)
            return json_response(job.status_payload())
        # Running: trip the token (and its shared flag); the cell
        # unwinds at the next kernel boundary (or cell start) and
        # abandons its shared-cache claim.
        job.cancel.cancel("cancelled by client")
        return json_response(job.status_payload(), status=202)

    # ---- health + metrics ------------------------------------------------

    async def _handle_health(self, request: Request) -> Response:
        return json_response({"status": "ok",
                              "jobs": len(self.jobs),
                              "running": self.admission.running})

    async def _handle_metrics(self, request: Request) -> Response:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        with self._stats_lock:
            cache = self.cache.stats.to_dict()
        return json_response({
            "admission": self.admission.snapshot(),
            "cache": cache,
            "jobs_by_state": states,
            "server": self.metrics.to_dict(include_children=False),
        })

    # ---- scheduling + execution ------------------------------------------

    async def start_background(self) -> None:
        """Fork the cell pool and start running queued jobs (idempotent).

        The pool forks here, from the event loop's thread, before any
        job thread exists and before :meth:`start` binds the listener.
        """
        if self._pool is None and _fork_available():
            self._pool = ForkPool(self.admission.max_inflight,
                                  serving=True)
            self._pool.start()
        self._scheduling = True
        self._start_queued()

    async def stop_background(self) -> None:
        """Stop starting jobs; stop the job threads and the cell pool."""
        self._scheduling = False
        for job in self.jobs.values():
            if not job.terminal:
                job.cancel.cancel("server shutting down")
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            # Running cells see their job's cancel flag at the next
            # kernel boundary; then the workers exit.
            self._pool.shutdown()
            self._pool = None

    def _start_queued(self) -> None:
        """Start queued jobs on job threads while slots are free (on the
        event loop's thread: at start, on submission, and whenever a job
        ends)."""
        loop = asyncio.get_running_loop()
        while self.admission.has_slot():
            job = self.queue.pop()
            if job is None:
                break
            job.mark_started()
            self.admission.on_start(job.client)
            future = loop.run_in_executor(self._executor,
                                          self._run_job, job)
            future.add_done_callback(
                functools.partial(self._on_job_done, job))

    def _on_job_done(self, job: Job, _future: "asyncio.Future") -> None:
        """Runs on the event loop thread when a job thread finishes."""
        self.admission.on_finish(job.client, job.run_seconds)
        self.metrics.count(f"jobs_{job.state}")
        self.metrics.observe("job_seconds", job.run_seconds)
        if self._scheduling:
            self._start_queued()

    def _run_job(self, job: Job) -> None:
        """Job-thread body: run the job's sweep through the shared cache,
        its cells on the fork pool (one cell per work unit, so progress
        arrives per cell), then publish the result and the terminal
        state.

        Each job gets its own cache *instance* over the server's root +
        salt so its stats start at zero — the result reports exactly
        this job's hit/dedupe behavior, including what its cells did in
        pool workers — then folds them into the server-wide counters.
        """
        cache = SharedResultCache(root=self.cache.root,
                                  salt=self.cache.salt,
                                  lease_seconds=self.cache.lease_seconds,
                                  poll_seconds=self.cache.poll_seconds)
        pool = self._pool
        try:
            with (pool.cancel_slot(job.cancel) if pool is not None
                  else contextlib.nullcontext()):
                sweep = SweepRunner(cache=cache, tracer=job.tracer,
                                    executor=pool, batch_size=1).run(
                    job.submission.spec)
            job.result = {
                "id": job.id,
                "state": DONE,
                "results": sweep.to_dicts(),
                "report": sweep.report.to_dict(),
                "cache": cache.stats.to_dict(),
            }
            job.cache_stats = cache.stats.to_dict()
            job.mark_finished(DONE)
        except JobCancelled as exc:
            job.cache_stats = cache.stats.to_dict()
            job.mark_finished(CANCELLED, error=job.cancel.reason or str(exc))
        except Exception as exc:
            job.cache_stats = cache.stats.to_dict()
            job.mark_finished(
                FAILED, error=f"{type(exc).__name__}: {exc}")
        finally:
            with self._stats_lock:
                self.cache.stats.merge(cache.stats.snapshot())

    # ---- network face ----------------------------------------------------

    async def start(self, host: str = DEFAULT_HOST,
                    port: int = DEFAULT_PORT) -> asyncio.AbstractServer:
        """Bind the stdlib server and start running jobs; returns the
        bound :class:`asyncio.Server` (``port=0`` picks a free port —
        read it off ``server.sockets[0].getsockname()``)."""
        await self.start_background()
        self._server = await asyncio.start_server(
            functools.partial(serve_connection, self.dispatch),
            host, port)
        return self._server

    async def stop(self) -> None:
        """Close the listener and the background machinery."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.stop_background()

    async def serve(self, host: str = DEFAULT_HOST,
                    port: int = DEFAULT_PORT,
                    ready: Optional[Callable[[str], None]] = None) -> None:
        """Serve until cancelled (the blocking entry point). On the main
        thread, SIGTERM cancels it like SIGINT does, so both shut the
        cell pool down."""
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        with contextlib.suppress(ValueError, RuntimeError,
                                 NotImplementedError):
            loop.add_signal_handler(signal.SIGTERM, task.cancel)
        server = await self.start(host, port)
        if ready is not None:
            bound = server.sockets[0].getsockname()
            ready(f"http://{bound[0]}:{bound[1]}")
        try:
            async with server:
                await server.serve_forever()
        finally:
            await self.stop_background()


def run(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
        cache: Union[SharedResultCache, str, None] = None,
        max_inflight: int = 2, max_queue_depth: int = 64,
        client_quota: int = 8,
        ready: Optional[Callable[[str], None]] = None) -> None:
    """Build a :class:`ReproServer` and serve it on the built-in asyncio
    server until interrupted; ``ready`` is called with the bound URL."""
    server = ReproServer(cache=cache, max_inflight=max_inflight,
                         max_queue_depth=max_queue_depth,
                         client_quota=client_quota)
    try:
        asyncio.run(server.serve(host, port, ready=ready))
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass  # SIGINT or SIGTERM: the server has shut down in order
