"""Job model and priority queue of the simulation service.

A :class:`Job` is one admitted submission: a validated
:class:`~repro.engine.spec.SweepSpec` plus its queue metadata, its
:class:`~repro.obs.streaming.StreamingTracer` (the SSE feed, whose
subscribers are also woken when the job reaches a terminal state), its
:class:`~repro.engine.jobs.CancelToken`, and — once finished — its
serialized results. Jobs live in memory for the server's lifetime and
are looked up by an unguessable hex id.

:class:`JobQueue` orders queued jobs by ``(priority desc, arrival)``:
higher ``priority`` runs sooner, ties run first-come-first-served. The
queue is only touched from the asyncio thread (submission handlers and
the scheduler loop); job *state* is additionally written by the worker
thread executing the job, which is safe because every cross-thread
field is a single atomic assignment read for display only.

Timekeeping follows the cache layer's rule: wall-clock timestamps
(``time.time()``) are reported to clients, but every *duration* (queue
wait, run time) is measured between ``time.monotonic()`` samples so a
wall-clock step cannot produce negative or inflated latencies.
"""

from __future__ import annotations

import heapq
import itertools
import secrets
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.jobs import CancelToken
from repro.obs.streaming import StreamingTracer
from repro.server.schemas import Submission

__all__ = ["Job", "JobQueue",
           "QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED"]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can no longer leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


def _job_id() -> str:
    return secrets.token_hex(8)


@dataclass
class Job:
    """One admitted submission, across its whole lifecycle."""

    submission: Submission
    id: str = field(default_factory=_job_id)
    state: str = QUEUED
    #: Wall-clock timestamps for display.
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic marks for durations.
    _created_mono: float = field(default_factory=time.monotonic)
    _started_mono: Optional[float] = None
    _finished_mono: Optional[float] = None
    #: Progress + results, written by the worker thread.
    cells_total: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    cache_stats: Optional[Dict[str, int]] = None
    tracer: StreamingTracer = field(default=None)  # type: ignore[assignment]
    cancel: CancelToken = field(default_factory=CancelToken)

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = StreamingTracer(cancel=self.cancel)
        self.cells_total = self.submission.cells

    # ------------------------------------------------------------------

    @property
    def client(self) -> str:
        return self.submission.client

    @property
    def priority(self) -> int:
        return self.submission.priority

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def mark_started(self) -> None:
        self.state = RUNNING
        self.started_at = time.time()
        self._started_mono = time.monotonic()

    def mark_finished(self, state: str, error: Optional[str] = None) -> None:
        self.state = state
        self.error = error
        self.finished_at = time.time()
        self._finished_mono = time.monotonic()
        # Wake the job's event streams: the terminal state is news too.
        self.tracer.notify()

    # ------------------------------------------------------------------

    @property
    def queue_seconds(self) -> float:
        """Monotonic time spent queued (ongoing if not started)."""
        end = self._started_mono
        if end is None:
            end = (self._finished_mono if self._finished_mono is not None
                   else time.monotonic())
        return max(0.0, end - self._created_mono)

    @property
    def run_seconds(self) -> float:
        """Monotonic time spent running (ongoing if not finished)."""
        if self._started_mono is None:
            return 0.0
        end = (self._finished_mono if self._finished_mono is not None
               else time.monotonic())
        return max(0.0, end - self._started_mono)

    def status_payload(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` body."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "client": self.client,
            "priority": self.priority,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": round(self.queue_seconds, 3),
            "run_seconds": round(self.run_seconds, 3),
            "progress": {
                "cells_total": self.cells_total,
                "cells_done": self.tracer.cells_done,
                "runs_done": self.tracer.runs_done,
                "kernels_done": self.tracer.kernels_done,
                "events": len(self.tracer),
            },
            "spec": self.submission.spec.to_payload(),
            "links": {
                "self": f"/v1/jobs/{self.id}",
                "result": f"/v1/jobs/{self.id}/result",
                "events": f"/v1/jobs/{self.id}/events",
            },
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.cache_stats is not None:
            payload["cache"] = self.cache_stats
        return payload


class JobQueue:
    """Priority queue of queued jobs (higher priority first, then FIFO).

    Cancelled-while-queued jobs stay in the heap (removal from the
    middle of a heap is O(n)); :meth:`pop` simply skips them — they
    already left the admission accounting via ``on_cancel_queued``.
    """

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._counter = itertools.count()

    def push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, next(self._counter), job))

    def pop(self) -> Optional[Job]:
        """Highest-priority queued job, or ``None`` when drained."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state == QUEUED and not job.cancel.cancelled:
                return job
        return None

    def __len__(self) -> int:
        return sum(1 for _, _, job in self._heap
                   if job.state == QUEUED and not job.cancel.cancelled)
