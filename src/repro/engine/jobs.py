"""Job handles: cancellation tokens for long-running engine work.

The sweep engine's unit of work is one cell — a single simulation that,
once started, runs for seconds. Anything that owns such work on behalf
of someone else (the HTTP job server) needs to stop it from another
thread. A :class:`CancelToken` is that switch. The runner takes no
token: the job's :class:`~repro.obs.streaming.StreamingTracer` observes
it at the start of every in-process cell and at every kernel boundary,
raising :class:`~repro.errors.JobCancelled`. A cell unwound mid-compute
**abandons its shared-cache claim** (see
:func:`repro.engine.runner.run_job_shared`), so waiters on the same
cell take over at once rather than after a full lease.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import JobCancelled

__all__ = ["CancelToken", "JobCancelled"]


class CancelToken:
    """A thread-safe, one-way cancellation flag.

    ``cancel()`` may be called from any thread (typically an asyncio
    handler reacting to ``POST /v1/jobs/{id}/cancel`` while the job runs
    in an executor thread). The running side calls :meth:`raise_if_set`
    at its check points — cell starts and kernel boundaries, through
    :class:`~repro.obs.streaming.StreamingTracer` — which raises
    :class:`~repro.errors.JobCancelled` carrying ``reason``.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Trip the token (idempotent; the first reason wins)."""
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether the token has been tripped."""
        return self._event.is_set()

    def raise_if_set(self) -> None:
        """Raise :class:`~repro.errors.JobCancelled` if tripped."""
        if self._event.is_set():
            raise JobCancelled(self.reason or "job cancelled")
