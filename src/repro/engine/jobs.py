"""Job handles: cancellation tokens for long-running engine work.

The sweep engine's unit of work is one cell — a single simulation that,
once started, runs for seconds. Anything that owns such work on behalf
of someone else (the HTTP job server) needs to stop it from another
thread, or from another process. A :class:`CancelToken` is that switch.
The runner takes no token: the job's
:class:`~repro.obs.streaming.StreamingTracer` observes it at the start
of every cell and at every kernel boundary, raising
:class:`~repro.errors.JobCancelled`. A cell that runs in a forked pool
worker sees the token through a shared flag byte (:meth:`CancelToken.share`,
read there by a :class:`SharedFlag`). A cell unwound mid-compute
**abandons its shared-cache claim** (see
:func:`repro.engine.runner.run_job_shared`), so waiters on the same
cell take over at once rather than after a full lease.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import JobCancelled

__all__ = ["CancelToken", "JobCancelled", "SharedFlag"]


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
        #: ``(flags, slot)`` while the token is mirrored into a shared
        #: flag array (see :meth:`share`).
        self._shared: Optional[Any] = None

    @property
    def slot(self) -> Optional[int]:
        """The shared flag slot this token is mirrored into, if any."""
        shared = self._shared
        return None if shared is None else shared[1]

    def share(self, flags: Any, slot: int) -> None:
        """Mirror the token into ``flags[slot]`` (a byte array in shared
        memory, inherited by forked workers) until :meth:`unshare`.

        The slot is cleared before the token is attached and set again
        if the token tripped meanwhile, so a concurrent :meth:`cancel`
        is never lost.
        """
        flags[slot] = 0
        self._shared = (flags, slot)
        if self._event.is_set():
            flags[slot] = 1

    def unshare(self) -> None:
        """Stop mirroring (the slot may then serve another token)."""
        self._shared = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Trip the token (idempotent; the first reason wins)."""
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()
        shared = self._shared
        if shared is not None:
            flags, slot = shared
            flags[slot] = 1

    @property
    def cancelled(self) -> bool:
        """Whether the token has been tripped."""
        return self._event.is_set()

    def raise_if_set(self) -> None:
        """Raise :class:`~repro.errors.JobCancelled` if tripped."""
        if self._event.is_set():
            raise JobCancelled(self.reason or "job cancelled")


class SharedFlag:
    """A forked worker's read-only view of one :meth:`CancelToken.share`
    slot, with the token's :meth:`~CancelToken.raise_if_set` check."""

    def __init__(self, flags: Any, slot: int) -> None:
        self._flags = flags
        self._slot = slot

    def raise_if_set(self) -> None:
        """Raise :class:`~repro.errors.JobCancelled` if the slot is set."""
        if self._flags[self._slot]:
            raise JobCancelled("job cancelled")
