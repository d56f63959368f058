"""Server-Sent Events: the ``GET /v1/jobs/{id}/events`` stream.

SSE (``text/event-stream``) over the stdlib server: one long-lived
response whose body is a sequence of ``event:``/``id:``/``data:``
frames, consumable with ``curl -N`` or a browser ``EventSource``. The
stream bridges a job's :class:`~repro.obs.streaming.StreamingTracer`
into the asyncio response without polling: it subscribes a wake-up to
the tracer, which the job thread calls (through
``loop.call_soon_threadsafe``) whenever events arrive and when the job
reaches a terminal state. Each wake-up drains whatever arrived since
the stream's cursor and writes it as one chunk; once the job is
terminal *and* the backlog is flushed, one final ``done`` frame closes
the stream. A timed wait remains only for keep-alive comments.

Event schema (``data:`` is one JSON object per frame)::

    event: kernel | run | sweep | memo | shard | done
    id:    <monotone sequence number within the job>
    data:  {"phase": "...", ...tracepoint args}

Kernel frames arrive in exactly the simulator's emission order — the
same order :class:`~repro.obs.EventTracer` records — so a streamed
timeline can be replayed against a recorded one
(``tests/test_server.py`` pins this). A cell computed on the server's
fork pool delivers its run and kernel frames together, when the cell
completes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict

from repro.obs.tracer import Event

__all__ = ["format_frame", "job_event_stream"]

#: Seconds of silence after which the stream sends a keep-alive
#: comment, so proxies and clients see a live connection.
KEEPALIVE_SECONDS = 5.0

#: ``json.dumps(..., sort_keys=True)`` without building an encoder per
#: frame.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def format_frame(event: Event) -> bytes:
    """One tracer event as an SSE frame."""
    data = dict(event.args)
    data["phase"] = event.phase
    return (f"event: {event.kind}\n"
            f"id: {event.seq}\n"
            f"data: {_ENCODE(data)}\n\n").encode()


def done_frame(payload: Dict[str, Any]) -> bytes:
    """The terminal frame closing every job stream."""
    return (f"event: done\ndata: "
            f"{json.dumps(payload, sort_keys=True)}\n\n").encode()


class _Wake:
    """One stream's wake-up call: callable from any thread, awaited on
    the stream's event loop. At most one wake-up is pending at a time."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._event = asyncio.Event()
        self._pending = False

    def __call__(self) -> None:
        if self._pending:
            return
        self._pending = True
        try:
            self._loop.call_soon_threadsafe(self._event.set)
        except RuntimeError:
            pass  # the loop is closed: nobody is waiting any more

    async def wait(self, timeout: float) -> bool:
        """Wait for a wake-up; ``False`` if ``timeout`` passed first.

        The pending mark is cleared before returning, ahead of the
        caller's drain, so news that arrives during the drain schedules
        the next wake-up instead of being lost.
        """
        try:
            await asyncio.wait_for(self._event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False
        finally:
            self._event.clear()
            self._pending = False


async def job_event_stream(job: "Any",
                           keepalive_seconds: float = KEEPALIVE_SECONDS,
                           ) -> AsyncIterator[bytes]:
    """Async byte-chunk iterator over one job's live event feed.

    ``job`` is a :class:`~repro.server.queue.Job`; the stream works for
    queued, running, and already-finished jobs alike (a finished job
    replays its whole buffered feed, then closes — SSE consumers that
    connect late still see every frame).
    """
    tracer = job.tracer
    wake = _Wake(asyncio.get_running_loop())
    tracer.subscribe(wake)
    try:
        cursor = 0
        while True:
            cursor, events = tracer.drain(cursor)
            chunk = b"".join(format_frame(event) for event in events)
            if job.terminal:
                # Drain once more: the job thread may have appended
                # between our drain and the state read.
                cursor, events = tracer.drain(cursor)
                chunk += b"".join(format_frame(event) for event in events)
                payload: Dict[str, Any] = {
                    "state": job.state,
                    "cells_done": tracer.cells_done,
                    "kernels_done": tracer.kernels_done,
                    "events": cursor,
                }
                if tracer.dropped:
                    payload["events_dropped"] = tracer.dropped
                if job.error is not None:
                    payload["error"] = job.error
                yield chunk + done_frame(payload)
                return
            if chunk:
                yield chunk
            if not await wake.wait(keepalive_seconds):
                yield b": keep-alive\n\n"
    finally:
        tracer.unsubscribe(wake)
