"""Streaming tracer: live, thread-safe event feed for the job server.

:class:`StreamingTracer` implements the :class:`~repro.obs.tracer.Tracer`
protocol for a consumer on *another thread*: the job's events are
appended from a job thread, while an asyncio SSE handler
:meth:`~StreamingTracer.drain`\\ s whatever arrived since its cursor and
forwards it to the client. Consumers :meth:`~StreamingTracer.subscribe`
a callable that is called whenever events arrive (and, through
:meth:`~StreamingTracer.notify`, when the job ends), so they wait for
news instead of polling. Only the coarse progress hooks record (run,
kernel, memo, sweep-cell, shard) — the per-access firehose stays off,
so streaming costs one list append per kernel boundary, not per cache
line.

Events carry the same ``seq``/``kind``/``phase``/``args`` structure as
:class:`~repro.obs.tracer.EventTracer`'s, emitted from the same
tracepoint call sites in the same order, so a streamed kernel timeline
is ordering-identical to a recorded one (``tests/test_server.py`` pins
this). A cell computed in a forked pool worker is recorded there by a
tracer of its own; the worker ships the events beside the cell's
payload and the parent :meth:`~StreamingTracer.replay`\\ s them, in
order, into the job's tracer — a whole cell's frames at once.

The tracer doubles as the engine's *in-band cancellation point*: give
it a :class:`~repro.engine.jobs.CancelToken` (in a worker, a
:class:`~repro.engine.jobs.SharedFlag`) and a tripped token raises
:class:`~repro.errors.JobCancelled` at the next cell start or kernel
boundary, unwinding the cell so its shared-cache claim is abandoned
rather than left to expire. This is the one deliberate exception to
tracer purity — a cancelled run produces no result at all, never a
different one.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Event, Tracer

__all__ = ["StreamingTracer"]

#: A recorded event as shipped across the fork: ``(kind, phase, args)``.
ShippedEvent = Tuple[str, str, Dict[str, Any]]


class StreamingTracer(Tracer):
    """Thread-safe progress tracer with an incremental drain cursor.

    Attributes:
        cancel: Optional :class:`~repro.engine.jobs.CancelToken`
            observed at cell starts and kernel boundaries.
        kernels_done: Kernels completed so far (across all runs).
        runs_done: Simulations completed so far.
        cells_done: Sweep cells finished so far (``phase="end"``).
    """

    enabled = True

    def __init__(self, cancel: "Optional[Any]" = None,
                 max_events: int = 100_000) -> None:
        self.cancel = cancel
        self.kernels_done = 0
        self.runs_done = 0
        self.cells_done = 0
        self._events: List[Event] = []
        self._dropped = 0
        self._max_events = max_events
        self._seq = 0
        self._lock = threading.Lock()
        self._listeners: Tuple[Callable[[], None], ...] = ()

    # ---- event plumbing -------------------------------------------------

    def _append(self, kind: str, phase: str, args: Dict[str, Any]) -> None:
        """Record one event; the caller holds the lock."""
        if len(self._events) >= self._max_events:
            # Bound memory on pathological sweeps; the counter keeps
            # the loss visible to consumers instead of silent.
            self._dropped += 1
        else:
            self._events.append(Event(seq=self._seq, ts=0.0, kind=kind,
                                      phase=phase, args=args))
        self._seq += 1

    def _emit(self, kind: str, phase: str, args: Dict[str, Any]) -> None:
        with self._lock:
            self._append(kind, phase, args)
        if self._listeners:
            self.notify()

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` (from the recording thread) whenever
        events arrive or :meth:`notify` is called."""
        with self._lock:
            self._listeners += (listener,)

    def unsubscribe(self, listener: Callable[[], None]) -> None:
        """Stop calling ``listener``."""
        with self._lock:
            self._listeners = tuple(each for each in self._listeners
                                    if each is not listener)

    def notify(self) -> None:
        """Call every subscribed listener."""
        for listener in self._listeners:
            listener()

    def shipped(self) -> List[ShippedEvent]:
        """Every recorded event as ``(kind, phase, args)``, for
        :meth:`replay` in another process."""
        with self._lock:
            return [(e.kind, e.phase, e.args) for e in self._events]

    def replay(self, events: Sequence[ShippedEvent]) -> None:
        """Append events another tracer recorded (a forked worker's
        :meth:`shipped`), in order, under this tracer's sequence
        numbers, and advance the progress counters as if they had been
        recorded here. No cancellation check: the work they describe is
        done."""
        with self._lock:
            for kind, phase, args in events:
                if kind == "kernel" and phase == "complete":
                    self.kernels_done += 1
                elif kind == "run" and phase == "end":
                    self.runs_done += 1
                self._append(kind, phase, args)
        if self._listeners:
            self.notify()

    def drain(self, cursor: int = 0) -> Tuple[int, List[Event]]:
        """Events recorded at positions >= ``cursor``; returns the new
        cursor. Safe to call from any thread while the simulation runs;
        repeated calls with the returned cursor see every event exactly
        once, in emission order."""
        with self._lock:
            events = self._events[cursor:]
            return cursor + len(events), events

    @property
    def dropped(self) -> int:
        """Events discarded after ``max_events`` was reached."""
        return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # ---- progress hooks --------------------------------------------------

    def run_begin(self, *, workload: str, protocol: str, num_chiplets: int,
                  clock_hz: float, trace_path: str = "") -> None:
        self._emit("run", "begin", {
            "workload": workload, "protocol": protocol,
            "num_chiplets": num_chiplets, "trace_path": trace_path})

    def run_end(self, *, wall_cycles: float, kernels: int) -> None:
        self.runs_done += 1
        self._emit("run", "end",
                   {"wall_cycles": wall_cycles, "kernels": kernels})

    def kernel_launch(self, *, name: str, index: int, stream: int,
                      chiplets: "tuple | list") -> None:
        self._emit("kernel", "launch", {
            "name": name, "index": index, "stream": stream,
            "chiplets": list(chiplets)})

    def kernel_complete(self, *, name: str, index: int, stream: int,
                        cycles: float, sync_cycles: float = 0.0,
                        lines: int = 0, lines_flushed: int = 0,
                        lines_invalidated: int = 0,
                        memo: Optional[str] = None) -> None:
        self.kernels_done += 1
        args: Dict[str, Any] = {
            "name": name, "index": index, "stream": stream,
            "cycles": cycles, "sync_cycles": sync_cycles}
        if memo is not None:
            args["memo"] = memo
        self._emit("kernel", "complete", args)
        if self.cancel is not None:
            # The kernel boundary is the engine's cancellation point:
            # unwinding here abandons the cell's shared-cache claim.
            self.cancel.raise_if_set()

    def memo_event(self, *, outcome: str, name: str, index: int) -> None:
        self._emit("memo", outcome, {"name": name, "index": index})

    def sweep_begin(self, *, label: str, cells: int) -> None:
        self._emit("sweep", "begin", {"label": label, "cells": cells})

    def sweep_cell(self, *, phase: str, label: str, cached: bool = False,
                   seconds: float = 0.0) -> None:
        if phase == "begin" and self.cancel is not None:
            # A cancelled job stops before its next cell claims anything.
            self.cancel.raise_if_set()
        if phase == "end":
            self.cells_done += 1
        self._emit("sweep", f"cell-{phase}", {
            "label": label, "cached": cached, "seconds": seconds})

    def shard_event(self, *, phase: str, shard: int, worker: str = "",
                    cells: int = 0, executed: int = 0, hits: int = 0,
                    deduped: int = 0, seconds: float = 0.0) -> None:
        self._emit("shard", phase, {
            "shard": shard, "worker": worker, "cells": cells,
            "executed": executed, "hits": hits, "deduped": deduped,
            "seconds": seconds})
