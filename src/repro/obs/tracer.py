"""Kernel-boundary event tracing: the ``Tracer`` protocol.

The simulator, command processors, coherence table, and sweep engine are
instrumented with *tracepoints* — calls on the tracer they were handed.
Two implementations exist:

* :class:`NullTracer` (the default, exported as :data:`NULL_TRACER`):
  every tracepoint is an empty method and ``enabled`` is ``False``, so
  hot paths can skip even building event arguments. Simulations without
  a tracer attached pay one attribute check per *batch*, never per line.
* :class:`EventTracer`: records structured, timestamped
  :class:`Event`\\ s and feeds a hierarchical
  :class:`~repro.obs.metrics.MetricRegistry` (per-kernel scopes nested
  in per-run scopes). Timestamps are **simulated GPU cycles** on the
  owning stream's clock — deterministic, so traced runs are exactly
  reproducible — plus a global monotone sequence number.

Tracers are pure observers: every tracepoint receives copies of values
the simulator already computed, and nothing in the simulator reads
tracer state, so a traced run is bit-identical to an untraced one
(``tests/test_obs_differential.py`` is the referee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricRegistry

__all__ = ["Event", "EventTracer", "NULL_TRACER", "NullTracer", "Tracer"]


@dataclass
class Event:
    """One structured trace event.

    Attributes:
        seq: Global monotone sequence number (emission order).
        ts: Timestamp in simulated GPU cycles on the owning stream's
            clock (events at a kernel boundary carry the boundary's
            position; sweep-level events carry 0).
        kind: Event family (``run``, ``kernel``, ``sync``, ``table``,
            ``access``, ``memo``, ``dir``, ``lease``, ``sweep``).
        phase: Family-specific phase (``launch``, ``complete``,
            ``acquire``, ``insert``, …).
        args: Flat JSON-serializable payload.
    """

    seq: int
    ts: float
    kind: str
    phase: str
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump (one JSONL record)."""
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind,
                "phase": self.phase, "args": self.args}


class Tracer:
    """The tracepoint protocol; every hook is a no-op.

    Subclass and override what you need. ``enabled`` gates the hot-path
    tracepoints: instrumentation that would build non-trivial arguments
    checks it first, so a disabled tracer costs one attribute read.
    """

    enabled: bool = False

    # ---- run scope -----------------------------------------------------

    def run_begin(self, *, workload: str, protocol: str, num_chiplets: int,
                  clock_hz: float, trace_path: str = "") -> None:
        """One simulation starts."""

    def run_end(self, *, wall_cycles: float, kernels: int) -> None:
        """The simulation that :meth:`run_begin` opened finished."""

    # ---- kernel boundaries ---------------------------------------------

    def kernel_launch(self, *, name: str, index: int, stream: int,
                      chiplets: "tuple | list") -> None:
        """The global CP is launching a kernel (before its sync ops)."""

    def kernel_complete(self, *, name: str, index: int, stream: int,
                        cycles: float, sync_cycles: float = 0.0,
                        lines: int = 0, lines_flushed: int = 0,
                        lines_invalidated: int = 0,
                        memo: Optional[str] = None) -> None:
        """A kernel's metrics are final; advances the stream clock."""

    # ---- synchronization -----------------------------------------------

    def sync_op(self, *, kind: str, chiplet: int, reason: str,
                lines_flushed: int, lines_invalidated: int,
                boundary: str) -> None:
        """One acquire/release executed at a local CP, with its ACK line
        volumes. ``boundary`` is ``launch``, ``completion``, or
        ``run-end``."""

    # ---- Chiplet Coherence Table ---------------------------------------

    def table_insert(self, *, name: str, base: int, end: int,
                     rows: int) -> None:
        """A table row was created (``rows`` = occupancy after)."""

    def table_evict(self, *, name: str, base: int, end: int, rows: int,
                    reason: str) -> None:
        """A row left the table (overflow eviction, merge, or empty)."""

    def table_transition(self, *, name: str, chiplet: int, old: str,
                         new: str) -> None:
        """One chiplet's 2-bit state moved along a Fig. 6 edge."""

    # ---- demand accesses ------------------------------------------------

    def access_batch(self, *, arg: str, chiplet: int, lines: int,
                     local_lines: int, loads: bool, stores: bool) -> None:
        """One argument's per-chiplet slice was swept (local vs remote
        split per first-touch homes)."""

    # ---- memoization ----------------------------------------------------

    def memo_event(self, *, outcome: str, name: str, index: int) -> None:
        """Memo trace path: ``hit`` or ``miss``."""

    # ---- HMG directory ---------------------------------------------------

    def directory_event(self, *, action: str, chiplet: int,
                        sharers: int = 0) -> None:
        """HMG per-home directory activity (``evict``/``invalidate``)."""

    # ---- timestamp leases -------------------------------------------------

    def lease_event(self, *, action: str, chiplet: int) -> None:
        """Timestamp-protocol self-invalidation (``expiry`` when the
        lease aged out, ``stale`` when a newer remote write stamped the
        line)."""

    # ---- sweep engine ----------------------------------------------------

    def sweep_begin(self, *, label: str, cells: int) -> None:
        """A sweep is about to execute ``cells`` jobs."""

    def sweep_cell(self, *, phase: str, label: str, cached: bool = False,
                   seconds: float = 0.0) -> None:
        """A sweep cell changed state (``begin``/``end``)."""

    def shard_event(self, *, phase: str, shard: int, worker: str = "",
                    cells: int = 0, executed: int = 0, hits: int = 0,
                    deduped: int = 0, seconds: float = 0.0) -> None:
        """Distributed engine: one work unit changed state.

        ``phase`` is ``scatter`` (the unit was created), ``begin``, or
        ``end`` (with the executing worker's id and its per-unit
        counters: cells executed, served from the shared cache, and
        served from another worker's in-flight computation)."""


class NullTracer(Tracer):
    """The zero-overhead default tracer (all hooks inherited no-ops)."""


#: Shared do-nothing tracer instance wired in wherever none was given.
NULL_TRACER = NullTracer()


class EventTracer(Tracer):
    """Records structured events and aggregates hierarchical metrics.

    Attributes:
        events: Every recorded :class:`Event`, in emission order.
        metrics: Root :class:`MetricRegistry`; each run gets a child
            scope (``run:NNN:<workload>/<protocol>``) holding per-kernel
            child scopes (``kernel:NNNN:<name>``). Use
            ``metrics.aggregate()`` for sweep-level totals.
        clock_hz: GPU clock of the most recent run (drives the
            cycles→microseconds conversion in the Chrome exporter).
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.metrics = MetricRegistry("trace")
        self.clock_hz: float = 1e9
        self._seq = 0
        self._runs = 0
        self._stream_clocks: Dict[int, float] = {}
        self._run_reg: Optional[MetricRegistry] = None
        self._kernel_reg: Optional[MetricRegistry] = None
        self._boundary_ts = 0.0

    # ---- internals -----------------------------------------------------

    def _emit(self, kind: str, phase: str, ts: float,
              args: Dict[str, Any]) -> Event:
        event = Event(seq=self._seq, ts=ts, kind=kind, phase=phase,
                      args=args)
        self._seq += 1
        self.events.append(event)
        return event

    def _scope(self) -> MetricRegistry:
        """Innermost open metric scope (kernel > run > root)."""
        if self._kernel_reg is not None:
            return self._kernel_reg
        if self._run_reg is not None:
            return self._run_reg
        return self.metrics

    # ---- run scope -----------------------------------------------------

    def run_begin(self, *, workload: str, protocol: str, num_chiplets: int,
                  clock_hz: float, trace_path: str = "") -> None:
        self.clock_hz = clock_hz
        self._stream_clocks = {}
        self._boundary_ts = 0.0
        self._run_reg = self.metrics.child(
            f"run:{self._runs:03d}:{workload}/{protocol}")
        self._runs += 1
        self._kernel_reg = None
        self._emit("run", "begin", 0.0, {
            "workload": workload, "protocol": protocol,
            "num_chiplets": num_chiplets, "clock_hz": clock_hz,
            "trace_path": trace_path})

    def run_end(self, *, wall_cycles: float, kernels: int) -> None:
        if self._run_reg is not None:
            self._run_reg.observe("run.wall_cycles", wall_cycles)
            self._run_reg.count("run.kernels", kernels)
        self._emit("run", "end", wall_cycles,
                   {"wall_cycles": wall_cycles, "kernels": kernels})
        self._run_reg = None
        self._kernel_reg = None

    # ---- kernel boundaries ---------------------------------------------

    def kernel_launch(self, *, name: str, index: int, stream: int,
                      chiplets: "tuple | list") -> None:
        ts = self._stream_clocks.get(stream, 0.0)
        self._boundary_ts = ts
        parent = self._run_reg if self._run_reg is not None else self.metrics
        self._kernel_reg = parent.child(f"kernel:{index:04d}:{name}")
        self._kernel_reg.count("kernel.launches")
        self._kernel_reg.gauge("kernel.chiplets_used", len(chiplets))
        self._emit("kernel", "launch", ts, {
            "name": name, "index": index, "stream": stream,
            "chiplets": list(chiplets)})

    def kernel_complete(self, *, name: str, index: int, stream: int,
                        cycles: float, sync_cycles: float = 0.0,
                        lines: int = 0, lines_flushed: int = 0,
                        lines_invalidated: int = 0,
                        memo: Optional[str] = None) -> None:
        start = self._stream_clocks.get(stream, 0.0)
        self._stream_clocks[stream] = start + cycles
        scope = self._scope()
        scope.observe("kernel.cycles", cycles)
        if sync_cycles:
            scope.observe("kernel.sync_cycles", sync_cycles)
        if lines:
            scope.count("access.trace_lines", lines)
        args: Dict[str, Any] = {
            "name": name, "index": index, "stream": stream,
            "cycles": cycles, "sync_cycles": sync_cycles, "lines": lines,
            "lines_flushed": lines_flushed,
            "lines_invalidated": lines_invalidated}
        if memo is not None:
            args["memo"] = memo
        self._emit("kernel", "complete", start + cycles, args)
        self._kernel_reg = None
        self._boundary_ts = start + cycles

    # ---- synchronization -----------------------------------------------

    def sync_op(self, *, kind: str, chiplet: int, reason: str,
                lines_flushed: int, lines_invalidated: int,
                boundary: str) -> None:
        scope = self._scope()
        scope.count(f"sync.{kind}s")
        if lines_flushed:
            scope.count("sync.lines_flushed", lines_flushed)
            scope.observe("sync.flush_lines_per_op", lines_flushed)
        if lines_invalidated:
            scope.count("sync.lines_invalidated", lines_invalidated)
            scope.observe("sync.invalidate_lines_per_op", lines_invalidated)
        self._emit("sync", kind, self._boundary_ts, {
            "chiplet": chiplet, "reason": reason,
            "lines_flushed": lines_flushed,
            "lines_invalidated": lines_invalidated, "boundary": boundary})

    # ---- Chiplet Coherence Table ---------------------------------------

    def table_insert(self, *, name: str, base: int, end: int,
                     rows: int) -> None:
        scope = self._scope()
        scope.count("table.inserts")
        scope.gauge("table.rows", rows)
        self._emit("table", "insert", self._boundary_ts, {
            "name": name, "base": base, "end": end, "rows": rows})

    def table_evict(self, *, name: str, base: int, end: int, rows: int,
                    reason: str) -> None:
        scope = self._scope()
        scope.count(f"table.evictions.{reason}")
        self._emit("table", "evict", self._boundary_ts, {
            "name": name, "base": base, "end": end, "rows": rows,
            "reason": reason})

    def table_transition(self, *, name: str, chiplet: int, old: str,
                         new: str) -> None:
        self._scope().count(f"table.transitions.{old}->{new}")
        self._emit("table", "transition", self._boundary_ts, {
            "name": name, "chiplet": chiplet, "old": old, "new": new})

    # ---- demand accesses ------------------------------------------------

    def access_batch(self, *, arg: str, chiplet: int, lines: int,
                     local_lines: int, loads: bool, stores: bool) -> None:
        scope = self._scope()
        scope.count("access.local_lines", local_lines)
        scope.count("access.remote_lines", lines - local_lines)
        scope.observe("access.batch_lines", lines)
        self._emit("access", "batch", self._boundary_ts, {
            "arg": arg, "chiplet": chiplet, "lines": lines,
            "local_lines": local_lines, "remote_lines": lines - local_lines,
            "loads": loads, "stores": stores})

    # ---- memoization ----------------------------------------------------

    def memo_event(self, *, outcome: str, name: str, index: int) -> None:
        self._scope().count(f"memo.{outcome}")
        ts = self._boundary_ts
        self._emit("memo", outcome, ts, {"name": name, "index": index})

    # ---- HMG directory ---------------------------------------------------

    def directory_event(self, *, action: str, chiplet: int,
                        sharers: int = 0) -> None:
        self._scope().count(f"dir.{action}s")
        self._emit("dir", action, self._boundary_ts,
                   {"chiplet": chiplet, "sharers": sharers})

    # ---- timestamp leases -------------------------------------------------

    def lease_event(self, *, action: str, chiplet: int) -> None:
        self._scope().count(f"lease.{action}s")
        self._emit("lease", action, self._boundary_ts,
                   {"chiplet": chiplet})

    # ---- sweep engine ----------------------------------------------------

    def sweep_begin(self, *, label: str, cells: int) -> None:
        self.metrics.count("sweep.cells", cells)
        self._emit("sweep", "begin", 0.0, {"label": label, "cells": cells})

    def sweep_cell(self, *, phase: str, label: str, cached: bool = False,
                   seconds: float = 0.0) -> None:
        if phase == "end":
            self.metrics.count("sweep.cells_cached" if cached
                               else "sweep.cells_executed")
            if not cached:
                self.metrics.observe("sweep.cell_seconds", seconds)
        self._emit("sweep", f"cell-{phase}", 0.0, {
            "label": label, "cached": cached, "seconds": seconds})

    def shard_event(self, *, phase: str, shard: int, worker: str = "",
                    cells: int = 0, executed: int = 0, hits: int = 0,
                    deduped: int = 0, seconds: float = 0.0) -> None:
        if phase == "end":
            self.metrics.count("dist.shards")
            self.metrics.count("dist.cells_executed", executed)
            self.metrics.count("dist.cells_hit", hits)
            self.metrics.count("dist.cells_deduped", deduped)
            self.metrics.observe("dist.shard_seconds", seconds)
        self._emit("shard", phase, 0.0, {
            "shard": shard, "worker": worker, "cells": cells,
            "executed": executed, "hits": hits, "deduped": deduped,
            "seconds": seconds})

    # ---- introspection ---------------------------------------------------

    def events_of(self, kind: str, phase: Optional[str] = None) -> List[Event]:
        """Recorded events filtered by ``kind`` (and optionally phase)."""
        return [e for e in self.events
                if e.kind == kind and (phase is None or e.phase == phase)]

    def clear(self) -> None:
        """Drop all recorded events and metrics (sequence keeps rising,
        so event ordering stays globally monotone)."""
        self.events = []
        self.metrics = MetricRegistry("trace")
        self._run_reg = None
        self._kernel_reg = None
