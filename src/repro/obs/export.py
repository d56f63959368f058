"""Trace exporters: JSONL, Chrome ``trace_event`` (Perfetto), CSV, text,
and the per-boundary sync-op view.

All exporters consume a finished :class:`~repro.obs.tracer.EventTracer`
(or its event list / metric registry) and are deterministic: the same
simulation produces byte-identical exports, because event timestamps are
simulated cycles, not wall-clock time.

The Chrome export loads directly in https://ui.perfetto.dev (or
``chrome://tracing``): kernels render as duration slices per stream,
sync operations / table activity / access batches as instant events per
chiplet. See ``docs/observability.md`` for the how-to.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ConfigError
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Event, EventTracer

__all__ = [
    "chrome_trace",
    "events_jsonl",
    "distributions_csv",
    "render_trace",
    "sync_trace",
    "text_summary",
    "write_trace",
]

#: Chrome-trace process ids per event family (process_name metadata is
#: emitted so Perfetto shows readable track group names).
_PIDS = {
    "kernel": (1, "kernels (per stream)"),
    "sync": (2, "sync ops (per chiplet)"),
    "table": (3, "coherence table"),
    "access": (4, "access batches (per chiplet)"),
    "memo": (5, "memoization"),
    "dir": (6, "HMG directory"),
    "run": (0, "run"),
    "sweep": (0, "run"),
}


def _us(cycles: float, clock_hz: float) -> float:
    """Simulated cycles → trace microseconds."""
    return cycles / clock_hz * 1e6


def chrome_trace(tracer: EventTracer) -> Dict[str, Any]:
    """Build a Chrome ``trace_event``-format document (JSON-ready).

    Kernel launch/complete pairs become ``X`` (complete) duration events
    on their stream's track; everything else becomes an instant event on
    its family's track. Timestamps are non-decreasing (Perfetto requires
    monotone ``ts`` per track; we sort globally).
    """
    clock = tracer.clock_hz
    out: List[Dict[str, Any]] = []
    for pid, label in sorted(set(_PIDS.values())):
        out.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                    "args": {"name": label}})
    body: List[Dict[str, Any]] = []
    for ev in tracer.events:
        pid, _ = _PIDS.get(ev.kind, (0, "run"))
        if ev.kind == "kernel" and ev.phase == "complete":
            cycles = float(ev.args.get("cycles", 0.0))
            start = ev.ts - cycles
            body.append({
                "ph": "X", "pid": pid, "tid": int(ev.args.get("stream", 0)),
                "name": str(ev.args.get("name", "kernel")),
                "cat": "kernel",
                "ts": _us(start, clock), "dur": _us(cycles, clock),
                "args": ev.args,
            })
            continue
        if ev.kind == "kernel" and ev.phase == "launch":
            # The matching complete event renders the duration slice.
            continue
        tid = int(ev.args.get("chiplet", ev.args.get("stream", 0)) or 0)
        body.append({
            "ph": "i", "s": "t", "pid": pid, "tid": tid,
            "name": f"{ev.kind}:{ev.phase}", "cat": ev.kind,
            "ts": _us(ev.ts, clock), "args": ev.args,
        })
    body.sort(key=lambda e: (e["ts"], e.get("dur", 0.0)))
    return {"traceEvents": out + body, "displayTimeUnit": "ms"}


def events_jsonl(events: Iterable[Event]) -> str:
    """One compact JSON object per line, in emission (seq) order."""
    return "\n".join(json.dumps(ev.to_dict(), sort_keys=True,
                                separators=(",", ":"))
                     for ev in events) + "\n"


def distributions_csv(registry: MetricRegistry) -> str:
    """CSV of every distribution in the aggregated registry tree.

    Columns: ``scope,name,count,total,mean,min,max``. Counters and peak
    gauges are appended as single-row summaries (count/total columns)
    so one file carries the whole registry.
    """
    lines = ["scope,name,count,total,mean,min,max"]

    def _walk(reg: MetricRegistry, path: str) -> None:
        scope = path or reg.scope
        for name in sorted(reg.distributions):
            d = reg.distributions[name]
            lo = 0.0 if d.count == 0 else d.min
            hi = 0.0 if d.count == 0 else d.max
            lines.append(f"{scope},{name},{d.count},{d.total:g},"
                         f"{d.mean:g},{lo:g},{hi:g}")
        for name in sorted(reg.counters):
            lines.append(f"{scope},{name},1,{reg.counters[name]:g},"
                         f"{reg.counters[name]:g},,")
        for name in sorted(reg.gauges):
            lines.append(f"{scope},{name}.peak,1,{reg.gauges[name]:g},"
                         f"{reg.gauges[name]:g},,")
        for child_name in sorted(reg.children):
            _walk(reg.children[child_name], f"{scope}/{child_name}")

    _walk(registry, "")
    return "\n".join(lines) + "\n"


def text_summary(tracer: EventTracer, limit: Optional[int] = 40) -> str:
    """Plain-text report: event census, aggregated metrics, sync trace.

    The trailing section lists the first ``limit`` synchronization
    events in order — the human-readable sync trace the CLI prints.
    """
    lines: List[str] = []
    census: Dict[str, int] = {}
    for ev in tracer.events:
        key = f"{ev.kind}:{ev.phase}"
        census[key] = census.get(key, 0) + 1
    lines.append(f"events recorded: {len(tracer.events)}")
    for key in sorted(census):
        lines.append(f"  {key}: {census[key]}")
    agg = tracer.metrics.aggregate()
    metric_lines = agg.summary_lines(prefix="  ")
    if metric_lines:
        lines.append("aggregated metrics:")
        lines.extend(metric_lines)
    sync_events = [e for e in tracer.events if e.kind in ("sync", "memo")]
    lines.append(f"sync trace ({len(sync_events)} events"
                 + (f", showing {min(limit, len(sync_events))}"
                    if limit is not None else "") + "):")
    shown = sync_events if limit is None else sync_events[:limit]
    for ev in shown:
        a = ev.args
        if ev.kind == "memo":
            lines.append(f"  [{ev.ts:14.1f}] memo {ev.phase}: "
                         f"kernel {a.get('index')} {a.get('name')}")
            continue
        moved = (f"{a.get('lines_flushed', 0)} flushed"
                 if ev.phase == "release"
                 else f"{a.get('lines_invalidated', 0)} invalidated")
        lines.append(f"  [{ev.ts:14.1f}] {ev.phase} chiplet "
                     f"{a.get('chiplet')} @{a.get('boundary')}: {moved}"
                     + (f" ({a.get('reason')})" if a.get("reason") else ""))
    return "\n".join(lines)


def sync_trace(tracer: EventTracer, limit: Optional[int] = 40) -> str:
    """Every acquire and release of the tracer's one run, by kernel
    boundary: a header counting the ops and the *silent* boundaries
    (kernels with no op at launch or completion, CPElide's headline on
    iterative workloads), then the first ``limit`` ops, each with its
    kernel, boundary, target chiplet and the elision engine's reason.
    The run-end release is not a kernel boundary and is left out.

    Raises :class:`~repro.errors.ConfigError` unless the tracer holds
    exactly one run, or when a kernel was replayed from the memo store:
    a replay executes no ops, so its boundary would read as silent.
    """
    runs = tracer.events_of("run", "begin")
    if len(runs) != 1:
        raise ConfigError(f"the sync view needs a tracer holding one "
                          f"run; this one holds {len(runs)}")
    ops: List[str] = []
    boundaries = 0
    kernels_with_ops = set()
    kernel: Dict[str, Any] = {}
    for ev in tracer.events:
        if ev.kind == "kernel" and ev.phase == "launch":
            kernel = ev.args
            boundaries += 1
        elif ev.kind == "memo" and ev.phase == "hit":
            raise ConfigError(
                f"kernel {ev.args['index']} was replayed from the memo "
                f"store and executed no sync ops; trace a run on the "
                f"line or run path")
        elif ev.kind == "sync" and ev.args["boundary"] != "run-end":
            kernels_with_ops.add(kernel["index"])
            phase = ("launch" if ev.args["boundary"] == "launch"
                     else "complete")
            verb = "flush" if ev.phase == "release" else "invalidate"
            ops.append(f"k{kernel['index']:<4d} {kernel['name']:<22s} "
                       f"{phase:<8s} {verb:<10s} chiplet "
                       f"{ev.args['chiplet']} [{ev.args['reason']}]")
    run = runs[0].args
    silent = ((boundaries - len(kernels_with_ops)) / boundaries
              if boundaries else 0.0)
    lines = [f"sync trace: {run['workload']} / {run['protocol']} — "
             f"{len(ops)} ops over {boundaries} boundaries "
             f"({silent:.0%} silent)"]
    lines.extend(ops if limit is None else ops[:limit])
    if limit is not None and len(ops) > limit:
        lines.append(f"... {len(ops) - limit} more")
    return "\n".join(lines)


def render_trace(tracer: EventTracer, fmt: str,
                 limit: Optional[int] = 40) -> str:
    """The trace as text in ``fmt``: ``chrome`` (Chrome trace JSON, no
    trailing newline), ``jsonl``, ``csv`` (metric distributions),
    ``text`` (:func:`text_summary` showing ``limit`` sync events) or
    ``sync`` (:func:`sync_trace` showing ``limit`` ops)."""
    if fmt == "chrome":
        return json.dumps(chrome_trace(tracer))
    if fmt == "csv":
        return distributions_csv(tracer.metrics.aggregate())
    if fmt == "jsonl":
        return events_jsonl(tracer.events)
    if fmt == "text":
        return text_summary(tracer, limit=limit) + "\n"
    if fmt == "sync":
        return sync_trace(tracer, limit=limit) + "\n"
    raise ConfigError(f"unknown trace export format {fmt!r}; choose "
                      "from chrome/csv/jsonl/sync/text")


def write_trace(tracer: EventTracer, path: str,
                fmt: Optional[str] = None) -> str:
    """Write the trace to ``path`` in ``fmt`` (inferred from the
    extension when ``None``: ``.json`` → Chrome trace, ``.csv`` → CSV
    distributions, anything else → JSONL). Returns the format used."""
    if fmt is None:
        if path.endswith(".json"):
            fmt = "chrome"
        elif path.endswith(".csv"):
            fmt = "csv"
        else:
            fmt = "jsonl"
    payload = render_trace(tracer, fmt)
    with open(path, "w") as fh:
        fh.write(payload)
    return fmt
