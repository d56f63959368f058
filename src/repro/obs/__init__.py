"""``repro.obs`` — the observability layer.

Kernel-boundary event tracing (:class:`Tracer` / :class:`EventTracer`),
a hierarchical :class:`MetricRegistry`, and exporters (JSONL, Chrome
``trace_event`` for Perfetto, CSV, plain text, the sync-op view).
Attach a tracer through the facade::

    from repro.api import simulate
    from repro.obs import EventTracer, chrome_trace

    tracer = EventTracer()
    result = simulate("square", "cpelide", tracer=tracer)
    open("square.json", "w").write(json.dumps(chrome_trace(tracer)))

Tracing is a pure observer: traced runs are bit-identical to untraced
ones on every trace path, and the disabled default
(:data:`NULL_TRACER`) is free on the hot paths.
"""

from repro.obs.metrics import Distribution, MetricRegistry
from repro.obs.streaming import StreamingTracer
from repro.obs.tracer import (
    Event,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    Tracer,
)
from repro.obs.export import (
    chrome_trace,
    distributions_csv,
    events_jsonl,
    text_summary,
    write_trace,
)

__all__ = [
    "Distribution",
    "Event",
    "EventTracer",
    "MetricRegistry",
    "NULL_TRACER",
    "NullTracer",
    "StreamingTracer",
    "Tracer",
    "chrome_trace",
    "distributions_csv",
    "events_jsonl",
    "text_summary",
    "write_trace",
]
