"""Tracer purity: traced runs are bit-identical to untraced ones.

The observability layer is a pure observer — attaching an
:class:`~repro.obs.EventTracer` must not change a single serialized
field, on any trace path, under any protocol. This differential is the
referee for that invariant (the obs bench re-checks it at full scale).
"""

from __future__ import annotations

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.obs import EventTracer
from repro.workloads.suite import build_workload
from tests.conftest import TEST_SCALE

TRACE_PATHS = ("line", "run", "memo")
PROTOCOLS = ("baseline", "hmg", "cpelide", "timestamp", "cpelide-ts")
#: One pure-partitioned streaming workload, one iterative stencil (the
#: memo path's replay regime).
WORKLOADS = ("square", "hotspot")


def _run(workload_name: str, protocol: str, trace_path: str, tracer=None):
    config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
    sim = Simulator(config, protocol, trace_path=trace_path, tracer=tracer)
    return sim.run(build_workload(workload_name, config))


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("trace_path", TRACE_PATHS)
def test_traced_run_is_bit_identical(workload_name, protocol, trace_path):
    untraced = _run(workload_name, protocol, trace_path)
    tracer = EventTracer()
    traced = _run(workload_name, protocol, trace_path, tracer=tracer)
    assert traced.to_dict() == untraced.to_dict()
    # The tracer really observed the run (not a vacuous pass): every
    # path emits the run bracket and one completion per kernel.
    assert tracer.events[0].phase == "begin"
    assert tracer.events[-1].phase == "end"
    assert tracer.events_of("kernel", "complete")


def test_tracer_reuse_across_runs_stays_pure():
    """One tracer observing several runs still perturbs none of them."""
    tracer = EventTracer()
    for protocol in PROTOCOLS:
        untraced = _run("square", protocol, "run")
        traced = _run("square", protocol, "run", tracer=tracer)
        assert traced.to_dict() == untraced.to_dict()
    assert len(tracer.events_of("run", "begin")) == len(PROTOCOLS)


def test_memo_path_traced_replay_matches_cold_run():
    """A traced memo replay (hits) matches an untraced cold run."""
    from repro.gpu.memo import clear_memo_stores

    clear_memo_stores()
    cold = _run("hotspot", "cpelide", "memo")
    tracer = EventTracer()
    warm = _run("hotspot", "cpelide", "memo", tracer=tracer)
    assert warm.to_dict() == cold.to_dict()
    assert warm.memo_hits > 0
    assert tracer.events_of("memo", "hit")


#: One workload per access-pattern family (``repro check --quick``'s),
#: plus two whose HMG directories evict entries at this scale.
EVENT_WORKLOADS = ("square", "babelstream", "hotspot", "bfs", "backprop",
                   "nw", "cnn", "rnn-gru-small")


@pytest.mark.parametrize("protocol", ("hmg", "timestamp", "cpelide-ts"))
def test_run_path_keeps_directory_and_lease_event_order(protocol):
    """The batched segments of these protocols reorder cache work
    within a segment, but must emit the line path's directory and lease
    events in the line path's order."""
    config = GPUConfig(num_chiplets=4, scale=1 / 512)
    seen = 0
    for workload_name in EVENT_WORKLOADS:
        streams = []
        for trace_path in ("line", "run"):
            tracer = EventTracer()
            Simulator(config, protocol, trace_path=trace_path,
                      tracer=tracer).run(build_workload(workload_name,
                                                        config))
            streams.append([(e.kind, e.phase, e.ts, e.args)
                            for e in tracer.events
                            if e.kind in ("dir", "lease")])
        assert streams[0] == streams[1], workload_name
        seen += len(streams[0])
    assert seen, "no directory or lease events: the check is vacuous"
