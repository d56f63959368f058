"""Lockstep property test of the demand-access skeleton.

:class:`~repro.coherence.base.CoherenceProtocol` defines ``access`` and
``access_run`` once. A protocol supplies ``_route`` and may override
``_route_segment`` with bulk forms, which must leave the machine exactly
as the per-line ``_route_lines`` loop does. Here hypothesis drives, for
every registered protocol, one device through ``access_run`` (whose
cache runs take the inlined ``bulk_access`` loop) and a twin device
through the per-line ``access`` loop, with lease ticks in between. The
caches are tiny (scale 1/4096: 32-line L2s, a 64-line L3, 16-entry HMG
directories, 1-line pages), so runs spill, evict, cross page homes and
outlive their leases. After every operation the whole machine is
compared.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.coherence.base import make_protocol, protocol_names
from repro.coherence.timestamp import LeaseLedger
from repro.gpu.config import GPUConfig, monolithic_equivalent
from repro.gpu.device import Device

CONFIG = GPUConfig(num_chiplets=4, scale=1 / 4096, lease_kernels=2)

runs = st.tuples(st.just("run"),
                 st.integers(min_value=0, max_value=3),     # chiplet
                 st.integers(min_value=0, max_value=160),   # start
                 st.integers(min_value=1, max_value=40),    # count
                 st.sampled_from([(True, False), (False, True),
                                  (True, True)]))           # load, store
traces = st.lists(st.one_of(runs, st.just(("tick",))),
                  min_size=1, max_size=30)


def _twin(name: str):
    config = monolithic_equivalent(CONFIG) if name == "monolithic" else CONFIG
    device = Device(config)
    return device, make_protocol(name, config, device)


def _machine(device: Device, protocol) -> dict:
    """Everything a demand access may change, drained sync counts
    included."""
    return {
        "counts": [astuple(c) for c in device.counts],
        "traffic": (device.traffic.l1_l2, device.traffic.l2_l3,
                    device.traffic.remote),
        "dram": (list(device.dram.reads), list(device.dram.writes)),
        "l2s": [l2.memo_state() for l2 in device.l2s],
        "l3": device.l3.memo_state(),
        "page_homes": device.home_map.page_homes(),
        "protocol": protocol.memo_snapshot(),
        "sync": astuple(protocol.drain_sync_counts()),
    }


def _per_line(device: Device, protocol, chiplet: int, start: int,
              count: int, do_load: bool, do_store: bool) -> int:
    """The reference: per-line ``access`` calls, with the local-line
    count read off the page homes afterwards, as the line path does."""
    local = 0
    for line in range(start, start + count):
        if do_load:
            protocol.access(chiplet, line, is_write=False)
        if do_store:
            protocol.access(chiplet, line, is_write=True)
        if device.home_map.peek_home_of_line(line) == chiplet:
            local += 1
    return local


def _check_lockstep(name: str, trace) -> None:
    run_device, run_protocol = _twin(name)
    line_device, line_protocol = _twin(name)
    chiplets = run_device.config.num_chiplets
    for step, op in enumerate(trace):
        if op[0] == "tick":
            for protocol in (run_protocol, line_protocol):
                if hasattr(protocol, "leases"):
                    protocol.leases.tick()
            continue
        _, chiplet, start, count, (do_load, do_store) = op
        chiplet %= chiplets
        got = run_protocol.access_run(chiplet, start, count, do_load,
                                      do_store)
        want = _per_line(line_device, line_protocol, chiplet, start, count,
                         do_load, do_store)
        assert got == want, f"local-line count after op {step}: {op}"
        assert (_machine(run_device, run_protocol)
                == _machine(line_device, line_protocol)), (
            f"machine state after op {step}: {op}")


@pytest.mark.parametrize("name", protocol_names())
@given(trace=traces)
@settings(max_examples=100, deadline=None)
def test_access_run_matches_per_line_access(name, trace):
    _check_lockstep(name, trace)


def _trusts_any_lease(self, chiplet, start, count):
    """Planted bug: a leased line counts as valid however old its lease
    and however recent the last write to it."""
    fills = self.fills[chiplet]
    return all(line in fills for line in range(start, start + count))


@pytest.mark.parametrize("name", ["timestamp", "cpelide-ts"])
def test_planted_lease_check_is_caught(name, monkeypatch):
    """The property above must fail on a bulk lease check that skips
    expiry and stamps, or it does not guard the lease fast paths."""
    monkeypatch.setattr(LeaseLedger, "run_valid", _trusts_any_lease)

    @given(trace=traces)
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True, phases=[Phase.generate])
    def lockstep(trace):
        _check_lockstep(name, trace)

    with pytest.raises(AssertionError, match="after op"):
        lockstep()
