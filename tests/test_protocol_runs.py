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
from hypothesis import Phase, example, given, settings, strategies as st

from repro.coherence.base import make_protocol, protocol_names
from repro.coherence.hmg import HMGProtocol
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


class _ServeLog(list):
    """A lease observer that records every ``(chiplet, line)`` serve."""

    def __call__(self, chiplet: int, line: int) -> None:
        self.append((chiplet, line))


def _twin(name: str):
    config = monolithic_equivalent(CONFIG) if name == "monolithic" else CONFIG
    device = Device(config)
    protocol = make_protocol(name, config, device)
    if hasattr(protocol, "lease_observer"):
        protocol.lease_observer = _ServeLog()
    return device, protocol


def _machine(device: Device, protocol) -> dict:
    """Everything a demand access may change, drained sync counts and
    the lease protocols' serve logs included."""
    return {
        "counts": [astuple(c) for c in device.counts],
        "traffic": (device.traffic.l1_l2, device.traffic.l2_l3,
                    device.traffic.remote),
        "l2s": [l2.memo_state() for l2 in device.l2s],
        "l3": device.l3.memo_state(),
        "page_homes": device.home_map.page_homes(),
        "protocol": protocol.memo_snapshot(),
        "sync": astuple(protocol.drain_sync_counts()),
        "serves": getattr(protocol, "lease_observer", None),
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


T, F = True, False

# Hazards of the bulk paths, pinned as explicit examples (all
# hypothesis-shrunk) so that each planted bug below is caught before
# any trace is generated. Random traces reach them too rarely, and a
# derandomized generate phase is no fixed sample: hypothesis also draws
# constants from the non-test modules already imported, so the stream
# depends on what else the process imported.

#: A remote read of a fully resident line whose lease has expired (the
#: requester's copy under timestamp, the home copy under cpelide-ts):
#: only remote load segments still take the ``run_valid`` bulk path.
EXPIRED_REMOTE_READ = [("run", 0, 0, 1, (T, F)), ("run", 1, 0, 1, (T, F)),
                       ("tick",), ("tick",), ("run", 1, 0, 1, (T, F))]

#: An HMG remote load segment during which a directory eviction drops
#: lines of the requester's L2 that the segment touches; batched
#: without its guard, its sharer registrations would come too late.
DIRECTORY_HAZARD = [("run", 0, 0, 1, (T, F)), ("run", 0, 0, 1, (T, F)),
                    ("run", 1, 13, 40, (T, F)), ("run", 3, 13, 40, (T, F)),
                    ("run", 1, 83, 40, (T, T)), ("run", 0, 102, 40, (F, T)),
                    ("run", 3, 3, 27, (T, F))]

#: A home-local read of a resident line whose lease has expired: the
#: ``run_clear`` scan must send the segment per line, where the copy
#: self-invalidates.
EXPIRED_LOCAL_READ = [("run", 0, 0, 1, (T, F)), ("tick",),
                      ("run", 0, 1, 1, (T, F)), ("tick",),
                      ("run", 0, 0, 1, (T, F))]

#: In the last run the miss of line 0 evicts line 1 from the full
#: (one-set) L2, and line 1's own miss then leases it again: the
#: ledger replay must drop each victim in line order.
VICTIM_LATER_IN_RUN = [("run", 0, 0, 1, (T, F)), ("run", 0, 0, 33, (T, F)),
                       ("run", 0, 0, 2, (T, F))]


@pytest.mark.parametrize("name", protocol_names())
@given(trace=traces)
@example(trace=EXPIRED_REMOTE_READ)
@example(trace=DIRECTORY_HAZARD)
@example(trace=EXPIRED_LOCAL_READ)
@example(trace=VICTIM_LATER_IN_RUN)
@settings(max_examples=100, deadline=None)
def test_access_run_matches_per_line_access(name, trace):
    _check_lockstep(name, trace)


def _assert_lockstep_catches(name: str) -> None:
    """With a bug planted in the protocol's bulk path, the property
    (its pinned examples first, then 300 generated traces) must fail."""

    @given(trace=traces)
    @example(trace=EXPIRED_REMOTE_READ)
    @example(trace=DIRECTORY_HAZARD)
    @example(trace=EXPIRED_LOCAL_READ)
    @example(trace=VICTIM_LATER_IN_RUN)
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True, phases=[Phase.explicit, Phase.generate])
    def lockstep(trace):
        _check_lockstep(name, trace)

    with pytest.raises(AssertionError, match="after op"):
        lockstep()


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
    _assert_lockstep_catches(name)


def _clears_any_lease(self, chiplet, start, count):
    """Planted bug: no lease counts as expired or stale."""
    return self.lease > 0


@pytest.mark.parametrize("name", ["timestamp", "cpelide-ts"])
def test_planted_lease_clear_check_is_caught(name, monkeypatch):
    """Likewise for the scan that admits a local segment with misses."""
    monkeypatch.setattr(LeaseLedger, "run_clear", _clears_any_lease)
    _assert_lockstep_catches(name)


def _grants_before_drops(self, chiplet, start, count, events, stores):
    """Planted bug: grants the whole run, then drops every victim —
    wrong when a victim is a later line of the same run, which the
    per-line path leases again at its own access."""
    for line in range(start, start + count):
        self.grant(chiplet, line)
        if stores:
            self.stamp_write(line)
    for _line, victim, _dirty in events or ():
        if victim is not None:
            self.drop(chiplet, victim)


@pytest.mark.parametrize("name", ["timestamp", "cpelide-ts"])
def test_planted_ledger_replay_order_is_caught(name, monkeypatch):
    """The property must fail on a ledger replay that grants every
    line before dropping the victims, or it does not guard the order
    :meth:`LeaseLedger.replay_run` keeps."""
    monkeypatch.setattr(LeaseLedger, "replay_run", _grants_before_drops)
    _assert_lockstep_catches(name)


def test_planted_directory_guard_is_caught(monkeypatch):
    """Without its guard, HMG's remote load batch diverges on
    ``DIRECTORY_HAZARD``."""
    monkeypatch.setattr(HMGProtocol, "_remote_loads_batch",
                        lambda self, chiplet, home, start, count: True)
    _assert_lockstep_catches("hmg")
