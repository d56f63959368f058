"""Timestamp/lease coherence: the ledger, both protocols, the sanitizer
lease invariants, and the v4.0 protocol-registration round trip."""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.check.sanitizer import CheckError
from repro.coherence.registry import (
    ProtocolSpec,
    protocol_names,
    register_protocol,
    unregister_protocol,
)
from repro.coherence.timestamp import (
    CPElideTimestampProtocol,
    LeaseLedger,
    TimestampProtocol,
)
from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.workloads.suite import build_workload

from tests.conftest import TEST_SCALE
from tests.test_protocol_runs import _trusts_any_lease


def run_sim(workload, protocol, *, lease=4, chiplets=4, check=False,
            scale=TEST_SCALE, trace_path=None):
    config = GPUConfig(num_chiplets=chiplets, scale=scale,
                       lease_kernels=lease, check_invariants=check)
    sim = Simulator(config, protocol, trace_path=trace_path)
    return sim, sim.run(build_workload(workload, config))


# ---------------------------------------------------------------------------
# LeaseLedger unit tests
# ---------------------------------------------------------------------------


class TestLeaseLedger:
    def test_lease_boundary_is_exact(self):
        led = LeaseLedger(num_chiplets=1, lease=3)
        led.grant(0, 7)
        for _ in range(2):
            led.tick()
        assert led.invalid_reason(0, 7) is None  # age 2 < lease 3
        led.tick()
        assert led.invalid_reason(0, 7) == "expiry"  # age 3 == lease

    def test_renewal_restarts_the_lease(self):
        led = LeaseLedger(num_chiplets=1, lease=2)
        led.grant(0, 7)
        led.tick()
        led.grant(0, 7)  # renew at age 1
        led.tick()
        assert led.invalid_reason(0, 7) is None
        led.tick()
        assert led.invalid_reason(0, 7) == "expiry"

    def test_zero_lease_never_trusts_a_copy(self):
        led = LeaseLedger(num_chiplets=1, lease=0)
        led.grant(0, 7)
        assert led.invalid_reason(0, 7) == "expiry"  # age 0 >= lease 0
        assert not led.run_valid(0, 7, 1)

    def test_write_stamp_makes_older_copies_stale(self):
        led = LeaseLedger(num_chiplets=2, lease=16)
        led.grant(0, 7)
        led.tick()
        led.stamp_write(7)  # a later write anywhere
        assert led.invalid_reason(0, 7) == "stale"
        led.grant(1, 7)  # filled at the stamp epoch: fresh
        assert led.invalid_reason(1, 7) is None

    def test_expiry_wins_over_staleness(self):
        # Age-first ordering is what makes age-capped canonical
        # snapshots safe: an expired-and-stale copy must count as an
        # expiry on both sides of a memo restore.
        led = LeaseLedger(num_chiplets=1, lease=2)
        led.grant(0, 7)
        led.tick()
        led.stamp_write(7)
        led.tick()
        assert led.invalid_reason(0, 7) == "expiry"

    def test_unleased_lines_have_no_reason(self):
        led = LeaseLedger(num_chiplets=1, lease=4)
        assert led.invalid_reason(0, 99) is None
        led.grant(0, 99)
        led.drop(0, 99)
        assert led.invalid_reason(0, 99) is None

    def test_run_valid_matches_per_line_reasons(self):
        led = LeaseLedger(num_chiplets=1, lease=4)
        led.renew_run(0, 10, 4)
        assert led.run_valid(0, 10, 4)
        led.tick()
        led.stamp_write(12)
        assert not led.run_valid(0, 10, 4)  # line 12 went stale
        assert led.run_valid(0, 10, 2)  # 10..11 still fine

    def test_canonical_is_translation_invariant(self):
        def build(offset):
            led = LeaseLedger(num_chiplets=2, lease=4)
            for _ in range(offset):
                led.tick()
            led.grant(0, 5)
            led.tick()
            led.stamp_write(9)
            led.grant(1, 9)
            return led

        a, b = build(0), build(100)
        assert a.clock != b.clock
        assert a.canonical() == b.canonical()
        assert a.digest() == b.digest()

    def test_restore_round_trips_behavior(self):
        led = LeaseLedger(num_chiplets=2, lease=4)
        led.grant(0, 5)
        led.tick()
        led.stamp_write(9)
        led.grant(1, 9)
        snap = led.canonical()

        other = LeaseLedger(num_chiplets=2, lease=4)
        for _ in range(37):
            other.tick()
        other.restore(snap)
        assert other.canonical() == snap
        assert other.invalid_reason(0, 5) is None
        other.tick()
        other.stamp_write(5)
        assert other.invalid_reason(0, 5) == "stale"

    def test_canonical_caps_expired_ages_and_prunes_dead_stamps(self):
        led = LeaseLedger(num_chiplets=1, lease=2)
        led.grant(0, 5)
        led.stamp_write(8)
        for _ in range(10):
            led.tick()
        fills, stamps = led.canonical()
        assert fills[0] == ((5, 2),)  # age capped at the lease
        assert stamps == ()  # a stamp older than the lease is dead


# ---------------------------------------------------------------------------
# TimestampProtocol end to end
# ---------------------------------------------------------------------------


class TestTimestampProtocol:
    def test_deterministic_and_never_issues_sync_ops(self):
        _, first = run_sim("bfs", "timestamp")
        _, again = run_sim("bfs", "timestamp")
        assert first.to_dict() == again.to_dict()
        sync = first.metrics.total_sync()
        assert sync.acquires_issued == 0
        assert sync.releases_issued == 0

    def test_short_leases_expire_and_long_leases_do_not(self):
        _, short = run_sim("bfs", "timestamp", lease=4)
        _, long_ = run_sim("bfs", "timestamp", lease=1 << 20)
        assert short.metrics.total_sync().lease_expiries > 0
        assert long_.metrics.total_sync().lease_expiries == 0

    def test_writes_stamp_and_stale_copies_refetch(self):
        # hotspot writes lines other chiplets hold under live leases, so
        # the exact stamp check (not expiry) must fire.
        _, res = run_sim("hotspot", "timestamp", lease=1 << 20)
        sync = res.metrics.total_sync()
        assert sync.lease_stale_refetches > 0
        assert sync.lease_expiries == 0

    def test_zero_lease_disables_copy_reuse(self):
        _, zero = run_sim("bfs", "timestamp", lease=0)
        _, some = run_sim("bfs", "timestamp", lease=4)
        sync = zero.metrics.total_sync()
        # Every revisit of a cached copy self-invalidates instead of
        # serving, so expiries dominate and no copy is ever trusted.
        assert sync.lease_expiries > 0
        assert sync.lease_stale_refetches == 0
        assert zero.to_dict() != some.to_dict()

    def test_negative_lease_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(lease_kernels=-1)

    def test_checked_run_is_bit_identical_to_unchecked(self):
        # The sanitizer's serve observer only reads the ledger, and the
        # protocols take the same bulk paths with it installed, so the
        # numbers cannot move.
        _, plain = run_sim("hotspot", "timestamp")
        sim, checked = run_sim("hotspot", "timestamp", check=True)
        assert sim.last_sanitizer is not None
        assert sim.last_sanitizer.kernels_checked > 0
        assert checked.cycles == plain.cycles
        assert checked.metrics.total_sync() == plain.metrics.total_sync()


# ---------------------------------------------------------------------------
# CPElideTimestampProtocol (cpelide-ts) end to end
# ---------------------------------------------------------------------------


class TestCPElideTimestampProtocol:
    def test_drops_every_acquire_but_keeps_release_elision(self):
        _, hybrid = run_sim("square", "cpelide-ts")
        _, cpelide = run_sim("square", "cpelide")
        hy, cp = hybrid.metrics.total_sync(), cpelide.metrics.total_sync()
        assert hy.acquires_issued == 0
        # Dropped acquires are not "elided" either — they are simply
        # never issued; the table's release behavior is untouched.
        assert hy.releases_issued == cp.releases_issued
        assert hy.releases_elided == cp.releases_elided

    def test_deterministic(self):
        _, first = run_sim("hotspot", "cpelide-ts")
        _, again = run_sim("hotspot", "cpelide-ts")
        assert first.to_dict() == again.to_dict()

    def test_leases_age_out_home_copies(self):
        _, short = run_sim("bfs", "cpelide-ts", lease=1)
        assert short.metrics.total_sync().lease_expiries > 0

    def test_checked_runs_pass_on_sharing_heavy_workloads(self):
        for workload in ("hotspot", "bfs"):
            sim, _ = run_sim(workload, "cpelide-ts", check=True)
            assert sim.last_sanitizer.kernels_checked > 0


# ---------------------------------------------------------------------------
# Sanitizer meta-test: a planted lease bug must be caught
# ---------------------------------------------------------------------------


class _TrustingLedger(LeaseLedger):
    """Planted bug: trusts any un-expired copy, never consulting the
    write stamps — exactly the stale-read hazard leases must prevent."""

    def invalid_reason(self, chiplet, line):
        fill = self.fills[chiplet].get(line)
        if fill is None:
            return None
        if self.clock - fill >= self.lease:
            return "expiry"
        return None  # BUG: skips the stamp check

    def run_valid(self, chiplet, start, count):
        fills = self.fills[chiplet]
        return all(
            fills.get(line) is not None
            and self.clock - fills[line] < self.lease
            for line in range(start, start + count))


class _BuggyTimestampProtocol(TimestampProtocol):
    def __init__(self, config, device):
        super().__init__(config, device)
        self.leases = _TrustingLedger(config.num_chiplets,
                                      config.lease_kernels)


class TestLeaseSanitizerMetaTest:
    @pytest.mark.parametrize("workload, protocol",
                             [("hotspot", "timestamp"), ("bfs", "cpelide-ts")])
    def test_bulk_serve_of_an_invalid_lease_is_caught(self, workload,
                                                      protocol, monkeypatch):
        # Only the batched remote-load path consults run_valid, so the
        # sanitizer catches this plant only if checked runs take that
        # path and its observer sees the lines it serves.
        monkeypatch.setattr(LeaseLedger, "run_valid", _trusts_any_lease)
        with pytest.raises(CheckError, match="lease-(expired|stale)-serve"):
            run_sim(workload, protocol, check=True)

    def test_stale_serve_is_caught(self):
        # Long lease so expiry never saves the buggy ledger: the only
        # defense against the cross-chiplet write is the stamp check it
        # skips, and the sanitizer must call the resulting serve out.
        with pytest.raises(CheckError, match="lease-stale-serve"):
            run_sim("hotspot", _BuggyTimestampProtocol, lease=1 << 20,
                    check=True)

    def test_scenario_is_live(self):
        # The meta-test is only meaningful if the healthy protocol sees
        # actual staleness on this workload (i.e. the hazard arises).
        _, res = run_sim("hotspot", "timestamp", lease=1 << 20)
        assert res.metrics.total_sync().lease_stale_refetches > 0


# ---------------------------------------------------------------------------
# Registration round trip: one register call reaches every surface
# ---------------------------------------------------------------------------


def _spec(name="test-rt-proto"):
    return ProtocolSpec(name=name, factory=TimestampProtocol,
                        description="round-trip test protocol",
                        knobs=("lease_kernels",))


class TestRegistrationRoundTrip:
    def test_oracle_defaults_cover_the_lease_protocols(self):
        from repro.check.oracle import DEFAULT_PROTOCOLS
        assert "timestamp" in DEFAULT_PROTOCOLS
        assert "cpelide-ts" in DEFAULT_PROTOCOLS
        assert len(DEFAULT_PROTOCOLS) == 5

    def test_registered_name_is_sweepable(self, config2):
        from repro.api import sweep
        register_protocol(_spec())
        try:
            result = sweep(workloads=("square",),
                           protocols=("test-rt-proto",),
                           configs=(config2,), cache=False)
            assert result.outcomes[0].job.protocol == "test-rt-proto"
        finally:
            unregister_protocol("test-rt-proto")

    def test_registered_name_passes_server_admission(self):
        from repro.server.schemas import parse_simulate
        register_protocol(_spec())
        try:
            sub = parse_simulate({"workload": "square",
                                  "protocol": "test-rt-proto",
                                  "scale": TEST_SCALE})
            assert sub.spec.expand()[0].protocol == "test-rt-proto"
        finally:
            unregister_protocol("test-rt-proto")

    def test_admission_rejects_unknown_protocol_naming_valid_set(self):
        from repro.server.schemas import parse_simulate
        with pytest.raises(ConfigError) as err:
            parse_simulate({"workload": "square", "protocol": "bogus"})
        assert "timestamp" in str(err.value)
        assert "cpelide-ts" in str(err.value)

    def test_server_lists_protocols(self):
        from repro.server import ReproServer
        from repro.server.http import Request

        async def scenario():
            srv = ReproServer()
            response = await srv.dispatch(Request(
                method="GET", path="/v1/protocols", headers={}, body=b""))
            assert response.status == 200
            body = json.loads(response.body)
            names = [p["name"] for p in body["protocols"]]
            assert names == list(protocol_names())
            ts = next(p for p in body["protocols"]
                      if p["name"] == "timestamp")
            assert "lease_kernels" in ts["knobs"]
            assert ts["description"]

        asyncio.run(scenario())

    def test_jobspec_rejects_unknown_protocol_at_build_time(self, config2):
        from repro.engine.spec import JobSpec
        with pytest.raises(ConfigError, match="bogus"):
            JobSpec(workload="square", protocol="bogus", config=config2)

    def test_cli_run_accepts_lease_protocols(self, capsys):
        from repro.__main__ import main as repro_main
        rc = repro_main(["--scale", "0.015625", "run", "square",
                         "--protocols", "timestamp", "cpelide-ts"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timestamp" in out and "cpelide-ts" in out

    def test_cli_check_covers_lease_protocols(self, capsys):
        from repro.__main__ import main as repro_main
        rc = repro_main(["--scale", "0.015625", "check",
                         "--workloads", "square",
                         "--protocols", "timestamp", "cpelide-ts",
                         "--trace-paths", "line", "run", "memo"])
        assert rc == 0
        assert "oracle OK" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Cross-path agreement (the oracle's job, pinned here per protocol)
# ---------------------------------------------------------------------------


class TestTracePathAgreement:
    @pytest.mark.parametrize("protocol", ["timestamp", "cpelide-ts"])
    @pytest.mark.parametrize("workload", ["hotspot", "bfs"])
    def test_line_run_memo_agree(self, protocol, workload):
        results = [
            run_sim(workload, protocol, lease=3, trace_path=path)[1]
            for path in ("line", "run", "memo")]
        assert results[0].to_dict() == results[1].to_dict()
        assert results[0].to_dict() == results[2].to_dict()
