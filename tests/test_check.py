"""The repro.check sanitizer and differential oracle.

Two halves:

* Clean runs — every protocol passes the sanitizer over real and
  synthetic workloads, checked runs stay bit-identical to unchecked
  ones, and the oracle reports all-identical over a small matrix.
* Meta-tests — each intentionally injected simulator bug (a dropped
  release, a dropped acquire, a no-op flush, a table-corrupting
  acquire, a directory that forgets sharers) must be *caught*. A
  sanitizer that passes clean runs but misses planted bugs checks
  nothing.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.check import CheckError, SyncSanitizer, checks_enabled
from repro.check.oracle import (
    diff_paths,
    final_state_fingerprint,
    run_oracle,
)
from repro.core.elision import ElisionEngine
from repro.core.states import ChipletState
from repro.cp.local_cp import SyncOpKind
from repro.cp.packets import AccessMode
from repro.gpu.config import GPUConfig
from repro.gpu.device import Device
from repro.gpu.sim import Simulator
from repro.memory.address import AddressSpace
from repro.memory.cache import SetAssocCache
from repro.workloads.base import Kernel, KernelArg, PatternKind, Workload
from repro.workloads.suite import build_workload

from tests.conftest import TEST_SCALE

#: Plain and sanitizing configs used throughout.
CONFIG = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
CHECKED = dataclasses.replace(CONFIG, check_invariants=True)


def producer_consumer_workload() -> Workload:
    """Forces both flavors of sync under cpelide: every chiplet dirties
    the shared buffer, one chiplet overwrites it (release for the other
    dirty holders, who become Stale), then every chiplet reads it back
    (acquire for the stale holders)."""
    space = AddressSpace()
    buf = space.alloc("B", 32 * 4096)
    shared = dict(pattern=PatternKind.SHARED)
    kernels = [
        Kernel("all-write",
               args=(KernelArg(buf, AccessMode.RW, **shared),)),
        Kernel("one-write",
               args=(KernelArg(buf, AccessMode.RW, **shared),),
               chiplet_mask=(0,)),
        Kernel("all-read",
               args=(KernelArg(buf, AccessMode.R, **shared),)),
    ]
    return Workload(name="pc", space=space, kernels=kernels)


# ---------------------------------------------------------------------------
# Enablement


class TestEnablement:
    def test_config_flag(self):
        assert not checks_enabled(CONFIG)
        assert checks_enabled(CHECKED)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert checks_enabled(CONFIG)
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not checks_enabled(CONFIG)
        monkeypatch.setenv("REPRO_CHECK", "")
        assert not checks_enabled(CONFIG)

    def test_disabled_sim_builds_no_sanitizer(self):
        sim = Simulator(CONFIG, "cpelide")
        sim.run(producer_consumer_workload())
        assert sim.last_sanitizer is None

    def test_check_invariants_separates_cache_keys(self):
        # Checked and unchecked runs must never share engine cache
        # entries; the flag lives in the config precisely for this.
        from repro.engine.spec import JobSpec
        from repro.engine.cache import ResultCache

        cache = ResultCache(salt="s")
        plain = cache.key(JobSpec(workload="square", protocol="cpelide",
                                  config=CONFIG))
        checked = cache.key(JobSpec(workload="square", protocol="cpelide",
                                    config=CHECKED))
        assert plain != checked


# ---------------------------------------------------------------------------
# Clean runs


class TestCleanRuns:
    @pytest.mark.parametrize("protocol", ["baseline", "nosync", "hmg",
                                          "hmg-wb", "cpelide"])
    def test_suite_workloads_pass(self, protocol):
        for name in ("square", "hotspot", "bfs"):
            sim = Simulator(CHECKED, protocol)
            sim.run(build_workload(name, CHECKED))
            assert sim.last_sanitizer is not None
            assert sim.last_sanitizer.kernels_checked > 0

    @pytest.mark.parametrize("protocol", ["baseline", "hmg", "cpelide"])
    def test_producer_consumer_passes(self, protocol):
        sim = Simulator(CHECKED, protocol)
        sim.run(producer_consumer_workload())
        assert sim.last_sanitizer.kernels_checked == 3

    def test_synthetic_workload_exercises_both_sync_kinds(self):
        # Guard the meta-tests' premise: if this workload stopped
        # triggering releases *and* acquires, the injected-bug tests
        # below would vacuously pass.
        result = Simulator(CONFIG, "cpelide").run(producer_consumer_workload())
        sync = result.metrics.total_sync()
        assert sync.releases_issued > 0
        assert sync.acquires_issued > 0

    @pytest.mark.parametrize("protocol", ["baseline", "hmg", "cpelide"])
    def test_checked_run_bit_identical(self, protocol):
        plain = Simulator(CONFIG, protocol).run(producer_consumer_workload())
        checked = Simulator(CHECKED, protocol).run(
            producer_consumer_workload())
        assert plain.to_dict() == checked.to_dict()


# ---------------------------------------------------------------------------
# Meta-tests: planted bugs must be caught


class TestInjectedBugs:
    def _run_checked(self, protocol="cpelide"):
        return Simulator(CHECKED, protocol).run(producer_consumer_workload())

    def test_dropped_release_is_caught(self, monkeypatch):
        """Dirty-drop: the engine decides a flush is needed but the op
        never reaches the local CP."""
        original = ElisionEngine._order_ops
        monkeypatch.setattr(
            ElisionEngine, "_order_ops",
            staticmethod(lambda rel, acq: [
                op for op in original(rel, acq)
                if op.kind is not SyncOpKind.RELEASE]))
        with pytest.raises(CheckError, match="op-set-mismatch"):
            self._run_checked()

    def test_dropped_acquire_is_caught(self, monkeypatch):
        """Stale-read hazard: a chiplet re-reads a range it holds Stale
        without the mandated invalidate."""
        original = ElisionEngine._order_ops
        monkeypatch.setattr(
            ElisionEngine, "_order_ops",
            staticmethod(lambda rel, acq: [
                op for op in original(rel, acq)
                if op.kind is not SyncOpKind.ACQUIRE]))
        with pytest.raises(CheckError, match="op-set-mismatch"):
            self._run_checked()

    def test_noop_flush_is_caught(self, monkeypatch):
        """A release that reports success but leaves the L2 dirty."""
        monkeypatch.setattr(Device, "flush_l2", lambda self, chiplet: 0)
        with pytest.raises(CheckError,
                           match="untracked-dirty|unflushed-at-run-end"):
            self._run_checked()

    def test_phantom_stale_marking_is_caught(self, monkeypatch):
        """An install pass that forgets to exclude Not-Present chiplets
        from Valid->Stale marking performs Fig. 6's one forbidden edge
        (NP -> Stale) on first touch."""
        original = ElisionEngine._install

        def bad_install(self, region):
            ops = original(self, region)
            if region.mode.writes:
                entry, _ = self.table.get_or_create(region)
                for holder in range(self.table.num_chiplets):
                    if holder not in region.chiplet_ranges:
                        entry.states[holder] = ChipletState.STALE
            return ops

        monkeypatch.setattr(ElisionEngine, "_install", bad_install)
        space = AddressSpace()
        buf = space.alloc("B", 32 * 4096)
        workload = Workload(name="first-touch", space=space, kernels=[
            Kernel("one-write",
                   args=(KernelArg(buf, AccessMode.RW,
                                   pattern=PatternKind.SHARED),),
                   chiplet_mask=(0,))])
        with pytest.raises(CheckError, match="illegal-transition"):
            Simulator(CHECKED, "cpelide").run(workload)

    def test_forgotten_directory_sharer_is_caught(self, monkeypatch):
        """HMG: a remote fill whose sharer registration is lost — the
        next store could not invalidate the remote copy."""
        from repro.coherence.hmg import HMGProtocol

        monkeypatch.setattr(HMGProtocol, "_register_sharer",
                            lambda self, home, line, sharer: None)
        with pytest.raises(CheckError, match="directory-sharer-missing"):
            self._run_checked(protocol="hmg")

    def test_stale_read_unit(self):
        """The stale-read invariant itself, driven directly: it guards
        the purely-remote-accessor path where no launch-time install
        overwrites the accessor's state."""
        config = CHECKED
        device = Device(config)
        from repro.coherence.base import make_protocol
        protocol = make_protocol("cpelide", config, device)
        sanitizer = SyncSanitizer(config, device, protocol)
        table = protocol.table
        entry, _ = table.get_or_create(SimpleNamespace(
            name="B", base=0, end=4096, mode=AccessMode.RW,
            chiplet_ranges={0: (0, 4096)}))
        entry.states[1] = ChipletState.STALE
        entry.ranges[1] = (0, 4096)
        region = SimpleNamespace(base=0, end=4096,
                                 chiplet_ranges={1: (0, 4096)})
        packet = SimpleNamespace(kernel_id=7, name="k")
        with pytest.raises(CheckError, match="stale-read"):
            sanitizer._check_no_stale_access(packet, [region])


# ---------------------------------------------------------------------------
# Differential oracle


class TestOracle:
    def test_small_matrix_ok(self):
        report = run_oracle(workloads=["square"],
                            protocols=["cpelide", "hmg"],
                            trace_paths=("line", "run", "memo"),
                            config=CONFIG)
        assert report.ok
        assert report.cells == 2
        assert report.runs == 6

    def test_requires_two_trace_paths(self):
        with pytest.raises(ValueError):
            run_oracle(workloads=["square"], trace_paths=("line",),
                       config=CONFIG)

    def test_detects_injected_divergence(self, monkeypatch):
        """A trace path that perturbs one kernel's cycles must be
        reported, pinned to that kernel."""
        class Tampered(Simulator):
            def run(self, workload):
                result = super().run(workload)
                if self.trace_path == "memo":
                    result.metrics.kernels[2].cycles += 1.0
                return result

        monkeypatch.setattr("repro.check.oracle.Simulator", Tampered)
        report = run_oracle(workloads=["square"], protocols=["cpelide"],
                            trace_paths=("line", "run", "memo"),
                            config=CONFIG)
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.trace_path == "memo"
        assert divergence.kind == "metrics"
        assert divergence.kernel_index == 2
        assert any("cycles" in line for line in divergence.details)
        assert "square / cpelide" in divergence.describe()

    def test_fingerprint_sees_set_creation_order(self):
        """Two L2s holding the same lines with their sets created in a
        different order are different machine states (a whole-cache
        flush writes them back in a different order), so the final-state
        fingerprints must differ."""
        sim = Simulator(CONFIG, "cpelide")
        sim.run(producer_consumer_workload())
        l2s = []
        for order in ((1, 2), (2, 1)):  # two sets: line 1 -> set 1
            l2 = SetAssocCache(size_bytes=4 * 64, assoc=2, name="L2")
            for line in order:
                l2.access(line, is_write=True)
            l2s.append(l2)
        assert sorted(l2s[0].iter_lines()) == sorted(l2s[1].iter_lines())
        assert l2s[0].flush_dirty() != l2s[1].flush_dirty()
        prints = []
        for l2 in l2s:
            sim.last_device.chiplets[0].l2 = l2
            prints.append(final_state_fingerprint(sim))
        assert prints[0]["l2[0]"] != prints[1]["l2[0]"]
        del prints[0]["l2[0]"], prints[1]["l2[0]"]
        assert prints[0] == prints[1]

    def test_diff_paths_pinpoints_leaves(self):
        a = {"x": {"y": 1, "z": [1, 2]}, "only_a": 0}
        b = {"x": {"y": 2, "z": [1, 3]}}
        diff = diff_paths(a, b)
        assert "x.y: 1 != 2" in diff
        assert "x.z[1]: 2 != 3" in diff
        assert any(line.startswith("only_a:") for line in diff)

    def test_diff_paths_length_mismatch_is_one_leaf(self):
        assert diff_paths([1, 2], [1], "k") == ["k: length 2 != 1"]
