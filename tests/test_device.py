"""Unit tests for the device model (caches, sync ops, traffic plumbing)."""

import pytest

from repro.cp.local_cp import SyncOp, SyncOpKind
from repro.gpu.config import GPUConfig
from repro.gpu.device import Device
from repro.memory.cache import WritePolicy

from tests.conftest import TEST_SCALE


@pytest.fixture
def device():
    return Device(GPUConfig(num_chiplets=4, scale=TEST_SCALE))


class TestStructure:
    def test_one_l2_per_chiplet(self, device):
        assert len(device.l2s) == 4
        assert len(device.local_cps) == 4

    def test_scaled_capacities(self, device):
        config = device.config
        assert device.l2s[0].capacity_lines \
            == config.scaled_l2_size // config.line_size
        assert device.l3.capacity_lines \
            == config.scaled_l3_size // config.line_size

    def test_begin_kernel_resets_meters(self, device):
        device.traffic.l1_data()
        device.counts[0].l2_local_hits = 5
        device.begin_kernel()
        assert device.traffic.total == 0
        assert device.counts[0].l2_local_hits == 0

    def test_set_l2_policy(self, device):
        device.set_l2_policy(WritePolicy.WRITE_THROUGH)
        assert all(l2.policy is WritePolicy.WRITE_THROUGH
                   for l2 in device.l2s)

    def test_set_l2_policy_after_use_rejected(self, device):
        device.l2s[0].access(1, False)
        with pytest.raises(RuntimeError):
            device.set_l2_policy(WritePolicy.WRITE_THROUGH)


class TestL3Path:
    def test_cold_fetch_reads_dram(self, device):
        device.fetch_from_l3(0, 100)
        assert device.counts[0].l3_misses == 1
        assert device.counts[0].dram_reads == 1
        assert device.l3.lookup(100)

    def test_warm_fetch_hits(self, device):
        device.fetch_from_l3(0, 100)
        device.fetch_from_l3(1, 100)
        assert device.counts[1].l3_hits == 1
        assert device.counts[1].dram_reads == 0

    def test_l3_write_through_to_dram(self, device):
        device.l3_write(0, 100, through_to_dram=True)
        assert device.counts[0].dram_writes == 1

    def test_dirty_l3_eviction_writes_dram(self, device):
        # Fill the (tiny, test-scale) L3 with dirty lines until evictions.
        capacity = device.l3.capacity_lines
        for line in range(capacity + 8):
            device.writeback_line(0, line)
        assert device.counts[0].dram_writes > 0


class TestSyncOps:
    def test_flush_l2_moves_dirty_to_l3(self, device):
        device.l2s[1].access(10, True)
        device.l2s[1].access(11, True)
        flushed = device.flush_l2(1)
        assert flushed == 2
        assert device.l3.lookup(10) and device.l3.lookup(11)
        assert device.l2s[1].dirty_lines == 0
        assert device.l2s[1].resident_lines == 2  # clean copies retained

    def test_invalidate_l2_drops_everything(self, device):
        device.l2s[1].access(10, True)
        device.l2s[1].access(11, False)
        invalidated = device.invalidate_l2(1)
        assert invalidated == 2
        assert device.l2s[1].resident_lines == 0
        assert device.l3.lookup(10)  # dirty line written back for safety

    def test_flush_ranges_only_touch_window(self, device):
        device.l2s[0].access(0, True)       # byte 0
        device.l2s[0].access(100, True)     # byte 6400
        flushed = device.flush_l2_ranges(0, [(0, 64)])
        assert flushed == 1
        assert not device.l2s[0].is_dirty(0)
        assert device.l2s[0].is_dirty(100)

    def test_invalidate_ranges(self, device):
        device.l2s[0].access(0, True)
        device.l2s[0].access(100, False)
        dropped = device.invalidate_l2_ranges(0, [(0, 64)])
        assert dropped == 1
        assert not device.l2s[0].lookup(0)
        assert device.l2s[0].lookup(100)
        assert device.l3.lookup(0)  # dirty written back first


class TestLocalCP:
    def test_release_op_acks_flush_volume(self, device):
        device.l2s[2].access(7, True)
        ack = device.local_cps[2].execute(
            SyncOp(SyncOpKind.RELEASE, 2, reason="test"))
        assert ack.lines_flushed == 1
        assert ack.lines_invalidated == 0

    def test_acquire_op_acks_drop_volume(self, device):
        device.l2s[2].access(7, False)
        ack = device.local_cps[2].execute(
            SyncOp(SyncOpKind.ACQUIRE, 2, reason="test"))
        assert ack.lines_invalidated == 1

    def test_misrouted_op_rejected(self, device):
        with pytest.raises(ValueError):
            device.local_cps[0].execute(
                SyncOp(SyncOpKind.RELEASE, 1, reason="bad"))

    def test_ranged_op_via_local_cp(self, device):
        device.l2s[3].access(5, True)
        ack = device.local_cps[3].execute(
            SyncOp(SyncOpKind.RELEASE, 3, reason="r", ranges=((0, 4096),)))
        assert ack.lines_flushed == 1


class TestHomeMapIntegration:
    def test_page_granularity_scaled(self, device):
        assert device.home_map.lines_per_page \
            == device.config.scaled_page_lines

    def test_first_touch_through_device(self, device):
        assert device.home_of(100, toucher=3) == 3
        assert device.home_of(100, toucher=0) == 3
