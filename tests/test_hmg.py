"""Unit tests for the HMG comparator."""

import pytest

from repro.coherence.hmg import LINES_PER_REGION, DirectoryEntry, HMGProtocol, L2Directory
from repro.gpu.config import GPUConfig
from repro.gpu.device import Device
from repro.memory.cache import WritePolicy

from tests.conftest import TEST_SCALE


def make(write_back=False, num_chiplets=4):
    config = GPUConfig(num_chiplets=num_chiplets, scale=TEST_SCALE)
    device = Device(config)
    return config, device, HMGProtocol(config, device, write_back=write_back)


class TestL2Directory:
    def test_region_of(self):
        assert L2Directory.region_of(0) == 0
        assert L2Directory.region_of(3) == 0
        assert L2Directory.region_of(4) == 1

    def test_lru_eviction(self):
        directory = L2Directory(num_entries=2)
        directory.get_or_insert(0)
        directory.get_or_insert(1)
        directory.get(0)                      # refresh region 0
        _, evicted = directory.get_or_insert(2)
        assert evicted is not None
        assert evicted[0] == 1
        assert len(directory) == 2 and directory.peek(1) is None

    def test_drop(self):
        directory = L2Directory(num_entries=4)
        directory.get_or_insert(5)
        directory.drop(5)
        assert directory.get(5) is None
        assert len(directory) == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            L2Directory(0)


class TestHMGSetup:
    def test_wt_policy_applied(self):
        _, device, protocol = make(write_back=False)
        assert protocol.l2_policy is WritePolicy.WRITE_THROUGH
        assert all(l2.policy is WritePolicy.WRITE_THROUGH
                   for l2 in device.l2s)

    def test_wb_variant(self):
        _, device, protocol = make(write_back=True)
        assert protocol.name == "hmg-wb"
        assert all(l2.policy is WritePolicy.WRITE_BACK for l2 in device.l2s)

    def test_no_boundary_ops(self):
        from repro.cp.packets import KernelPacket
        from repro.cp.wg_scheduler import Placement
        _, _, protocol = make()
        packet = KernelPacket(kernel_id=0, name="k", stream_id=0, num_wgs=4,
                              args=())
        placement = Placement((0, 1), (2, 2))
        assert protocol.on_kernel_launch(packet, placement) == []
        assert protocol.on_kernel_complete(packet, placement) == []

    def test_directory_scaled(self):
        config, _, protocol = make()
        expected = max(16, int(HMGProtocol.PAPER_DIR_ENTRIES * config.scale))
        assert protocol.directories[0].num_entries == expected
        assert len(protocol.directories) == config.num_chiplets


class TestHMGLoads:
    def test_remote_line_cached_locally(self):
        _, device, protocol = make()
        protocol.access(0, 100, False)        # home 0
        protocol.access(2, 100, False)        # remote fetch by 2
        assert device.l2s[2].lookup(100)      # cached at requester
        assert device.counts[2].l2_remote_hits == 1

    def test_local_hit_after_remote_caching(self):
        _, device, protocol = make()
        protocol.access(0, 100, False)
        protocol.access(2, 100, False)
        protocol.access(2, 100, False)
        assert device.counts[2].l2_local_hits == 1

    def test_sharer_registered(self):
        _, _, protocol = make()
        protocol.access(0, 100, False)
        protocol.access(2, 100, False)
        entry = protocol.directories[0].get(L2Directory.region_of(100))
        assert entry is not None
        assert 2 in entry.sharers

    def test_remote_miss_fills_home_node(self):
        _, device, protocol = make()
        device.home_map.home_of_line(100, 0)   # home 0, nothing resident
        protocol.access(2, 100, False)
        assert device.l2s[0].lookup(100)       # home-node caching
        assert device.counts[2].l2_remote_misses == 1


class TestHMGStores:
    def test_wt_store_goes_through_to_memory(self):
        _, device, protocol = make()
        protocol.access(1, 50, True)
        assert device.counts[1].l2_writethroughs == 1
        assert device.counts[1].dram_writes == 1
        assert not device.l2s[1].is_dirty(50)

    def test_store_invalidates_other_sharers(self):
        _, device, protocol = make()
        protocol.access(0, 100, False)   # home 0
        protocol.access(2, 100, False)   # sharer 2 caches it
        assert device.l2s[2].lookup(100)
        protocol.access(0, 100, True)    # home writes
        assert not device.l2s[2].lookup(100)
        sync = protocol.drain_sync_counts()
        assert sync.dir_invalidations >= 1

    def test_store_invalidation_stalls_writer(self):
        _, device, protocol = make()
        protocol.access(0, 100, False)
        protocol.access(2, 100, False)
        protocol.access(0, 100, True)
        assert device.counts[0].coherence_stalls >= 1

    def test_remote_store_keeps_copies_home_and_sender(self):
        """Sec. IV-C: HMG retains a valid copy in home and sender L2s."""
        _, device, protocol = make()
        protocol.access(0, 100, False)   # home 0
        protocol.access(2, 100, True)    # remote store by 2
        assert device.l2s[2].lookup(100)
        assert device.l2s[0].lookup(100)


class TestDirectoryEvictions:
    def test_eviction_invalidates_sharers_four_lines(self):
        config, device, protocol = make()
        # Shrink the directory to force evictions deterministically.
        protocol.directories[0] = L2Directory(num_entries=1)
        protocol.access(0, 0, False)          # home 0 for region 0
        protocol.access(0, 4, False)          # home 0 for region 1
        protocol.access(2, 0, False)          # sharer of region 0
        protocol.access(2, 1, False)          # second line, same region
        assert device.l2s[2].lookup(0) and device.l2s[2].lookup(1)
        protocol.access(2, 4, False)          # region 1 evicts region 0
        # All of region 0's lines vanish from the sharer.
        assert not device.l2s[2].lookup(0)
        assert not device.l2s[2].lookup(1)
        sync = protocol.drain_sync_counts()
        assert sync.dir_evictions >= 1
        assert sync.dir_invalidations >= 1


class TestWriteBackVariant:
    def test_store_stays_dirty_locally(self):
        _, device, protocol = make(write_back=True)
        protocol.access(1, 50, True)
        assert device.l2s[1].is_dirty(50)
        assert device.counts[1].dram_writes == 0

    def test_owner_tracked(self):
        _, _, protocol = make(write_back=True)
        protocol.access(0, 100, False)   # home 0
        protocol.access(2, 100, True)    # remote write -> owner 2
        entry = protocol.directories[0].get(L2Directory.region_of(100))
        assert entry.owner == 2

    def test_read_pulls_owner_data(self):
        _, device, protocol = make(write_back=True)
        protocol.access(0, 100, False)
        protocol.access(2, 100, True)    # dirty at 2
        device.begin_kernel()
        protocol.access(3, 100, False)   # reader must get 2's data
        assert not device.l2s[2].is_dirty(100)  # flushed by the pull
        assert device.traffic.remote > 0
