"""Unit tests for the GPU driver / software-queue layer."""

import pytest

from repro.coherence.viper import BaselineProtocol
from repro.cp.driver import GPUDriver, PacketKind, SoftwarePacket, SoftwareQueue
from repro.cp.global_cp import GlobalCP
from repro.cp.packets import AccessMode
from repro.gpu.config import GPUConfig
from repro.gpu.device import Device
from repro.memory.address import AddressSpace
from repro.workloads.base import Kernel, KernelArg

from tests.conftest import TEST_SCALE


@pytest.fixture
def config():
    return GPUConfig(num_chiplets=4, scale=TEST_SCALE)


@pytest.fixture
def kernel():
    buf = AddressSpace().alloc("A", 16 * 4096)
    return Kernel("k", args=(KernelArg(buf, AccessMode.RW),), num_wgs=16)


class TestSoftwareQueue:
    def test_doorbell_drains_ring(self):
        queue = SoftwareQueue(0)
        queue.push(SoftwarePacket(PacketKind.BARRIER))
        queue.push(SoftwarePacket(PacketKind.BARRIER))
        assert len(queue) == 2
        drained = queue.ring_doorbell()
        assert len(drained) == 2
        assert len(queue) == 0
        assert queue.ring_doorbell() == []

    def test_dispatch_requires_kernel(self):
        with pytest.raises(ValueError):
            SoftwarePacket(PacketKind.KERNEL_DISPATCH)


class TestGPUDriver:
    def test_dense_kernel_ids(self, config, kernel):
        driver = GPUDriver(config)
        ids = [driver.enqueue_kernel(kernel).kernel_id for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert driver.kernels_enqueued == 5

    def test_packet_carries_annotations(self, config, kernel):
        driver = GPUDriver(config)
        packet = driver.enqueue_kernel(kernel)
        assert len(packet.args) == 1
        assert packet.args[0].mode is AccessMode.RW

    def test_streams_get_separate_queues(self, config, kernel):
        import dataclasses
        driver = GPUDriver(config)
        driver.enqueue_kernel(kernel)
        driver.enqueue_kernel(dataclasses.replace(kernel, stream_id=1))
        assert len(driver.queue_for_stream(0)) == 1
        assert len(driver.queue_for_stream(1)) == 1

    def test_submit_hands_to_cp(self, config, kernel):
        device = Device(config)
        global_cp = GlobalCP(config, device, BaselineProtocol(config, device))
        driver = GPUDriver(config)
        driver.enqueue_kernel(kernel)
        driver.enqueue_kernel(kernel)
        assert driver.submit(global_cp) == 2
        assert global_cp.queue_scheduler.pending == 2
        # Second submit has nothing left.
        assert driver.submit(global_cp) == 0

    def test_logical_chiplets_respect_masks(self, config):
        buf = AddressSpace().alloc("A", 16 * 4096)
        masked = Kernel("k", args=(KernelArg(buf, AccessMode.R),),
                        num_wgs=16, chiplet_mask=(1, 2))
        driver = GPUDriver(config)
        packet = driver.enqueue_kernel(masked)
        assert packet.chiplet_mask == (1, 2)

    def test_narrow_kernel_logical_count(self, config):
        buf = AddressSpace().alloc("A", 16 * 4096)
        narrow = Kernel("k", args=(KernelArg(buf, AccessMode.R),), num_wgs=1)
        driver = GPUDriver(config)
        packet = driver.enqueue_kernel(narrow)
        # A 1-WG kernel's annotation spans one logical chiplet: the whole
        # buffer on logical 0.
        lo, hi = packet.args[0].range_for_logical_chiplet(0, 1)
        assert (lo, hi) == (buf.base, buf.end)
