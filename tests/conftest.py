"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cp.packets import AccessMode
from repro.gpu.config import GPUConfig
from repro.memory.address import AddressSpace
from repro.workloads.base import AccessKind, Kernel, KernelArg, PatternKind, Workload

#: Small scale used throughout the tests (fast, preserves ratios).
TEST_SCALE = 1 / 64

#: JSON values that decode but are not a stored result-cache document,
#: by name; each takes the cache's salt (the last is an object with the
#: current salt and no result).
NOT_DOCUMENTS = {
    "list": lambda salt: [1],
    "string": lambda salt: "salt",
    "no-result": lambda salt: {"salt": salt},
}


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep every test's result cache in a private tmp dir — tests must
    never read or populate the user's ``~/.cache`` sweep cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture
def config() -> GPUConfig:
    """A 4-chiplet test-scale configuration."""
    return GPUConfig(num_chiplets=4, scale=TEST_SCALE)


@pytest.fixture
def config2() -> GPUConfig:
    """A 2-chiplet test-scale configuration."""
    return GPUConfig(num_chiplets=2, scale=TEST_SCALE)


@pytest.fixture
def space() -> AddressSpace:
    """A fresh address space."""
    return AddressSpace()


def make_kernel(name, args, **kwargs):
    """Build a kernel with test-friendly defaults."""
    kwargs.setdefault("num_wgs", 64)
    kwargs.setdefault("compute_intensity", 2.0)
    return Kernel(name=name, args=tuple(args), **kwargs)


def simple_workload(space, kernels, name="test-app", reuse_class="high"):
    """Wrap kernels into a workload."""
    return Workload(name=name, space=space, kernels=list(kernels),
                    reuse_class=reuse_class)


def rw(buffer, **kwargs):
    """A read/write argument."""
    return KernelArg(buffer=buffer, mode=AccessMode.RW, **kwargs)


def ro(buffer, **kwargs):
    """A read-only argument."""
    return KernelArg(buffer=buffer, mode=AccessMode.R, **kwargs)


def store(buffer, **kwargs):
    """A streaming-store argument."""
    return KernelArg(buffer=buffer, mode=AccessMode.RW,
                     kind=AccessKind.STORE, **kwargs)
