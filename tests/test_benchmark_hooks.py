"""Names the repository benchmark's per-layer tracer patches.

``perfbench/layers.py`` wraps methods through ``cls.__dict__[name]``,
so each method must be defined on the very class it patches: a method
moved to another class breaks the patch, and a subclass override
escapes the wrapper, so its spans silently read zero while the rest of
the suite still passes.
"""

from repro.coherence.base import CoherenceProtocol
from repro.coherence.registry import protocols
from repro.engine.cache import ResultCache, SharedResultCache
from repro.engine.dist import DistSweepRunner
from repro.gpu.config import GPUConfig, monolithic_equivalent
from repro.gpu.device import Device
from repro.memory.cache import SetAssocCache
from repro.memory.npcache import NumpyCacheCore

BULK_OPS = ("bulk_access", "bulk_fill", "bulk_serve", "bulk_flush",
            "bulk_invalidate")


def test_bulk_ops_are_defined_on_the_dict_core_only():
    for name in BULK_OPS + ("access", "lookup"):
        assert name in vars(SetAssocCache), name
    for name in ("access", "lookup"):
        assert name in vars(NumpyCacheCore), name
    assert [name for name in vars(NumpyCacheCore)
            if name.startswith("bulk_")] == []


def test_result_cache_methods():
    for name in ("load", "store"):
        assert name in vars(ResultCache), name
    for name in ("acquire", "store_and_release", "wait_for"):
        assert name in vars(SharedResultCache), name


def test_sweep_runner_run():
    assert "run" in vars(DistSweepRunner)


def test_demand_access_is_defined_on_the_protocol_base_only():
    """``access`` and ``access_run`` are the one skeleton every protocol
    shares: a renamed one zeroes the ``coherence.*`` spans, and a
    re-defined one escapes the wrapper on the base."""
    for name in ("access", "access_run"):
        assert name in vars(CoherenceProtocol), name
    config = GPUConfig(num_chiplets=2, scale=1 / 4096)
    for spec in protocols():
        cfg = (monolithic_equivalent(config) if spec.name == "monolithic"
               else config)
        mro = type(spec.build(cfg, Device(cfg))).__mro__
        for cls in mro[:mro.index(CoherenceProtocol)]:
            for name in ("access", "access_run"):
                assert name not in vars(cls), (spec.name, cls, name)
