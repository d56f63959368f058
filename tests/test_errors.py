"""The repro.errors hierarchy and the versioned repro.api surface."""

from __future__ import annotations

import warnings

import pytest

import repro.api
from repro.errors import (
    CacheError,
    ConfigError,
    InvariantViolation,
    OracleDivergence,
    ReproError,
)
from repro.gpu.config import GPUConfig
from repro.workloads.suite import build_workload
from tests.conftest import TEST_SCALE


class TestHierarchy:
    def test_every_error_is_a_repro_error(self):
        for exc in (ConfigError, CacheError, InvariantViolation,
                    OracleDivergence):
            assert issubclass(exc, ReproError)

    def test_dual_inheritance_keeps_legacy_except_clauses_working(self):
        # Call sites that caught the old builtin types keep catching.
        assert issubclass(ConfigError, ValueError)
        assert issubclass(CacheError, RuntimeError)
        assert issubclass(InvariantViolation, AssertionError)
        assert issubclass(OracleDivergence, AssertionError)

    def test_sanitizer_and_bench_errors_slot_in(self):
        from repro.bench import EquivalenceError
        from repro.check.sanitizer import CheckError

        assert issubclass(CheckError, InvariantViolation)
        assert issubclass(EquivalenceError, OracleDivergence)

    def test_config_validation_raises_config_error(self):
        with pytest.raises(ConfigError):
            GPUConfig(num_chiplets=0)
        with pytest.raises(ConfigError):
            GPUConfig(num_chiplets=4, scale=-1.0)

    def test_unknown_trace_path_raises_config_error(self):
        from repro.gpu.sim import resolve_trace_path

        with pytest.raises(ConfigError):
            resolve_trace_path("zigzag")


class TestApiSurface:
    def test_api_version(self):
        import repro as repro_pkg

        assert repro.api.__api_version__ == "9.0"
        assert repro_pkg.__api_version__ == "9.0"

    def test_simulate_rejects_cache_with_workload_instance(self):
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        workload = build_workload("square", config)
        with pytest.raises(ConfigError, match="cache"):
            repro.api.simulate(workload, "cpelide", config=config,
                               cache=True)

    def test_cache_takes_a_bool_or_a_shared_cache(self, tmp_path):
        """The exported ``ResultCache`` is the shared cache, so every
        ``cache=`` accepts it; anything else (a path) is rejected."""
        cache = repro.ResultCache(root=tmp_path / "c")
        repro.api.sweep(workloads=("square",), protocols=("cpelide",),
                        scale=TEST_SCALE, cache=cache)
        assert len(cache) > 0
        with pytest.raises(ConfigError, match="SharedResultCache"):
            repro.api.sweep(workloads=("square",), protocols=("cpelide",),
                            scale=TEST_SCALE, cache=str(tmp_path / "c"))

    def test_simulate_options_are_keyword_only(self):
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        with pytest.raises(TypeError):
            repro.api.simulate("square", "cpelide", config)

    def test_deep_import_names_are_not_in_the_api(self):
        for name in ("Device", "JobSpec", "RunMetrics",
                     "resolve_trace_path"):
            with pytest.raises(AttributeError):
                getattr(repro.api, name)

    def test_stable_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.api.GPUConfig is GPUConfig

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.api.definitely_not_a_thing
