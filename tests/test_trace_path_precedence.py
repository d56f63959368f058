"""Satellite regressions for the caching/memo layer bugfix sweep.

* Trace-path precedence — an explicit ``trace_path`` argument always
  beats ``REPRO_TRACE_PATH``, which beats the default; the empty string
  counts as unset. The precedence must hold identically in forked sweep
  workers, which inherit the parent's environment.
* Memo-counter transport — counters survive the sweep engine's
  ``to_dict()`` process/cache boundary beside the payload, and
  cache-served results report ``None`` (not fabricated zeros) plus
  ``from_cache=True``.
* Salt hardening — a stale ``_SALT_MODULES``/``_SALT_PACKAGES`` entry
  fails with a clear configuration error, not a bare
  ``FileNotFoundError`` from deep inside a sweep.
"""

from __future__ import annotations

import pytest

from repro.engine import cache as engine_cache
from repro.engine.cache import SharedResultCache
from repro.engine.runner import SweepRunner, _fork_available
from repro.engine.spec import SweepSpec
from repro.gpu.config import GPUConfig
from repro.gpu.memo import clear_memo_stores
from repro.gpu.sim import TRACE_PATH_ENV, Simulator, resolve_trace_path
from repro.gpu.trace_path import DEFAULT_TRACE_PATH

from tests.conftest import TEST_SCALE


@pytest.fixture(autouse=True)
def _fresh_memo_store():
    clear_memo_stores()
    yield
    clear_memo_stores()


def small_spec(workloads=("square",)) -> SweepSpec:
    return SweepSpec.grid(workloads=workloads, protocols=("cpelide",),
                          chiplet_counts=(4,), scale=TEST_SCALE)


class TestResolveTracePath:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_PATH_ENV, raising=False)
        assert resolve_trace_path() == DEFAULT_TRACE_PATH

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(TRACE_PATH_ENV, "memo")
        assert resolve_trace_path() == "memo"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(TRACE_PATH_ENV, "memo")
        assert resolve_trace_path("line") == "line"
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        assert Simulator(config, trace_path="line").trace_path == "line"

    def test_empty_env_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(TRACE_PATH_ENV, "")
        assert resolve_trace_path() == DEFAULT_TRACE_PATH

    def test_invalid_explicit_raises_despite_valid_env(self, monkeypatch):
        monkeypatch.setenv(TRACE_PATH_ENV, "run")
        with pytest.raises(ValueError):
            resolve_trace_path("bogus")

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(TRACE_PATH_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_trace_path()


class TestMemoCounterTransport:
    def test_non_memo_paths_report_none(self):
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        from repro.workloads.suite import build_workload
        for trace_path in ("line", "run"):
            result = Simulator(config, "cpelide",
                               trace_path=trace_path).run(
                build_workload("square", config))
            assert result.memo_hits is None
            assert result.memo_misses is None
            assert result.memo_bypasses is None
            assert result.from_cache is False

    def test_serial_sweep_transports_counters(self, monkeypatch):
        monkeypatch.setenv(TRACE_PATH_ENV, "memo")
        outcome = SweepRunner().run(small_spec()).outcomes[0]
        assert outcome.cached is False
        assert outcome.result.memo_hits is not None
        assert outcome.result.memo_hits + outcome.result.memo_misses > 0

    @pytest.mark.skipif(not _fork_available(),
                        reason="platform lacks fork")
    def test_forked_workers_honor_env_and_transport_counters(
            self, monkeypatch):
        """The regression this satellite pins: workers run the memo path
        when the parent's environment says so, and their counters cross
        the pickled-payload boundary instead of silently reading zero."""
        monkeypatch.setenv(TRACE_PATH_ENV, "memo")
        sweep = SweepRunner(workers=2).run(
            small_spec(workloads=("square", "babelstream")))
        for outcome in sweep.outcomes:
            assert outcome.cached is False
            assert outcome.result.memo_hits is not None
            assert (outcome.result.memo_hits
                    + outcome.result.memo_misses
                    + outcome.result.memo_bypasses) > 0

    def test_cache_served_results_are_marked(self, tmp_path, monkeypatch):
        """A warm ResultCache hit must say so — ``from_cache=True`` and
        ``None`` counters — never fabricate zero memo activity."""
        monkeypatch.setenv(TRACE_PATH_ENV, "memo")
        cache = SharedResultCache(root=tmp_path / "c")
        first = SweepRunner(cache=cache).run(small_spec())
        warm = SweepRunner(cache=cache).run(small_spec())
        assert first.outcomes[0].result.from_cache is False
        assert first.outcomes[0].result.memo_hits is not None
        outcome = warm.outcomes[0]
        assert outcome.cached is True
        assert outcome.result.from_cache is True
        assert outcome.result.memo_hits is None
        assert outcome.result.memo_misses is None
        assert outcome.result.memo_bypasses is None

    def test_from_cache_not_serialized(self, tmp_path, monkeypatch):
        """``from_cache`` is runtime provenance, not result identity:
        the stored payload must stay bit-identical to a fresh run's."""
        cache = SharedResultCache(root=tmp_path / "c")
        first = SweepRunner(cache=cache).run(small_spec())
        warm = SweepRunner(cache=cache).run(small_spec())
        assert first.to_dicts() == warm.to_dicts()
        assert "from_cache" not in repr(warm.to_dicts())


class TestSaltHardening:
    def test_spec_module_is_salted(self):
        """engine/spec.py shapes every cache key's payload, so editing
        it must invalidate entries."""
        assert "engine/spec.py" in engine_cache._SALT_MODULES

    def test_missing_salt_module_is_a_clear_error(self, monkeypatch):
        monkeypatch.setattr(engine_cache, "_SALT_MODULES",
                            ("engine/does-not-exist.py",))
        engine_cache.code_version_salt.cache_clear()
        try:
            with pytest.raises(RuntimeError,
                               match="does-not-exist.*_SALT_MODULES"):
                engine_cache.code_version_salt()
        finally:
            engine_cache.code_version_salt.cache_clear()

    def test_missing_salt_package_is_a_clear_error(self, monkeypatch):
        monkeypatch.setattr(engine_cache, "_SALT_PACKAGES",
                            ("no-such-package",))
        engine_cache.code_version_salt.cache_clear()
        try:
            with pytest.raises(RuntimeError,
                               match="no-such-package.*_SALT_PACKAGES"):
                engine_cache.code_version_salt()
        finally:
            engine_cache.code_version_salt.cache_clear()
