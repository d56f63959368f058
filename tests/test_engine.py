"""The sweep engine: spec expansion, caching, and deterministic results."""

from __future__ import annotations

import dataclasses
import inspect
import json
import pathlib
import pickle

import pytest

import repro
from repro.coherence.registry import protocols
from repro.engine.cache import (
    _SALT_PACKAGES,
    CacheStats,
    ResultCache,
    SharedResultCache,
    code_version_salt,
)
from repro.engine.runner import (
    SweepRunner,
    resolve_jobs,
    shard_jobs,
)
from repro.engine.spec import (
    JobSpec,
    SweepSpec,
    build_for_job,
    workload_label,
)
from repro.gpu.config import GPUConfig, monolithic_equivalent
from repro.gpu.sim import SimulationResult, Simulator
from repro.interconnect.noc import TrafficMeter
from repro.metrics.stats import (
    AccessCounts,
    KernelMetrics,
    RunMetrics,
    SyncCounts,
)
from repro.workloads.suite import build_workload

from tests.conftest import NOT_DOCUMENTS, TEST_SCALE

WORKLOADS = ("square", "babelstream", "bfs")
PROTOCOLS = ("baseline", "cpelide")


def small_spec(workloads=WORKLOADS, protocols=PROTOCOLS,
               chiplet_counts=(4,), **kwargs) -> SweepSpec:
    return SweepSpec.grid(workloads=workloads, protocols=protocols,
                          chiplet_counts=chiplet_counts, scale=TEST_SCALE,
                          **kwargs)


def pinned_keys():
    """Two jobs and their cache keys, computed before the key payload's
    config dict became shallow."""
    square = JobSpec(workload="square", protocol="cpelide",
                     config=GPUConfig(num_chiplets=4, scale=1 / 64))
    multistream = JobSpec(
        workload=("multistream", "square", 2), protocol="hmg",
        config=GPUConfig(num_chiplets=2, scale=1 / 128,
                         l2_size=4 * 1024 * 1024),
        scheduler="locality")
    return (
        (square,
         "e56be9196c705fc3a1f72ffcecd9d7fbf80df023e6418268b05727258acbcc9a"),
        (multistream,
         "aa0a3bb78fe8e916adbdfb02338fff7f674e51fe261332c10bfc8992deee909a"),
    )


class TestSpec:
    def test_expand_order_is_configs_workloads_protocols(self):
        spec = small_spec(workloads=("square", "babelstream"), chiplet_counts=(2, 4))
        labels = [job.label for job in spec.expand()]
        assert labels == [
            "square/baseline@2", "square/cpelide@2",
            "babelstream/baseline@2", "babelstream/cpelide@2",
            "square/baseline@4", "square/cpelide@4",
            "babelstream/baseline@4", "babelstream/cpelide@4",
        ]
        assert spec.num_jobs == len(labels)

    def test_workload_label(self):
        assert workload_label("square") == "square"
        assert workload_label(("multistream", "square", 2)) == "square-ms2"

    def test_jobspec_rejects_non_string_protocol(self):
        with pytest.raises(TypeError):
            JobSpec(workload="square", protocol=object(),
                    config=GPUConfig(scale=TEST_SCALE))

    def test_key_payload_is_json_stable(self):
        job = JobSpec(workload="square", protocol="cpelide",
                      config=GPUConfig(num_chiplets=4, scale=TEST_SCALE))
        payload = job.key_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["config"]["num_chiplets"] == 4

    def test_key_payload_equals_asdict_payload(self):
        """The shallow config dict is the ``dataclasses.asdict`` one, so
        the canonical JSON, and every cache key, is unchanged."""
        for job, _ in pinned_keys():
            workload = (job.workload if isinstance(job.workload, str)
                        else list(job.workload))
            assert job.key_payload() == {
                "kind": "simulate", "workload": workload,
                "protocol": job.protocol, "scheduler": job.scheduler,
                "config": dataclasses.asdict(job.config)}

    def test_cache_keys_are_pinned(self):
        """Keys address every stored entry: a change to them orphans
        every cache on disk."""
        for job, key in pinned_keys():
            assert ResultCache.key(job) == key

    def test_each_job_is_keyed_once(self, tmp_path, monkeypatch):
        """The claim, store, release and load paths reuse the job's key;
        a pickled job (the fork pool's transport) carries it. The key
        comes from the cached config JSON, and the stored document no
        longer holds the payload, so nothing builds it."""
        from repro.engine import spec as spec_module

        calls = []
        original = spec_module._canonical_json

        def counted(job):
            calls.append(job.label)
            return original(job)

        monkeypatch.setattr(spec_module, "_canonical_json", counted)
        monkeypatch.setattr(JobSpec, "key_payload", None)
        job = small_spec(workloads=("square",),
                         protocols=("cpelide",)).expand()[0]
        cache = SharedResultCache(root=tmp_path / "c")
        _, token = cache.acquire(job)
        cache.store_and_release(job, [1, 2], token)
        assert cache.load(job) == [1, 2]
        assert pickle.loads(pickle.dumps(job)).key == job.key
        assert calls == [job.label]

    def test_canonical_json_is_the_payload_dump(self):
        """The key's canonical JSON, built from the cached config JSON,
        is byte for byte the sorted compact dump of the key payload —
        also for configs equal in value but not in field types, which
        dump apart and so must not share a cached config JSON."""
        from repro.engine.spec import _canonical_json

        jobs = [job for job, _ in pinned_keys()] + [
            JobSpec(workload="bfs", protocol="baseline",
                    config=GPUConfig(gpu_clock_hz=1801000000, scale=1)),
            JobSpec(workload="bfs", protocol="baseline",
                    config=GPUConfig(gpu_clock_hz=1801e6, scale=1.0))]
        assert jobs[-1] == jobs[-2]
        for job in jobs:
            assert _canonical_json(job) == json.dumps(
                job.key_payload(), sort_keys=True, separators=(",", ":"))
        assert jobs[-1].key != jobs[-2].key

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        """3 workloads x 2 protocols, in-process vs 4 forked workers
        produce byte-identical ``to_dict()`` payloads in the same order."""
        spec = small_spec()
        serial = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=4).run(spec)
        assert serial.to_dicts() == parallel.to_dicts()
        assert [o.job.label for o in serial.outcomes] == \
            [o.job.label for o in parallel.outcomes]

    def test_cached_matches_uncached_bit_for_bit(self, tmp_path):
        spec = small_spec(workloads=("square",))
        cache = SharedResultCache(root=tmp_path / "c")
        first = SweepRunner(cache=cache).run(spec)
        second = SweepRunner(cache=cache).run(spec)
        assert first.to_dicts() == second.to_dicts()

    def test_results_in_spec_order_regardless_of_completion(self):
        spec = small_spec(workloads=("square", "babelstream"))
        result = SweepRunner(workers=4).run(spec)
        expected = [job.label for job in spec.expand()]
        assert [o.job.label for o in result.outcomes] == expected


class TestCache:
    def test_second_run_all_hits_without_invoking_simulator(
            self, tmp_path, monkeypatch):
        """ISSUE acceptance: re-running a sweep is served 100% from cache
        with zero simulator invocations."""
        spec = small_spec()
        cache_dir = tmp_path / "cache"
        first = SweepRunner(cache=SharedResultCache(root=cache_dir)).run(spec)
        assert first.report.executed == spec.num_jobs
        assert first.report.cache_hits == 0

        def boom(self, workload):
            raise AssertionError("Simulator.run called on a cached sweep")

        monkeypatch.setattr(Simulator, "run", boom)
        second = SweepRunner(cache=SharedResultCache(root=cache_dir)).run(spec)
        assert second.report.cache_hits == spec.num_jobs
        assert second.report.executed == 0
        assert second.to_dicts() == first.to_dicts()
        assert all(o.cached for o in second.outcomes)

    def test_salt_change_invalidates(self, tmp_path):
        spec = small_spec(workloads=("square",), protocols=("cpelide",))
        old = SharedResultCache(root=tmp_path / "c",
                                salt="old-code-version")
        SweepRunner(cache=old).run(spec)
        assert len(old) == 1

        new = SharedResultCache(root=tmp_path / "c",
                                salt="new-code-version")
        result = SweepRunner(cache=new).run(spec)
        assert result.report.cache_invalidations == 1
        assert result.report.executed == 1
        # The stale entry was replaced: a third run under the new salt hits.
        again = SweepRunner(cache=new).run(spec)
        assert again.report.cache_hits == 1

    def test_corrupt_entry_is_invalidated(self, tmp_path):
        spec = small_spec(workloads=("square",), protocols=("cpelide",))
        cache = SharedResultCache(root=tmp_path / "c")
        SweepRunner(cache=cache).run(spec)
        [path] = list((tmp_path / "c").rglob("*.json"))
        not_json, not_utf8 = b"{not json", b'{"result": "\xff"}'
        for corrupt in (not_json, not_utf8):
            path.write_bytes(corrupt)
            result = SweepRunner(cache=cache).run(spec)
            assert result.report.cache_invalidations == 1
            assert result.report.executed == 1

    @pytest.mark.parametrize("name", sorted(NOT_DOCUMENTS))
    def test_entry_that_is_not_a_document_is_recomputed(self, tmp_path,
                                                        name):
        """An entry overwritten with JSON that decodes but is not a
        stored document is invalidated like undecodable bytes: the sweep
        recomputes the cell to the serial uncached result, and the next
        sweep hits."""
        spec = small_spec(workloads=("square",), protocols=("cpelide",))
        cache = SharedResultCache(root=tmp_path / "c")
        SweepRunner(cache=cache).run(spec)
        [path] = list((tmp_path / "c").rglob("*.json"))
        path.write_text(json.dumps(NOT_DOCUMENTS[name](cache.salt)))
        result = SweepRunner(cache=cache).run(spec)
        assert result.report.cache_invalidations == 1
        assert result.report.executed == 1
        assert result.to_dicts() == SweepRunner().run(spec).to_dicts()
        assert SweepRunner(cache=cache).run(spec).report.cache_hits == 1

    def test_cache_stats_accounting(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        job = small_spec(workloads=("square",),
                         protocols=("cpelide",)).expand()[0]
        assert cache.load(job) is None
        assert cache.stats.misses == 1
        cache.store(job, {"fake": 1})
        assert cache.stats.stores == 1
        assert cache.load(job) == {"fake": 1}
        assert cache.stats.hits == 1
        delta = cache.stats.since(CacheStats())
        assert (delta.hits, delta.misses, delta.stores) == (1, 1, 1)
        assert delta.to_dict() == {"hits": 1, "misses": 1, "stores": 1,
                                   "invalidations": 0, "deduped": 0,
                                   "claims": 0, "reclaims": 0}
        doubled = cache.stats.snapshot()
        doubled.merge(delta)
        assert doubled.to_dict() == {name: 2 * count for name, count
                                     in delta.to_dict().items()}

    def test_key_ignores_salt_but_depends_on_config(self, tmp_path):
        a = ResultCache(root=tmp_path / "c", salt="a")
        b = ResultCache(root=tmp_path / "c", salt="b")
        spec4 = small_spec(workloads=("square",), protocols=("cpelide",))
        spec2 = small_spec(workloads=("square",), protocols=("cpelide",),
                           chiplet_counts=(2,))
        job4, job2 = spec4.expand()[0], spec2.expand()[0]
        assert a.key(job4) == b.key(job4)
        assert a.key(job4) != a.key(job2)

    def test_code_version_salt_is_stable(self):
        assert code_version_salt() == code_version_salt()
        assert len(code_version_salt()) == 16

    def test_record_codec_is_salted(self):
        """Every function of the record codec lives in a salted package,
        so a change to the format changes the salt and entries in an
        older format are invalidated instead of decoded."""
        root = pathlib.Path(repro.__file__).parent
        codec = (SimulationResult.to_record, SimulationResult.from_record,
                 RunMetrics.to_record, RunMetrics.from_record,
                 KernelMetrics.to_row, KernelMetrics.from_row,
                 AccessCounts.to_row, SyncCounts.to_row,
                 TrafficMeter.to_row, TrafficMeter.from_row)
        for function in codec:
            source = pathlib.Path(inspect.getsourcefile(function))
            package = source.relative_to(root).parts[0]
            assert package in _SALT_PACKAGES, function.__qualname__

    def test_dict_format_entry_is_recomputed_not_decoded(self, tmp_path):
        """An entry holding a ``to_dict()`` payload under an older salt
        (the format before records) is counted, replaced by a record and
        never handed to the decoder."""
        spec = small_spec(workloads=("square",), protocols=("cpelide",))
        [job] = spec.expand()
        expected = Simulator(job.config, job.protocol).run(
            build_for_job(job.workload, job.config)).to_dict()
        cache = SharedResultCache(root=tmp_path / "c")
        path = cache._path(cache.key(job))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"salt": "older-code-version",
                                    "job": job.key_payload(),
                                    "result": expected}))
        result = SweepRunner(cache=cache).run(spec)
        assert result.report.cache_invalidations == 1
        assert result.report.executed == 1
        assert result.to_dicts() == [expected]
        assert isinstance(json.loads(path.read_text())["result"], list)
        assert SweepRunner(cache=cache).run(spec).report.cache_hits == 1

    def test_torn_store_is_never_served(self, tmp_path, monkeypatch):
        """A store that dies between its temporary write and its rename
        leaves no entry, temporary file or claim behind; the next sweep
        computes the cell and stores it."""
        spec = small_spec(workloads=("square",), protocols=("cpelide",))
        [job] = spec.expand()
        root = tmp_path / "c"
        cache = SharedResultCache(root=root)

        def torn(self, target):
            raise OSError("store died before its rename")

        with monkeypatch.context() as patch:
            patch.setattr(pathlib.Path, "replace", torn)
            with pytest.raises(OSError, match="before its rename"):
                SweepRunner(cache=cache).run(spec)
        assert cache.load(job) is None
        assert len(cache) == 0
        assert cache.claimed_keys() == []
        assert [p for p in root.rglob("*") if p.is_file()] == []
        again = SweepRunner(cache=cache).run(spec)
        assert again.report.executed == 1
        assert len(cache) == 1
        assert SweepRunner(cache=cache).run(spec).report.cache_hits == 1


class TestRecordTransport:
    """Every registered protocol's result crosses the record codec
    intact: in-process, through the fork pool, and stored in and served
    from the result cache, each equal to the simulator's own
    ``to_dict()``."""

    @staticmethod
    def specs():
        config = GPUConfig(num_chiplets=2, scale=TEST_SCALE)
        chiplet = tuple(spec.name for spec in protocols()
                        if spec.name != "monolithic")
        return (SweepSpec(workloads=("square",), protocols=chiplet,
                          configs=(config,)),
                SweepSpec(workloads=("square",), protocols=("monolithic",),
                          configs=(monolithic_equivalent(config),)))

    def test_every_protocol_identical_in_process_forked_and_cached(
            self, tmp_path):
        chiplet, monolithic = self.specs()
        # Several work units: workers=2 runs the chiplet spec on the
        # fork pool (the one-cell monolithic spec runs in-process).
        assert len(shard_jobs(chiplet.expand(), range(chiplet.num_jobs),
                              2)) > 1
        for index, spec in enumerate((chiplet, monolithic)):
            direct = [Simulator(job.config, job.protocol).run(
                build_for_job(job.workload, job.config)).to_dict()
                for job in spec.expand()]
            serial = SweepRunner(workers=1).run(spec)
            forked = SweepRunner(workers=2).run(spec)
            cache = SharedResultCache(root=tmp_path / str(index))
            cold = SweepRunner(workers=2, cache=cache).run(spec)
            warm = SweepRunner(workers=2, cache=cache).run(spec)
            assert cold.report.executed == spec.num_jobs
            assert warm.report.cache_hits == spec.num_jobs
            for sweep in (serial, forked, cold, warm):
                assert sweep.to_dicts() == direct


class TestProgress:
    def test_one_progress_line_per_computed_cell(self, tmp_path, config):
        """One cached and two computed cells in-process: exactly two
        ``[i/n] label (s)`` lines, one per computed cell (the fig8
        benchmark times cells by these lines)."""
        cache = SharedResultCache(root=tmp_path / "c")
        one = SweepSpec(workloads=("square",), protocols=("cpelide",),
                        configs=(config,))
        SweepRunner(cache=cache).run(one)
        lines = []
        three = SweepSpec(workloads=("square",),
                          protocols=("baseline", "cpelide", "hmg"),
                          configs=(config,))
        result = SweepRunner(cache=cache, progress=lines.append).run(three)
        assert result.report.cache_hits == 1
        cell_lines = [line for line in lines if line.startswith("[")]
        assert len(cell_lines) == 2
        assert cell_lines[0].startswith("[1/2] square/baseline@4 (")
        assert cell_lines[1].startswith("[2/2] square/hmg@4 (")


class TestSerialization:
    def test_simulation_result_json_roundtrip(self, config):
        result = Simulator(config, "cpelide").run(
            build_workload("square", config))
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.wall_cycles == result.wall_cycles
        assert rebuilt.metrics.total_traffic().total == \
            result.metrics.total_traffic().total

    def test_summary_is_plain_json_scalars(self, config):
        result = Simulator(config, "cpelide").run(
            build_workload("square", config))
        for summary in (result.summary(), result.metrics.summary()):
            for key, value in summary.items():
                assert type(value) in (str, int, float), (key, value)
            assert json.loads(json.dumps(summary)) == summary
