"""Distributed sweep engine: shared cache claims, sharding, runners.

Covers the cross-process dedupe protocol (claim/lease/reclaim), the
deterministic sharder, forked :class:`SweepRunner` bit-identity against
the in-process path, and the scatter/work/gather multi-host flow.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.engine.cache import (
    CLAIM_ACQUIRED,
    CLAIM_HIT,
    CLAIM_INFLIGHT,
    SharedResultCache,
)
from repro.engine.dist import gather, scatter, work
from repro.engine.runner import (SweepRunner, _fork_available, shard_jobs,
                                 unit_key)
from repro.engine.spec import JobSpec, SweepSpec
from repro.errors import CacheError
from repro.gpu.config import GPUConfig

from tests.conftest import TEST_SCALE

WORKLOADS = ("square", "bfs")
PROTOCOLS = ("baseline", "cpelide")


def small_spec(workloads=WORKLOADS, protocols=PROTOCOLS,
               chiplet_counts=(4,)):
    return SweepSpec.grid(workloads=workloads, protocols=protocols,
                          chiplet_counts=chiplet_counts, scale=TEST_SCALE)


def one_job(workload="square", protocol="cpelide"):
    return JobSpec(workload=workload, protocol=protocol,
                   config=GPUConfig(num_chiplets=4, scale=TEST_SCALE))


class TestClaimProtocol:
    def test_miss_acquires_then_other_sees_inflight(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c")
        job = one_job()
        status, token = cache.try_claim(job)
        assert status == CLAIM_ACQUIRED
        assert cache.stats.claims == 1
        other = SharedResultCache(root=tmp_path / "c")
        status2, claim = other.try_claim(job)
        assert status2 == CLAIM_INFLIGHT
        assert claim["pid"] == os.getpid()
        cache.store_and_release(job, {"x": 1}, token)
        status3, payload = other.try_claim(job)
        assert status3 == CLAIM_HIT
        assert payload == {"x": 1}

    def test_abandon_lets_next_caller_claim(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c")
        job = one_job()
        status, token = cache.try_claim(job)
        assert status == CLAIM_ACQUIRED
        cache.abandon(job, token)
        status2, _ = cache.try_claim(job)
        assert status2 == CLAIM_ACQUIRED
        assert cache.load(job) is None

    def test_expired_lease_is_reclaimed(self, tmp_path):
        dead = SharedResultCache(root=tmp_path / "c", lease_seconds=0.01)
        job = one_job()
        status, _ = dead.try_claim(job)  # never released: "crashed"
        assert status == CLAIM_ACQUIRED
        time.sleep(0.05)
        survivor = SharedResultCache(root=tmp_path / "c")
        status2, _ = survivor.try_claim(job)
        assert status2 == CLAIM_ACQUIRED
        assert survivor.stats.reclaims == 1

    def test_wait_for_serves_inflight_result(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c", poll_seconds=0.01)
        waiter = SharedResultCache(root=tmp_path / "c", poll_seconds=0.01)
        job = one_job()
        status, token = cache.try_claim(job)
        assert status == CLAIM_ACQUIRED

        def publish():
            time.sleep(0.05)
            cache.store_and_release(job, {"served": True}, token)

        thread = threading.Thread(target=publish)
        thread.start()
        try:
            payload = waiter.wait_for(job, timeout=5.0)
        finally:
            thread.join()
        assert payload == {"served": True}
        assert waiter.stats.deduped == 1

    def test_wait_for_returns_none_when_holder_abandons(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c", poll_seconds=0.01)
        job = one_job()
        _, token = cache.try_claim(job)
        cache.abandon(job, token)
        assert cache.wait_for(job, timeout=0.2) is None

    def test_release_requires_matching_token(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c")
        job = one_job()
        _, token = cache.try_claim(job)
        cache.abandon(job, "not-the-token")
        # Wrong token must not drop the live claim.
        other = SharedResultCache(root=tmp_path / "c")
        status, _ = other.try_claim(job)
        assert status == CLAIM_INFLIGHT
        cache.abandon(job, token)

    def test_unreadable_claim_is_reclaimed(self, tmp_path):
        """A claim file that does not decode to an object (emptied by a
        writer that died, not JSON, not UTF-8) counts as expired: the
        next claimant reclaims it instead of spinning on it."""
        job = one_job()
        for body in (b"", b"{not json", b'{"token": "\xff"}', b"[]"):
            cache = SharedResultCache(root=tmp_path / "c")
            claim_path = cache._claim_path(cache.key(job))
            claim_path.parent.mkdir(parents=True, exist_ok=True)
            claim_path.write_bytes(body)
            assert cache._read_claim(claim_path) == {}
            # try_claim, not acquire: a regression fails here instead
            # of looping forever.
            status, token = cache.try_claim(job)
            assert status == CLAIM_ACQUIRED
            assert cache.stats.reclaims == 1
            cache.abandon(job, token)
            assert not claim_path.exists()

    def test_claim_files_invisible_to_len_and_clear(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c")
        job = one_job()
        cache.try_claim(job)
        assert len(cache) == 0
        assert cache.clear() == 0
        assert cache.claimed_keys() == [cache.key(job)]

    def test_acquire_blocks_until_hit_or_ownership(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c", poll_seconds=0.01)
        job = one_job()
        status, token = cache.acquire(job)
        assert status == CLAIM_ACQUIRED
        cache.store_and_release(job, {"x": 2}, token)
        status2, payload = cache.acquire(job)
        assert status2 == CLAIM_HIT
        assert payload == {"x": 2}


def _race_worker(root, barrier, counter_path, out_path):
    """One contender: acquire the cell, compute (counted) or be served."""
    from repro.engine.cache import (
        CLAIM_ACQUIRED,
        SharedResultCache,
    )

    cache = SharedResultCache(root=root, poll_seconds=0.01)
    job = one_job()
    barrier.wait()
    status, value = cache.acquire(job)
    if status == CLAIM_ACQUIRED:
        # Count this compute via an O_APPEND side file (atomic on
        # linux for small writes), then publish after a delay so the
        # loser demonstrably waits on the in-flight claim.
        fd = os.open(counter_path, os.O_CREAT | os.O_APPEND | os.O_WRONLY)
        os.write(fd, b"computed\n")
        os.close(fd)
        time.sleep(0.2)
        payload = {"winner": True, "value": 42}
        cache.store_and_release(job, payload, value)
    else:
        payload = value
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class TestCrossProcessRace:
    def test_two_processes_one_compute_identical_results(self, tmp_path):
        """Satellite S4: two processes racing the same key — exactly one
        computes, both end up with identical payloads."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        counter = tmp_path / "computes.log"
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        procs = [ctx.Process(target=_race_worker,
                             args=(str(tmp_path / "c"), barrier,
                                   str(counter), str(out)))
                 for out in outs]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
        assert all(proc.exitcode == 0 for proc in procs)
        assert counter.read_text().count("computed") == 1
        payloads = [json.loads(out.read_text()) for out in outs]
        assert payloads[0]["value"] == payloads[1]["value"] == 42


class TestClaimTimekeeping:
    """The clock/lease rules: wall-clock deadlines compare with a skew
    margin; local waits are monotonic (PR 9 bugfix sweep)."""

    def test_skew_margin_keeps_barely_expired_claim(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c", lease_seconds=100.0)
        barely = {"deadline": time.time() - 1.0, "lease": 100.0}
        assert not cache._claim_expired(barely)  # within the 5s margin
        clearly = {"deadline": time.time() - 10.0, "lease": 100.0}
        assert cache._claim_expired(clearly)

    def test_skew_margin_scales_down_with_short_leases(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c")
        # A 10ms lease gets a 2.5ms margin, not 5s — short-lease tests
        # and crash recovery must not wait out the full skew allowance.
        stale = {"deadline": time.time() - 0.05, "lease": 0.01}
        assert cache._claim_expired(stale)

    def test_legacy_claim_without_lease_uses_cache_lease(self, tmp_path):
        cache = SharedResultCache(root=tmp_path / "c", lease_seconds=0.01)
        assert cache._claim_expired({"deadline": time.time() - 0.05})

    def test_wait_for_timeout_is_monotonic_not_wall_clock(self, tmp_path,
                                                          monkeypatch):
        """A wall-clock step must not extend/shrink a local timeout."""
        cache = SharedResultCache(root=tmp_path / "c", poll_seconds=0.01)
        job = one_job()
        _, _token = cache.try_claim(job)  # held in-flight, never released
        real_time = time.time
        state = {"first": True}

        def stepping_clock():
            # First read normal, then the wall clock "steps" 1h back
            # mid-wait: a time.time()-based deadline would now be an
            # hour away, while the monotonic one still fires at 0.2s.
            if state["first"]:
                state["first"] = False
                return real_time()
            return real_time() - 3600.0

        monkeypatch.setattr(time, "time", stepping_clock)
        t0 = time.monotonic()
        assert cache.wait_for(job, timeout=0.2) is None
        assert time.monotonic() - t0 < 5.0

    def test_reclaim_cas_restores_stolen_fresh_claim(self, tmp_path):
        """Token mismatch inside _reclaim_expired means the expired
        claim was already replaced: the fresh claim must be restored,
        not destroyed (the double-reclaim bug)."""
        cache = SharedResultCache(root=tmp_path / "c", lease_seconds=0.01)
        job = one_job()
        status, _ = cache.try_claim(job)
        assert status == CLAIM_ACQUIRED
        time.sleep(0.05)
        claim_path = cache._claim_path(cache.key(job))
        observed = cache._read_claim(claim_path)
        assert observed is not None
        # Another worker reclaims first and writes its own fresh claim.
        fresh = SharedResultCache(root=tmp_path / "c")
        assert fresh._reclaim_expired(claim_path, observed)
        fresh_token = fresh._claim_token()
        assert fresh._write_claim(claim_path, fresh_token)
        # The slow reclaimer still holds the stale observation: its CAS
        # must fail and leave the fresh claim in place.
        assert not cache._reclaim_expired(claim_path, observed)
        survivor = cache._read_claim(claim_path)
        assert survivor is not None and survivor["token"] == fresh_token


class TestExpiredClaimReclaimRace:
    def test_two_processes_one_reclaim_one_compute(self, tmp_path):
        """PR 9 satellite: two waiters racing an *expired* claim — the
        atomic reclaim guarantees exactly one recompute."""
        root = tmp_path / "c"
        dead = SharedResultCache(root=root, lease_seconds=0.01)
        job = one_job()
        status, _ = dead.try_claim(job)  # crashed owner, never released
        assert status == CLAIM_ACQUIRED
        time.sleep(0.05)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        counter = tmp_path / "computes.log"
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        procs = [ctx.Process(target=_race_worker,
                             args=(str(root), barrier, str(counter),
                                   str(out)))
                 for out in outs]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
        assert all(proc.exitcode == 0 for proc in procs)
        assert counter.read_text().count("computed") == 1
        payloads = [json.loads(out.read_text()) for out in outs]
        assert payloads[0]["value"] == payloads[1]["value"] == 42


def _claim_and_die(root):
    """A claimant killed mid-cell: it never releases its claim."""
    cache = SharedResultCache(root=root)
    status, _ = cache.try_claim(one_job())
    if status == CLAIM_ACQUIRED:
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(1)


class TestKilledClaimant:
    def test_dead_claimant_on_this_host_is_reclaimed_at_once(
            self, tmp_path):
        """A SIGKILLed claimant leaves its claim (300 s lease) behind;
        the next acquire on the same host takes it over at once."""
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_claim_and_die,
                           args=(str(tmp_path / "c"),))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        cache = SharedResultCache(root=tmp_path / "c", poll_seconds=0.01)
        assert cache.claimed_keys() == [cache.key(one_job())]
        t0 = time.monotonic()
        status, _ = cache.acquire(one_job())
        assert status == CLAIM_ACQUIRED
        assert time.monotonic() - t0 < 1.0
        assert cache.stats.reclaims == 1

    def test_dead_pid_counts_only_on_this_host(self, tmp_path):
        import socket

        proc = multiprocessing.get_context("fork").Process(
            target=os._exit, args=(0,))
        proc.start()
        proc.join(timeout=30)
        cache = SharedResultCache(root=tmp_path / "c")
        live = {"pid": proc.pid, "deadline": time.time() + 100.0,
                "lease": 100.0}
        here = socket.gethostname()
        assert cache._claim_expired(dict(live, host=here))
        assert not cache._claim_expired(dict(live, host="another-host"))
        assert not cache._claim_expired(dict(live, host=here,
                                             pid=os.getpid()))


class TestShardJobs:
    def test_units_cover_pending_exactly_once(self):
        jobs = small_spec().expand()
        pending = list(range(len(jobs)))
        units = shard_jobs(jobs, pending, workers=2)
        covered = [index for unit in units for index, _ in unit.items]
        assert covered == pending

    def test_unit_keys_are_content_addressed_and_deterministic(self):
        jobs = small_spec().expand()
        key_a = unit_key(jobs[:2])
        key_b = unit_key(jobs[:2])
        assert key_a == key_b
        assert key_a != unit_key(jobs[2:4])
        units = shard_jobs(jobs, list(range(len(jobs))), 2)
        again = shard_jobs(jobs, list(range(len(jobs))), 2)
        assert [u.key for u in units] == [u.key for u in again]

    def test_batch_size_override(self):
        jobs = small_spec().expand()
        units = shard_jobs(jobs, list(range(len(jobs))), 2, batch_size=1)
        assert len(units) == len(jobs)
        assert all(unit.cells == 1 for unit in units)

    def test_only_pending_jobs_shard(self):
        jobs = small_spec().expand()
        units = shard_jobs(jobs, [1, 3], 2)
        covered = [index for unit in units for index, _ in unit.items]
        assert covered == [1, 3]


def shared(tmp_path):
    """A shared cache under the test's tmp dir."""
    return SharedResultCache(root=tmp_path / "c")


class TestDistRunner:
    def test_bit_identical_to_serial(self, tmp_path):
        spec = small_spec()
        serial = SweepRunner().run(spec)
        dist = SweepRunner(workers=2, cache=shared(tmp_path)).run(spec)
        assert dist.to_dicts() == serial.to_dicts()

    def test_second_pass_zero_recomputes(self, tmp_path):
        spec = small_spec()
        runner = SweepRunner(workers=2, cache=shared(tmp_path))
        first = runner.run(spec)
        assert first.report.executed == first.report.total_jobs
        warm = SweepRunner(workers=2, cache=shared(tmp_path)).run(spec)
        assert warm.report.executed == 0
        assert warm.report.cache_hits == warm.report.total_jobs
        assert warm.to_dicts() == first.to_dicts()

    def test_summary_reports_dedupe_and_worker_cells(self, tmp_path):
        spec = small_spec()
        result = SweepRunner(workers=2, cache=shared(tmp_path)).run(spec)
        summary = result.report.summary()
        assert "served from in-flight" in summary
        if result.report.parallel:
            assert "/".join(
                str(n) for n in result.report.per_worker_cells) in summary
        assert sum(result.report.per_worker_cells) == \
            result.report.executed

    def test_single_worker_runs_in_process(self, tmp_path):
        spec = small_spec(workloads=("square",))
        result = SweepRunner(workers=1, cache=shared(tmp_path)).run(spec)
        assert result.report.executed == result.report.total_jobs
        serial = SweepRunner().run(spec)
        assert result.to_dicts() == serial.to_dicts()

    def test_results_marked_from_cache_on_warm_pass(self, tmp_path):
        spec = small_spec(workloads=("square",))
        SweepRunner(workers=1, cache=shared(tmp_path)).run(spec)
        warm = SweepRunner(workers=1, cache=shared(tmp_path)).run(spec)
        assert all(outcome.result.from_cache
                   for outcome in warm.outcomes)


def _append_line(path, text):
    """One O_APPEND write (atomic for a short line, across processes)."""
    fd = os.open(path, os.O_CREAT | os.O_APPEND | os.O_WRONLY)
    try:
        os.write(fd, f"{text}\n".encode())
    finally:
        os.close(fd)


def _lines(path):
    return path.read_text().splitlines() if path.exists() else []


@pytest.mark.skipif(not _fork_available(), reason="needs fork")
class TestKilledWorker:
    """A pool worker SIGKILLed in its first cell costs its work unit,
    not the sweep: the cells of finished units stand, the lost units
    rerun once on a fresh pool, and a second death names the lost
    cells."""

    def _kill_in(self, monkeypatch, tmp_path, victim, deaths):
        """Make pool workers SIGKILL themselves on starting ``victim``
        (``deaths`` times in all) and log every stored cell; returns
        the store log."""
        from repro.engine import runner

        kills = tmp_path / "kills.log"
        stored = tmp_path / "stored.log"
        compute = runner._execute_job
        store = SharedResultCache.store_and_release
        parent = os.getpid()

        def dying(job, tracer=None):
            if (job.label == victim and os.getpid() != parent
                    and len(_lines(kills)) < deaths):
                _append_line(kills, job.label)
                os.kill(os.getpid(), signal.SIGKILL)
            return compute(job, tracer)

        def logged(cache, job, result, token):
            store(cache, job, result, token)
            _append_line(stored, job.label)

        # The pool forks after these patches, so its workers run them.
        monkeypatch.setattr(runner, "_execute_job", dying)
        monkeypatch.setattr(SharedResultCache, "store_and_release", logged)
        return stored

    def test_lost_unit_reruns_once_and_results_match_serial(
            self, tmp_path, monkeypatch):
        spec = small_spec(chiplet_counts=(2, 4))
        serial = SweepRunner().run(spec)
        jobs = spec.expand()
        assert len(jobs) == 8
        # One cell per unit: units 0 and 1 start first, one per worker,
        # so the victim dies in its worker's first cell.
        stored = self._kill_in(monkeypatch, tmp_path, jobs[1].label,
                               deaths=1)
        cache = shared(tmp_path)
        result = SweepRunner(workers=2, cache=cache, batch_size=1).run(spec)
        assert result.to_dicts() == serial.to_dicts()
        assert result.report.retried_units >= 1
        assert "units retried" in result.report.summary()
        labels = _lines(stored)
        # No cell is stored twice: nothing a finished unit computed ran
        # again (a cell stored by a unit that died is a hit on rerun).
        assert len(labels) == len(set(labels))
        assert jobs[1].label in labels
        assert cache.claimed_keys() == []
        warm = SweepRunner(workers=2, cache=shared(tmp_path)).run(spec)
        assert warm.report.executed == 0

    def test_second_death_raises_naming_lost_cells(self, tmp_path,
                                                   monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        spec = small_spec(chiplet_counts=(2, 4))
        victim = spec.expand()[1].label
        self._kill_in(monkeypatch, tmp_path, victim, deaths=2)
        runner = SweepRunner(workers=2, cache=shared(tmp_path),
                             batch_size=1)
        with pytest.raises(BrokenProcessPool, match="lost cells") as info:
            runner.run(spec)
        assert victim in str(info.value)


class TestScatterWorkGather:
    def test_round_trip_matches_serial(self, tmp_path):
        spec = small_spec()
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        assert (work_dir / "spec.json").exists()
        assert len(list((work_dir / "units").glob("unit-*.json"))) == \
            len(units)
        executed = work(work_dir)
        assert executed == len(units)
        gathered = gather(work_dir)
        serial = SweepRunner().run(spec)
        assert gathered.to_dicts() == serial.to_dicts()

    def test_second_work_call_finds_nothing(self, tmp_path):
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        scatter(spec, work_dir, workers=2)
        assert work(work_dir) > 0
        assert work(work_dir) == 0

    def test_gather_names_missing_units(self, tmp_path):
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        with pytest.raises(CacheError) as excinfo:
            gather(work_dir)
        message = str(excinfo.value)
        assert all(str(unit.index) in message for unit in units)

    def test_work_dir_of_another_code_version_is_refused(self, tmp_path):
        """Cells and unit results in a work directory are records of the
        code version that scattered it; another version refuses the
        directory instead of decoding them."""
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        scatter(spec, work_dir, workers=2)
        manifest_path = work_dir / "spec.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["salt"] = "older-code-version"
        manifest_path.write_text(json.dumps(manifest))
        for step in (work, gather):
            with pytest.raises(CacheError, match="another code version"):
                step(work_dir)

    def test_corrupt_unit_claim_and_result_are_recovered(self, tmp_path):
        """A unit claim that does not decode is reclaimed by work(); a
        unit result that does not decode is removed by gather(), which
        names the unit as unfinished, and the next work() reruns it."""
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        claim = work_dir / "results" / "unit-0000.json.claim"
        claim.write_bytes(b'{"token": "\xff"}')
        assert work(work_dir) == len(units)
        result = work_dir / "results" / "unit-0000.json"
        result.write_bytes(b'{"cells": "\xff"}')
        with pytest.raises(CacheError, match=r"\[0\]"):
            gather(work_dir)
        assert not result.exists()
        assert work(work_dir) == 1
        assert gather(work_dir).to_dicts() == \
            SweepRunner().run(spec).to_dicts()

    def test_max_units_bounds_one_call(self, tmp_path):
        spec = small_spec()
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        assert len(units) > 1
        assert work(work_dir, max_units=1) == 1
        assert work(work_dir) == len(units) - 1

    def test_workers_share_cells_through_cache(self, tmp_path):
        # Two scattered sweeps over the same work dir: the second's
        # cells are all served from the shared cache, not recomputed.
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        scatter(spec, work_dir, workers=1)
        work(work_dir)
        result_files = sorted(
            (work_dir / "results").glob("unit-*.json"))
        first_docs = [json.loads(p.read_text()) for p in result_files]
        assert any(cell["how"] == "run"
                   for doc in first_docs for cell in doc["cells"])
        for path in list((work_dir / "results").iterdir()):
            path.unlink()
        work(work_dir)
        second_docs = [json.loads(p.read_text()) for p in sorted(
            (work_dir / "results").glob("unit-*.json"))]
        assert all(cell["how"] != "run"
                   for doc in second_docs for cell in doc["cells"])


class TestApiIntegration:
    def test_sweep_workers_routes_through_dist(self, tmp_path):
        from repro.api import sweep

        spec = small_spec(workloads=("square",))
        res = sweep(spec, workers=2, cache_dir=tmp_path / "c")
        serial = sweep(spec, jobs=1, cache=False)
        assert res.to_dicts() == serial.to_dicts()
        again = sweep(spec, workers=2, cache_dir=tmp_path / "c")
        assert again.report.executed == 0

    def test_uncached_worker_sweep_touches_no_cache(self, tmp_path,
                                                    monkeypatch):
        """``cache=False`` means no cache on the forked path too: every
        call executes every cell and the default cache root stays
        empty."""
        from repro.api import sweep

        root = tmp_path / "default-cache"
        root.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        spec = small_spec()
        for _ in range(2):
            res = sweep(spec, workers=2, cache=False)
            assert res.report.executed == res.report.total_jobs
            assert res.report.cache_hits == 0
        assert list(root.iterdir()) == []

    def test_jobs_and_workers_name_one_count(self):
        from repro.api import sweep
        from repro.errors import ConfigError

        spec = small_spec(workloads=("square",), protocols=("cpelide",))
        with pytest.raises(ConfigError, match="one process count"):
            sweep(spec, jobs=2, workers=3, cache=False)
        res = sweep(spec, jobs=2, workers=2, cache=False)
        assert res.report.executed == 1
