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
from repro.engine.dist import gather, scatter, work, work_dir_cache
from repro.engine.runner import SweepRunner, _fork_available, shard_jobs
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

    def test_sharding_is_deterministic(self):
        jobs = small_spec().expand()
        units = shard_jobs(jobs, list(range(len(jobs))), 2)
        again = shard_jobs(small_spec().expand(), list(range(len(jobs))), 2)
        assert [u.items for u in units] == [u.items for u in again]

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_cell_counts_one_miss_or_one_hit(self, tmp_path, workers):
        """A computed cell's miss counts once: the runner's look finds
        it pending, and the claim's own look does not count it again."""
        spec = small_spec()
        assert spec.num_jobs == 4
        cold = shared(tmp_path)
        SweepRunner(workers=workers, cache=cold).run(spec)
        stats = cold.stats
        assert (stats.misses, stats.hits, stats.claims) == (4, 0, 4)
        warm = shared(tmp_path)
        SweepRunner(workers=workers, cache=warm).run(spec)
        assert (warm.stats.misses, warm.stats.hits) == (0, 4)

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


def _work_loop(work_dir, barrier, log):
    """One of two racing ``work()`` loops: logs how many units it ran."""
    barrier.wait(timeout=30)
    _append_line(log, str(work(work_dir)))


class TestScatterWorkGather:
    """A work directory is ``spec.json`` plus ``cache/``: units are
    derived from the spec and claimed, stored and read under their
    content keys."""

    def test_round_trip_matches_serial(self, tmp_path):
        spec = small_spec()
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        assert [path.name for path in work_dir.iterdir()] == ["spec.json"]
        executed = work(work_dir)
        assert executed == len(units)
        assert sorted(path.name for path in work_dir.iterdir()) == \
            ["cache", "spec.json"]
        cache = work_dir_cache(work_dir)
        assert all(cache.load(unit) is not None for unit in units)
        assert cache.claimed_keys() == []
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
        directory instead of decoding them. A manifest that lists units
        instead of giving their size is refused the same way."""
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        scatter(spec, work_dir, workers=2)
        manifest_path = work_dir / "spec.json"
        manifest = json.loads(manifest_path.read_text())
        unit_list = {name: value for name, value in manifest.items()
                     if name != "batch_size"}
        unit_list["units"] = 2
        for stale in (dict(manifest, salt="older-code-version"),
                      unit_list):
            manifest_path.write_text(json.dumps(stale))
            for step in (work, gather):
                with pytest.raises(CacheError,
                                   match="another code version"):
                    step(work_dir)

    def test_corrupt_unit_claim_and_result_are_recovered(self, tmp_path):
        """A unit claim that does not decode is reclaimed by work(); a
        unit result that does not decode is dropped by gather(), which
        names the unit as unfinished, and the next work() reruns it."""
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        cache = work_dir_cache(work_dir)
        claim = cache._claim_path(units[0].key)
        claim.parent.mkdir(parents=True)
        claim.write_bytes(b'{"token": "\xff"}')
        assert work(work_dir) == len(units)
        result = cache._path(units[0].key)
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
        # The same cells scattered again in other units: the new units
        # run, and every cell is served from the shared cache.
        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        scatter(spec, work_dir, workers=1)
        work(work_dir)
        assert gather(work_dir).report.executed == spec.num_jobs
        units = scatter(spec, work_dir, batch_size=spec.num_jobs)
        assert work(work_dir) == len(units) == 1
        report = gather(work_dir).report
        assert (report.executed, report.cache_hits) == (0, spec.num_jobs)

    def test_rescattering_another_spec_gathers_it(self, tmp_path):
        """A used work directory takes a new spec: its units are new
        keys, so work() runs them and gather() returns the new spec's
        results, not the old one's."""
        work_dir = tmp_path / "wd"
        scatter(small_spec(workloads=("square",)), work_dir, workers=2)
        work(work_dir)
        spec = small_spec(workloads=("bfs",))
        units = scatter(spec, work_dir, workers=2)
        assert work(work_dir) == len(units)
        assert gather(work_dir).to_dicts() == \
            SweepRunner().run(spec).to_dicts()

    def test_a_unit_that_raises_leaves_no_claim(self, tmp_path,
                                                monkeypatch):
        from repro.engine import dist

        spec = small_spec(workloads=("square",))
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, workers=2)
        execute = dist._execute_unit

        def failing(unit, cache):
            raise RuntimeError(f"unit {unit.index} failed")

        monkeypatch.setattr(dist, "_execute_unit", failing)
        with pytest.raises(RuntimeError, match="unit 0 failed"):
            work(work_dir)
        assert work_dir_cache(work_dir).claimed_keys() == []
        monkeypatch.setattr(dist, "_execute_unit", execute)
        assert work(work_dir) == len(units)
        assert gather(work_dir).to_dicts() == \
            SweepRunner().run(spec).to_dicts()

    @pytest.mark.skipif(not _fork_available(), reason="needs fork")
    def test_two_work_processes_run_each_unit_once(self, tmp_path,
                                                   monkeypatch):
        from repro.engine import dist

        spec = small_spec()
        work_dir = tmp_path / "wd"
        units = scatter(spec, work_dir, batch_size=1)
        ran = tmp_path / "ran.log"
        execute = dist._execute_unit

        def logged(unit, cache):
            _append_line(ran, unit.key)
            return execute(unit, cache)

        # The processes fork after this patch, so they run it.
        monkeypatch.setattr(dist, "_execute_unit", logged)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        counts = tmp_path / "counts.log"
        procs = [ctx.Process(target=_work_loop,
                             args=(work_dir, barrier, str(counts)))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert sorted(_lines(ran)) == sorted(unit.key for unit in units)
        assert sum(map(int, _lines(counts))) == len(units)
        gathered = gather(work_dir)
        assert gathered.to_dicts() == SweepRunner().run(spec).to_dicts()
        assert gathered.report.executed == spec.num_jobs


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
