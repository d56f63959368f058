"""The sweep engine: one runner for serial, forked and served sweeps.

:class:`SweepRunner` turns a :class:`~repro.engine.spec.SweepSpec` into
results. It expands the spec into jobs and serves every cell its
:class:`~repro.engine.cache.SharedResultCache` already holds from the
parent process. The pending cells then run one of two ways:

* **in-process**, one by one through :func:`run_job_shared`, with the
  tracer threaded into every simulation and one ``[i/n] label (s)``
  progress line per computed cell;
* **on a fork pool**, when ``workers > 1`` and more than one work unit
  is pending: :func:`shard_jobs` splits the pending cells into
  deterministic, content-keyed :class:`WorkUnit`\\ s (contiguous
  batches, so cheap cells amortize process start-up and adjacent cells
  reuse interned traces inside one worker) and each worker runs its
  units through the same :func:`run_job_shared`.

``cache=None`` means no cache: nothing is read or written. With a cache,
every computed cell goes through the shared cache's claim/lease
protocol, so any number of runners — threads, processes, or hosts
sharing the cache root — compute each cell once and serve each other's
completed *and in-flight* cells.

A computed cell leaves :func:`_execute_job` as one compact payload,
its result's positional :meth:`~repro.gpu.sim.SimulationResult.to_record`
(occupancy jobs: ``to_dict()``). That payload is what the fork pool
returns, what the shared cache stores as JSON and what a
:mod:`repro.engine.dist` work directory carries; :func:`_reconstruct`
rebuilds the typed result from it in the parent. Results aggregate
**in spec order**, so in-process, forked and cached runs of the same
spec are bit-identical. Every run produces a :class:`SweepReport`, the
summary the CLIs print.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.engine.cache import (
    CLAIM_ACQUIRED,
    CLAIM_HIT,
    CacheStats,
    SharedResultCache,
)
from repro.engine.spec import JobSpec, SweepSpec, workload_label
from repro.obs.tracer import NULL_TRACER, Tracer

#: Result types a job can produce (SimulationResult or
#: TableOccupancyProfile; both expose ``to_dict``/``from_dict``).
JobResult = Any

#: A computed cell in transport and in the cache: the JSON-stable
#: ``SimulationResult.to_record()`` of a simulation job, the
#: ``TableOccupancyProfile.to_dict()`` of an occupancy job.
JobPayload = Union[List[Any], Dict[str, Any]]

ProgressFn = Callable[[str], None]

#: Per-run memo counters as transported beside a job payload:
#: ``(hits, misses, bypasses)``, or ``None`` when the run was not
#: memoized. Kept *outside* the payload — the serialized dump must stay
#: bit-identical across trace paths for the cache key round trip.
MemoCounters = Optional[Tuple[int, int, int]]

#: How a cell was served.
HOW_HIT = "hit"      # already in the cache
HOW_RUN = "run"      # computed by this call (it held the claim)
HOW_DEDUP = "dedup"  # served from another worker's in-flight computation

#: Target work units per worker: enough batches that workers stay busy
#: when cell costs are skewed, few enough that process overhead
#: amortizes across cells.
UNITS_PER_WORKER = 4


def _execute_job(job: JobSpec, tracer: Optional[Tracer] = None,
                 ) -> Tuple[JobPayload, MemoCounters,
                            Optional[Dict[str, Any]], float]:
    """Run one job; return ``(payload, memo counters, obs, seconds)``.

    Imports are local so forked workers pay them only when first used.
    Like the memo counters, the run's ``obs`` metrics travel *beside*
    the payload so cached payloads stay bit-identical to untraced runs.
    """
    from repro.engine.spec import build_for_job

    start = time.perf_counter()
    workload = build_for_job(job.workload, job.config)
    memo: MemoCounters = None
    obs: Optional[Dict[str, Any]] = None
    if job.kind == "occupancy":
        from repro.analysis.occupancy import profile_table_occupancy
        payload = profile_table_occupancy(workload, job.config).to_dict()
    else:
        from repro.gpu.sim import Simulator
        result = Simulator(job.config, job.protocol,
                           scheduler=job.scheduler,
                           trace_path=job.trace_path,
                           tracer=tracer).run(workload)
        if result.memo_hits is not None:
            # The run took the memo trace path (REPRO_TRACE_PATH): the
            # counters are not part of the record, so carry them beside
            # the payload and reattach after reconstruction.
            memo = (result.memo_hits, result.memo_misses,
                    result.memo_bypasses)
        obs = result.obs
        payload = result.to_record()
    return payload, memo, obs, time.perf_counter() - start


def _reconstruct(job: JobSpec, payload: JobPayload) -> JobResult:
    """Rebuild a job's typed result from its payload."""
    if job.kind == "occupancy":
        from repro.analysis.occupancy import TableOccupancyProfile
        return TableOccupancyProfile.from_dict(payload)
    from repro.gpu.sim import Simulator  # noqa: F401  (import cycle guard)
    from repro.gpu.sim import SimulationResult
    return SimulationResult.from_record(payload)


def prewarm_pending_traces(jobs: List[JobSpec],
                           pending: List[int]) -> None:
    """Generate the pending simulation jobs' RANDOM/INDIRECT run-traces
    in the parent (deduplicated per workload/config) so ``fork``-started
    workers inherit the interned traces copy-on-write instead of each
    re-sampling them from scratch."""
    from repro.engine.spec import build_for_job
    from repro.workloads.base import prewarm_workload_traces

    seen = set()
    for index in pending:
        job = jobs[index]
        if job.kind == "occupancy":
            continue
        key = (workload_label(job.workload), repr(job.config))
        if key in seen:
            continue
        seen.add(key)
        workload = build_for_job(job.workload, job.config)
        prewarm_workload_traces(workload, job.config.num_chiplets)


def _fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    import multiprocessing
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


# ---------------------------------------------------------------------------
# Work units: content-keyed shards of a sweep's pending cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkUnit:
    """One shard of a sweep: a contiguous batch of (index, job) cells.

    ``key`` is a blake2b digest over the member jobs' cache keys — the
    unit's content address, stable across processes and hosts.
    """

    index: int
    items: Tuple[Tuple[int, JobSpec], ...]
    key: str

    @property
    def cells(self) -> int:
        return len(self.items)

    def to_payload(self) -> Dict[str, Any]:
        """JSON round-trip payload (one scattered ``unit-*.json``)."""
        return {
            "index": self.index,
            "key": self.key,
            "items": [[i, job.to_payload()] for i, job in self.items],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WorkUnit":
        items = tuple((int(i), JobSpec.from_payload(jp))
                      for i, jp in payload["items"])
        return cls(index=int(payload["index"]), items=items,
                   key=payload["key"])


def unit_key(jobs: Sequence[JobSpec]) -> str:
    """Content address of one batch of jobs."""
    digest = hashlib.blake2b(digest_size=16)
    for job in jobs:
        digest.update(job.key.encode())
    return digest.hexdigest()


def shard_jobs(jobs: Sequence[JobSpec], pending: Sequence[int],
               workers: int,
               batch_size: Optional[int] = None) -> List[WorkUnit]:
    """Split pending cells into deterministic contiguous batches.

    ``batch_size=None`` sizes batches so each worker sees about
    :data:`UNITS_PER_WORKER` units — big enough to amortize process
    startup over cheap cells, small enough to balance skewed cell costs.
    Sharding depends only on the spec's expansion order and the two
    sizing knobs, never on timing, so the same sweep shards identically
    on every scheduler and host.
    """
    if not pending:
        return []
    if batch_size is None:
        batch_size = max(1, -(-len(pending) // (max(1, workers)
                                                * UNITS_PER_WORKER)))
    units: List[WorkUnit] = []
    for start in range(0, len(pending), batch_size):
        items = tuple((i, jobs[i]) for i in pending[start:start + batch_size])
        units.append(WorkUnit(index=len(units), items=items,
                              key=unit_key([job for _, job in items])))
    return units


@dataclass
class CellResult:
    """One cell's outcome as transported from whoever served it."""

    index: int
    payload: JobPayload
    how: str
    seconds: float
    memo: MemoCounters = None
    obs: Optional[Dict[str, Any]] = None


@dataclass
class UnitResult:
    """One executed work unit: its cells plus the worker's accounting."""

    unit_index: int
    worker: str
    cells: List[CellResult]
    stats: CacheStats
    seconds: float

    def count(self, how: str) -> int:
        """Cells of this unit served ``how``."""
        return sum(1 for cell in self.cells if cell.how == how)


def run_job_shared(cache: Optional[SharedResultCache], job: JobSpec,
                   tracer: Optional[Tracer] = None) -> CellResult:
    """Execute one cell, through the claim/lease protocol when cached.

    With a cache, exactly one worker anywhere computes the cell and
    everyone else is served the stored or in-flight result; ``how``
    records which way this call went. ``cache=None`` computes the cell.

    ``tracer`` (same-process callers only — tracers cannot cross the
    fork boundary) threads an observability sink into the simulation.
    Any exception while the cell computes — including
    :class:`~repro.errors.JobCancelled`, raised at a kernel boundary by
    a cancelled job's :class:`~repro.obs.streaming.StreamingTracer` —
    *abandons* the claim (released at once), so concurrent waiters on
    the cell take over without waiting out the lease.
    """
    if cache is None:
        payload, memo, obs, seconds = _execute_job(job, tracer)
        return CellResult(-1, payload, HOW_RUN, seconds, memo, obs)
    t0 = time.perf_counter()
    deduped_before = cache.stats.deduped
    status, value = cache.acquire(job)
    if status == CLAIM_HIT:
        how = (HOW_DEDUP if cache.stats.deduped > deduped_before
               else HOW_HIT)
        return CellResult(-1, value, how, time.perf_counter() - t0)
    assert status == CLAIM_ACQUIRED
    try:
        payload, memo, obs, seconds = _execute_job(job, tracer)
    except BaseException:
        cache.abandon(job, value)
        raise
    cache.store_and_release(job, payload, value)
    return CellResult(-1, payload, HOW_RUN, seconds, memo, obs)


def _worker_id() -> str:
    import socket
    return f"{socket.gethostname()}:{os.getpid()}"


def _execute_unit(unit: WorkUnit,
                  cache: Optional[SharedResultCache]) -> UnitResult:
    """Run one work unit (module-level so the process pool can pickle
    it; also the body of multi-host workers). The returned stats are
    this unit's own cache counters."""
    before = cache.stats.snapshot() if cache is not None else CacheStats()
    t0 = time.perf_counter()
    cells: List[CellResult] = []
    for index, job in unit.items:
        cell = run_job_shared(cache, job)
        cell.index = index
        cells.append(cell)
    stats = cache.stats.since(before) if cache is not None else before
    return UnitResult(unit_index=unit.index, worker=_worker_id(),
                      cells=cells, stats=stats,
                      seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Results and reports
# ---------------------------------------------------------------------------


@dataclass
class JobOutcome:
    """One completed cell: the job, its result, and how it was served."""

    job: JobSpec
    result: JobResult
    cached: bool
    seconds: float = 0.0

    @property
    def workload(self) -> str:
        """Result-keying workload name."""
        return workload_label(self.job.workload)


@dataclass
class SweepReport:
    """Execution summary of one sweep.

    ``workers`` is the *effective* worker count — the processes that
    actually executed cells, not the requested pool size (a sweep with
    two pending cells never uses more than two workers).
    ``per_worker_cells`` lists how many cells each of those workers
    executed (descending); ``deduped`` counts cells served from another
    worker's in-flight computation via the shared cache's claim/lease
    protocol.
    """

    total_jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_invalidations: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    parallel: bool = False
    slowest_label: str = ""
    slowest_seconds: float = 0.0
    deduped: int = 0
    per_worker_cells: List[int] = field(default_factory=list)

    def summary(self) -> str:
        """One-line report the CLIs print after a sweep."""
        mode = (f"{self.workers} workers" if self.parallel else "serial")
        if self.parallel and self.per_worker_cells:
            cells = "/".join(str(n) for n in self.per_worker_cells)
            mode += f", {cells} cells"
        line = (f"{self.total_jobs} jobs: {self.cache_hits} cache hits, "
                f"{self.deduped} served from in-flight, "
                f"{self.executed} run ({mode}), "
                f"{self.cache_invalidations} invalidated; "
                f"wall {self.wall_seconds:.2f}s")
        if self.slowest_label:
            line += (f"; slowest {self.slowest_label} "
                     f"({self.slowest_seconds:.2f}s)")
        return line

    @classmethod
    def of(cls, outcomes: List[JobOutcome], worker_cells: Dict[str, int],
           deduped: int, invalidations: int,
           wall_seconds: float) -> "SweepReport":
        """Summarize aggregated outcomes; ``worker_cells`` maps each
        worker to the cells it executed."""
        executed = [o for o in outcomes if not o.cached]
        slowest = max(executed, key=lambda o: o.seconds, default=None)
        per_worker = sorted((n for n in worker_cells.values() if n),
                            reverse=True)
        return cls(
            total_jobs=len(outcomes),
            executed=len(executed),
            cache_hits=len(outcomes) - len(executed) - deduped,
            cache_invalidations=invalidations,
            wall_seconds=wall_seconds,
            workers=len(per_worker) or 1,
            parallel=len(per_worker) > 1,
            slowest_label=slowest.job.label if slowest else "",
            slowest_seconds=slowest.seconds if slowest else 0.0,
            deduped=deduped,
            per_worker_cells=per_worker,
        )


@dataclass
class SweepResult:
    """All outcomes of one sweep, in spec (expansion) order."""

    spec: SweepSpec
    outcomes: List[JobOutcome] = field(default_factory=list)
    report: SweepReport = field(default_factory=SweepReport)
    #: Sweep-level aggregated observability metrics (the tracer's
    #: :class:`~repro.obs.metrics.MetricRegistry` folded per-kernel →
    #: per-run → per-sweep, as a dict). ``None`` on untraced sweeps;
    #: excluded from :meth:`to_dicts` so traced and untraced sweeps
    #: serialize identically.
    obs: Optional[Dict[str, Any]] = None

    @property
    def results(self) -> List[JobResult]:
        """Bare results in spec order."""
        return [outcome.result for outcome in self.outcomes]

    def get(self, workload: str, protocol: str,
            num_chiplets: Optional[int] = None) -> JobResult:
        """Fetch one cell by workload label / protocol (/ chiplets)."""
        for outcome in self.outcomes:
            if (outcome.workload == workload
                    and outcome.job.protocol == protocol
                    and (num_chiplets is None
                         or outcome.job.config.num_chiplets == num_chiplets)):
                return outcome.result
        raise KeyError((workload, protocol, num_chiplets))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """``to_dict()`` of every result, in spec order (determinism
        checks compare these across worker counts)."""
        return [outcome.result.to_dict() for outcome in self.outcomes]


def outcome_of(job: JobSpec, cell: CellResult,
               tracer: Tracer = NULL_TRACER) -> JobOutcome:
    """Rebuild one served cell's typed result and record its end."""
    result = _reconstruct(job, cell.payload)
    cached = cell.how != HOW_RUN
    if cached:
        if hasattr(result, "from_cache"):
            # Cache-served simulation results never fabricate memo
            # counters: they stay None and the result is marked.
            result.from_cache = True
    else:
        if cell.memo is not None:
            (result.memo_hits, result.memo_misses,
             result.memo_bypasses) = cell.memo
        if cell.obs is not None and hasattr(result, "obs"):
            result.obs = cell.obs
    if tracer.enabled:
        tracer.sweep_cell(phase="end", label=job.label, cached=cached,
                          seconds=cell.seconds)
    return JobOutcome(job=job, result=result, cached=cached,
                      seconds=cell.seconds)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a worker count (``None``/``0``/negative -> #CPUs)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class SweepRunner:
    """Expand a sweep, serve cached cells, run the rest, aggregate in
    spec order.

    ``workers`` is the one process count (``<= 0`` = one per CPU);
    ``cache`` is the shared result cache, ``None`` for none;
    ``batch_size`` overrides the cells per work unit on the fork pool.
    ``tracer`` sees every cell; in-process cells also get full
    kernel-level detail (tracers cannot cross the fork boundary).
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[SharedResultCache] = None,
                 batch_size: Optional[int] = None,
                 progress: Optional[ProgressFn] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.workers = resolve_jobs(workers)
        self.cache = cache
        self.batch_size = batch_size
        self.progress = progress
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute every cell of ``spec`` and aggregate in spec order."""
        start = time.perf_counter()
        jobs = spec.expand()
        tracer, cache = self.tracer, self.cache
        if tracer.enabled:
            tracer.sweep_begin(label=f"{spec.kind}:{len(jobs)} cells",
                               cells=len(jobs))
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        stats_before = cache.stats.snapshot() if cache is not None else None

        pending: List[int] = []
        for index, job in enumerate(jobs):
            payload = cache.load(job) if cache is not None else None
            if payload is None:
                pending.append(index)
            else:
                outcomes[index] = outcome_of(
                    job, CellResult(index, payload, HOW_HIT, 0.0), tracer)
        if len(pending) < len(jobs):
            self._emit(f"cache: {len(jobs) - len(pending)}/{len(jobs)} "
                       "jobs already done")

        units = (shard_jobs(jobs, pending, self.workers, self.batch_size)
                 if self.workers > 1 else [])
        worker_cells: Dict[str, int] = {}
        if len(units) > 1 and _fork_available():
            cells = self._run_pool(jobs, pending, units, worker_cells)
        else:
            cells = self._run_here(jobs, pending, worker_cells)
        deduped = 0
        for done, cell in enumerate(cells, start=1):
            job = jobs[cell.index]
            if cell.how == HOW_RUN:
                self._emit(f"[{done}/{len(pending)}] {job.label} "
                           f"({cell.seconds:.2f}s)")
            deduped += cell.how == HOW_DEDUP
            outcomes[cell.index] = outcome_of(job, cell, tracer)

        done_outcomes = [o for o in outcomes if o is not None]
        assert len(done_outcomes) == len(jobs)
        invalidations = (cache.stats.since(stats_before).invalidations
                         if cache is not None else 0)
        report = SweepReport.of(done_outcomes, worker_cells, deduped,
                                invalidations, time.perf_counter() - start)
        self._emit(f"sweep done: {report.summary()}")
        obs = None
        if tracer.enabled:
            registry = getattr(tracer, "metrics", None)
            if registry is not None:
                obs = registry.aggregate().to_dict(include_children=False)
        return SweepResult(spec=spec, outcomes=done_outcomes, report=report,
                           obs=obs)

    # ------------------------------------------------------------------

    def _run_here(self, jobs: List[JobSpec], pending: List[int],
                  worker_cells: Dict[str, int]) -> Iterator[CellResult]:
        """Run pending cells one by one in this process, tracer
        threaded; yield each as it completes."""
        tracer = self.tracer if self.tracer.enabled else None
        worker = _worker_id()
        for index in pending:
            if tracer is not None:
                # A cancelled job's StreamingTracer raises here, before
                # the cell claims anything.
                tracer.sweep_cell(phase="begin", label=jobs[index].label)
            cell = run_job_shared(self.cache, jobs[index], tracer)
            cell.index = index
            if cell.how == HOW_RUN:
                worker_cells[worker] = worker_cells.get(worker, 0) + 1
            yield cell

    def _run_pool(self, jobs: List[JobSpec], pending: List[int],
                  units: List[WorkUnit],
                  worker_cells: Dict[str, int]) -> Iterator[CellResult]:
        """Run the units on a fork pool of up to ``workers`` processes;
        yield each unit's cells as the unit completes."""
        import multiprocessing

        prewarm_pending_traces(jobs, pending)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(self.workers, len(units)),
                                 mp_context=context) as pool:
            futures = [pool.submit(_execute_unit, unit, self.cache)
                       for unit in units]
            for future in as_completed(futures):
                unit = future.result()
                executed = unit.count(HOW_RUN)
                worker_cells[unit.worker] = (worker_cells.get(unit.worker, 0)
                                             + executed)
                if self.tracer.enabled:
                    self.tracer.shard_event(
                        phase="end", shard=unit.unit_index,
                        worker=unit.worker, cells=len(unit.cells),
                        executed=executed, hits=unit.count(HOW_HIT),
                        deduped=unit.count(HOW_DEDUP),
                        seconds=unit.seconds)
                if self.cache is not None:
                    # Fold the worker's cache accounting into ours so
                    # the report's invalidation counter sees every
                    # worker.
                    self.cache.stats.merge(unit.stats)
                yield from unit.cells
