"""The sweep engine: one runner for serial, forked and served sweeps.

:class:`SweepRunner` turns a :class:`~repro.engine.spec.SweepSpec` into
results. It expands the spec into jobs and serves every cell its
:class:`~repro.engine.cache.SharedResultCache` already holds from the
parent process. The pending cells then run one of two ways:

* **in-process**, one by one through :func:`run_job_shared`, with the
  tracer threaded into every simulation and one ``[i/n] label (s)``
  progress line per computed cell;
* **on a fork pool**: :func:`shard_jobs` splits the pending cells into
  deterministic, content-keyed :class:`WorkUnit`\\ s (contiguous
  batches, so cheap cells amortize process start-up and adjacent cells
  reuse interned traces inside one worker) and each worker runs its
  units through the same :func:`run_job_shared`. A runner given an
  ``executor`` (a long-lived :class:`ForkPool`, the server's) runs every
  pending unit there, even a single cell, one unit at a time, so the
  runners sharing it each hold at most one worker; otherwise it forks a
  pool of its own when ``workers > 1`` and more than one unit is
  pending, and keeps all its workers busy.

A worker killed mid-unit costs its unit, not the sweep: units that
finished keep their cells, every unfinished unit reruns once on a fresh
pool (a dead worker's claims are reclaimed at once), and a unit lost a
second time fails the sweep with an error naming its cells.

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
rebuilds the typed result from it in the parent. When the runner's
tracer is a :class:`~repro.obs.streaming.StreamingTracer` (a server
job's), a worker records each cell under a streaming tracer of its own,
ships the coarse events beside the payload, and the parent replays them
into the job's tracer before the cell's ``end`` event; the job's
:class:`~repro.engine.jobs.CancelToken` reaches the worker through a
shared flag (:meth:`ForkPool.cancel_slot`). Other tracers see the
sweep's cell and shard events, and kernel detail only for in-process
cells. Results aggregate **in spec order**, so in-process, forked and
cached runs of the same spec are bit-identical. Every run produces a
:class:`SweepReport`, the summary the CLIs print.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import stat
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.engine.cache import (
    CLAIM_ACQUIRED,
    CLAIM_HIT,
    CacheStats,
    SharedResultCache,
)
from repro.engine.jobs import CancelToken, SharedFlag
from repro.engine.spec import JobSpec, SweepSpec, workload_label
from repro.obs.streaming import ShippedEvent, StreamingTracer
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

#: Seconds between a pool worker's checks that its parent still lives.
PARENT_WATCH_SECONDS = 0.5


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
    #: The cell's coarse tracer events, recorded in a forked worker for
    #: the parent's :class:`~repro.obs.streaming.StreamingTracer`.
    events: Optional[List[ShippedEvent]] = None


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

    ``tracer`` threads an observability sink into the simulation.
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


def _execute_unit(unit: WorkUnit, cache: Optional[SharedResultCache],
                  ship_events: bool = False,
                  slot: Optional[int] = None) -> UnitResult:
    """Run one work unit (module-level so the process pool can pickle
    it; also the body of multi-host workers). The returned stats are
    this unit's own cache counters.

    With ``ship_events`` each cell runs under a fresh
    :class:`~repro.obs.streaming.StreamingTracer` whose events travel
    back in :attr:`CellResult.events`; ``slot`` names the pool's shared
    cancel flag that tracer checks at the cell's start and at every
    kernel boundary.
    """
    before = cache.stats.snapshot() if cache is not None else CacheStats()
    t0 = time.perf_counter()
    cells: List[CellResult] = []
    cancel = (SharedFlag(_WORKER_FLAGS, slot) if slot is not None
              else None)
    for index, job in unit.items:
        tracer = StreamingTracer(cancel=cancel) if ship_events else None
        if tracer is not None:
            tracer.sweep_cell(phase="begin", label=job.label)
        cell = run_job_shared(cache, job, tracer)
        cell.index = index
        if tracer is not None:
            cell.events = tracer.shipped()
        cells.append(cell)
    stats = cache.stats.since(before) if cache is not None else before
    return UnitResult(unit_index=unit.index, worker=_worker_id(),
                      cells=cells, stats=stats,
                      seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# The fork pool
# ---------------------------------------------------------------------------

#: A pool worker's view of its pool's shared cancel flags (set by
#: :func:`_init_worker`).
_WORKER_FLAGS: Any = None

#: Seconds :meth:`ForkPool.shutdown` waits for busy workers to finish
#: their cell before it kills them.
SHUTDOWN_GRACE_SECONDS = 10.0


def _init_worker(flags: Any, parent: int, ignore_sigint: bool) -> None:
    """Pool-worker set-up: keep the shared cancel flags, let go of
    inherited sockets, optionally leave SIGINT to the parent, and start
    the watchdog that ends the worker when its parent dies."""
    global _WORKER_FLAGS
    _WORKER_FLAGS = flags
    if ignore_sigint:
        # A Ctrl-C reaches the whole process group; the parent shuts
        # the pool down in order.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    _release_sockets()
    threading.Thread(target=_watch_parent, args=(parent,),
                     name="repro-parent-watch", daemon=True).start()


def _watch_parent(parent: int) -> None:
    """End this worker once its parent is gone (reparented), so no
    worker outlives the process that forked it."""
    while os.getppid() == parent:
        time.sleep(PARENT_WATCH_SECONDS)
    os._exit(1)


def _release_sockets() -> None:
    """Point every inherited socket descriptor at ``/dev/null``.

    A pool forked by a serving process would otherwise hold the
    listener and every open client connection: a TCP connection closes
    only with its last descriptor, so a client reading a response to
    EOF would wait for the worker to exit. The descriptor numbers stay
    taken, so a stray close of an inherited socket object cannot hit a
    file the worker opened later.
    """
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(listing)]
        except OSError:
            continue
        null = os.open(os.devnull, os.O_RDWR)
        try:
            for fd in fds:
                try:
                    if stat.S_ISSOCK(os.fstat(fd).st_mode):
                        os.dup2(null, fd)
                except OSError:
                    pass  # the listing's own descriptor, now closed
        finally:
            os.close(null)
        return


class _RemoteTraceback(Exception):
    """A pool worker's formatted traceback, chained to the exception it
    raised."""

    def __str__(self) -> str:
        return self.args[0]


def _worker_main(tasks: Any, results: Any, flags: Any, parent: int,
                 ignore_sigint: bool, foreign: List[int],
                 cpu: Optional[int]) -> None:
    """A pool worker's loop: run each ``(fn, args)`` read from ``tasks``
    and send back ``(True, value)`` or ``(False, exception,
    traceback)``, until ``None`` or EOF. ``cpu`` pins the worker to
    that CPU."""
    for fd in foreign:  # the parent's ends of every worker's pipes
        with contextlib.suppress(OSError):
            os.close(fd)
    if cpu is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpu})
    _init_worker(flags, parent, ignore_sigint)
    import traceback

    while True:
        try:
            task = tasks.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, args = task
        try:
            reply: Tuple[Any, ...] = (True, fn(*args))
        except BaseException as exc:
            reply = (False, exc, traceback.format_exc())
        try:
            results.send(reply)
        except Exception as exc:  # the value or exception would not pickle
            results.send((False, RuntimeError(
                f"pool worker could not send its reply: {exc!r}"),
                traceback.format_exc()))


@dataclass
class _Worker:
    """One forked worker and the parent's ends of its two pipes."""

    process: Any
    tasks: Any
    results: Any
    cpu: Optional[int] = None

    def close(self, timeout: float = SHUTDOWN_GRACE_SECONDS) -> None:
        """Ask the worker to exit, wait for it (killing it after
        ``timeout``), and close the pipes."""
        with contextlib.suppress(OSError):
            self.tasks.send(None)
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.tasks.close()
        self.results.close()


class ForkPool:
    """``workers`` forked processes that can outlive one sweep.

    ``SweepRunner(executor=pool)`` runs every pending work unit of its
    sweeps on the pool, one at a time; the job server keeps one for its
    lifetime, with a worker for each of its job threads. Without an
    executor a runner makes one per sweep and drives all its workers.

    :meth:`run` checks an idle worker out, and the *calling* thread
    sends it the task and reads its reply over the worker's own pipes:
    no manager or feeder thread sits between a job thread and its
    worker, so a cell's round trip waits for the interpreter lock once,
    not at every hand-over between threads.

    * **Recovery.** A worker that dies mid-task (EOF on its pipe) fails
      that task with ``BrokenProcessPool`` and is reaped; the next
      checkout forks a replacement. That fork may run while other
      threads of the parent work; it is safe because a worker runs only
      the pool's task loop and :func:`_execute_unit`, which take no lock
      a parent thread can hold (job keys travel computed; the cache and
      the tracer a worker uses are its own), and :func:`_init_worker`
      lets go of inherited sockets.
    * **Cancellation.** One shared flag byte per worker is allocated
      before the first fork. :meth:`cancel_slot` mirrors a job's
      :class:`~repro.engine.jobs.CancelToken` into a free one, and the
      worker's tracer reads it at every kernel boundary.
    * **Lifetime.** Every worker watches its parent and exits when the
      parent is gone; :meth:`shutdown` stops running cells at their next
      kernel boundary and ends the workers.

    A ``serving`` pool (the server's) leaves SIGINT to its parent, and
    when its workers are exactly as many as the CPUs this process may
    use, pins each to a CPU of its own: the pool then keeps every CPU
    busy anyway, and a pinned cell is not moved to another CPU (and
    its cold caches) each time a server thread wakes up. Other sizes
    pin nothing.
    """

    def __init__(self, workers: int, serving: bool = False) -> None:
        import multiprocessing

        self.workers = workers
        self._context = multiprocessing.get_context("fork")
        self._flags = self._context.RawArray("b", workers)
        self._free = list(range(workers))
        self._ignore_sigint = serving
        cpus = (sorted(os.sched_getaffinity(0))
                if serving and hasattr(os, "sched_getaffinity") else [])
        self._cpus = cpus if len(cpus) == workers else []
        self._changed = threading.Condition()
        self._idle: List[_Worker] = []
        self._live: List[_Worker] = []
        self._closed = False

    def _fork(self) -> _Worker:
        """Fork one worker (the condition's lock held: forks never
        overlap, and no other worker inherits this one's child ends)."""
        context = self._context
        task_out, task_in = context.Pipe(duplex=False)
        result_out, result_in = context.Pipe(duplex=False)
        foreign = [task_in.fileno(), result_out.fileno()] + [
            fd for worker in self._live
            for fd in (worker.tasks.fileno(), worker.results.fileno())]
        taken = {worker.cpu for worker in self._live}
        cpu = next((c for c in self._cpus if c not in taken), None)
        process = context.Process(
            target=_worker_main, name="repro-pool-worker", daemon=True,
            args=(task_out, result_in, self._flags, os.getpid(),
                  self._ignore_sigint, foreign, cpu))
        process.start()
        task_out.close()
        result_in.close()
        worker = _Worker(process, task_in, result_out, cpu)
        self._live.append(worker)
        return worker

    def start(self) -> None:
        """Fork every worker now, from the calling thread, instead of at
        the first checkouts."""
        with self._changed:
            while len(self._live) < self.workers:
                self._idle.append(self._fork())

    def _checkout(self) -> _Worker:
        with self._changed:
            while True:
                if self._closed:
                    raise RuntimeError("the fork pool is shut down")
                if self._idle:
                    return self._idle.pop()
                if len(self._live) < self.workers:
                    return self._fork()
                self._changed.wait()

    def _checkin(self, worker: _Worker, lost: bool = False) -> None:
        with self._changed:
            if lost or self._closed:
                self._live.remove(worker)
            else:
                self._idle.append(worker)
            self._changed.notify_all()
        if lost or self._closed:
            worker.close(timeout=0.0 if lost else SHUTDOWN_GRACE_SECONDS)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` in an idle worker, sent and awaited from the
        calling thread; returns its value or re-raises its exception.
        A worker that dies meanwhile raises ``BrokenProcessPool``."""
        worker = self._checkout()
        try:
            worker.tasks.send((fn, args))
            reply = worker.results.recv()
        except (EOFError, OSError) as exc:
            self._checkin(worker, lost=True)
            raise BrokenProcessPool(
                f"pool worker {worker.process.pid} died "
                f"(exit code {worker.process.exitcode})") from exc
        except BaseException:
            # Interrupted while the worker runs: its state is unknown.
            self._checkin(worker, lost=True)
            raise
        self._checkin(worker)
        if reply[0]:
            return reply[1]
        raise reply[1] from _RemoteTraceback(reply[2])

    @contextlib.contextmanager
    def cancel_slot(self, token: CancelToken) -> Iterator[None]:
        """Mirror ``token`` into a free shared flag while the block runs
        (cells then stop at a kernel boundary when it trips). With no
        slot free, the token is only seen by the parent."""
        with self._changed:
            slot = self._free.pop() if self._free else None
        if slot is None:
            yield
            return
        token.share(self._flags, slot)
        try:
            yield
        finally:
            token.unshare()
            with self._changed:
                self._free.append(slot)

    def shutdown(self) -> None:
        """Raise every cancel flag, end the idle workers, and wait (up
        to :data:`SHUTDOWN_GRACE_SECONDS`) for busy ones to finish their
        cell and be ended by the thread that checked them out."""
        for slot in range(len(self._flags)):
            self._flags[slot] = 1
        with self._changed:
            self._closed = True
            idle, self._idle = self._idle, []
            for worker in idle:
                self._live.remove(worker)
        for worker in idle:
            worker.close()
        deadline = time.monotonic() + SHUTDOWN_GRACE_SECONDS
        with self._changed:
            while self._live and time.monotonic() < deadline:
                self._changed.wait(deadline - time.monotonic())
            stragglers = list(self._live)
        for worker in stragglers:
            worker.process.kill()
            worker.process.join()


def _completed(pool: ForkPool, units: Sequence[WorkUnit], at_once: int,
               *args: Any,
               ) -> Iterator[Tuple[WorkUnit, Optional[UnitResult]]]:
    """Run ``_execute_unit(unit, *args)`` for every unit on ``pool``, at
    most ``at_once`` at a time, and yield ``(unit, result)`` as each
    completes; ``result`` is ``None`` for a unit lost with its worker.
    One at a time, the calling thread sends the units one after another;
    more are sent by that many threads. Closing the generator drops the
    units not yet started and waits for the rest."""
    at_once = min(at_once, len(units))
    if at_once <= 1:
        for unit in units:
            try:
                done = pool.run(_execute_unit, unit, *args)
            except BrokenProcessPool:
                done = None
            yield unit, done
        return
    with ThreadPoolExecutor(max_workers=at_once,
                            thread_name_prefix="repro-pool-sender") as send:
        futures = {send.submit(pool.run, _execute_unit, unit, *args): unit
                   for unit in units}
        try:
            for future in as_completed(futures):
                try:
                    yield futures[future], future.result()
                except BrokenProcessPool:
                    yield futures[future], None
        finally:
            for future in futures:
                future.cancel()


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
    protocol; ``retried_units`` counts work units run again on a fresh
    pool after a worker died.
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
    retried_units: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """The fields as a dict: ``dataclasses.asdict`` without its
        recursive deep copy (every field is a scalar but one list)."""
        report = dict(vars(self))
        report["per_worker_cells"] = list(self.per_worker_cells)
        return report

    def summary(self) -> str:
        """One-line report the CLIs print after a sweep."""
        mode = (f"{self.workers} workers" if self.parallel else "serial")
        if self.parallel and self.per_worker_cells:
            cells = "/".join(str(n) for n in self.per_worker_cells)
            mode += f", {cells} cells"
        if self.retried_units:
            mode += f", {self.retried_units} units retried"
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
           deduped: int, invalidations: int, wall_seconds: float,
           retried_units: int = 0) -> "SweepReport":
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
            retried_units=retried_units,
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
    """Rebuild one served cell's typed result and record its end (after
    replaying the events a worker shipped for it)."""
    result = _reconstruct(job, cell.payload)
    if cell.events is not None and isinstance(tracer, StreamingTracer):
        tracer.replay(cell.events)
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


@dataclass
class _Tally:
    """One sweep's execution accounting, filled as cells arrive."""

    #: Cells each worker executed.
    worker_cells: Dict[str, int] = field(default_factory=dict)
    #: Work units run again after their worker died.
    retried_units: int = 0


class SweepRunner:
    """Expand a sweep, serve cached cells, run the rest, aggregate in
    spec order.

    ``workers`` is the one process count (``<= 0`` = one per CPU);
    ``cache`` is the shared result cache, ``None`` for none;
    ``batch_size`` overrides the cells per work unit on the fork pool;
    ``executor`` is a long-lived :class:`ForkPool` to run every pending
    unit on, one at a time (``workers`` is then ignored). ``tracer``
    sees every cell;
    in-process cells also get full kernel-level detail, and so do
    pooled cells when it is a
    :class:`~repro.obs.streaming.StreamingTracer`.
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[SharedResultCache] = None,
                 batch_size: Optional[int] = None,
                 progress: Optional[ProgressFn] = None,
                 tracer: Optional[Tracer] = None,
                 executor: Optional[ForkPool] = None) -> None:
        self.workers = resolve_jobs(workers)
        self.cache = cache
        self.batch_size = batch_size
        self.progress = progress
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.executor = executor

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

        tally = _Tally()
        if self.executor is not None:
            units = shard_jobs(jobs, pending, self.executor.workers,
                               self.batch_size)
            pooled = bool(units)
        else:
            units = (shard_jobs(jobs, pending, self.workers,
                                self.batch_size)
                     if self.workers > 1 else [])
            pooled = len(units) > 1 and _fork_available()
        cells = (self._run_pool(jobs, pending, units, tally) if pooled
                 else self._run_here(jobs, pending, tally))
        deduped = 0
        try:
            for done, cell in enumerate(cells, start=1):
                job = jobs[cell.index]
                if cell.how == HOW_RUN:
                    self._emit(f"[{done}/{len(pending)}] {job.label} "
                               f"({cell.seconds:.2f}s)")
                deduped += cell.how == HOW_DEDUP
                outcomes[cell.index] = outcome_of(job, cell, tracer)
        finally:
            # Settles the pool's outstanding units even when a cell
            # failed, so none outlives this sweep.
            cells.close()

        done_outcomes = [o for o in outcomes if o is not None]
        assert len(done_outcomes) == len(jobs)
        invalidations = (cache.stats.since(stats_before).invalidations
                         if cache is not None else 0)
        report = SweepReport.of(done_outcomes, tally.worker_cells, deduped,
                                invalidations, time.perf_counter() - start,
                                tally.retried_units)
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
                  tally: _Tally) -> Iterator[CellResult]:
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
                tally.worker_cells[worker] = (
                    tally.worker_cells.get(worker, 0) + 1)
            yield cell

    def _run_pool(self, jobs: List[JobSpec], pending: List[int],
                  units: List[WorkUnit],
                  tally: _Tally) -> Iterator[CellResult]:
        """Run the units on a fork pool of up to ``workers`` processes
        made for this sweep, all workers at once, or one at a time on
        the runner's executor, which other runners share (so one sweep
        holds at most one of its workers); yield each unit's cells as
        the unit completes.

        Units lost with a dead worker rerun once, on a fresh worker; a
        unit lost twice raises ``BrokenProcessPool`` naming its cells.
        """
        pool = self.executor
        at_once = 1
        if pool is None:
            prewarm_pending_traces(jobs, pending)
            pool = ForkPool(min(self.workers, len(units)))
            pool.start()
            at_once = pool.workers
        tracer = self.tracer
        ship = isinstance(tracer, StreamingTracer)
        slot = getattr(tracer.cancel, "slot", None) if ship else None
        retried: Set[int] = set()
        try:
            while units:
                lost: List[WorkUnit] = []
                with contextlib.closing(_completed(
                        pool, units, at_once, self.cache, ship,
                        slot)) as finished:
                    for unit, done in finished:
                        if done is None:
                            lost.append(unit)
                            continue
                        self._account(done, tally)
                        yield from done.cells
                lost.sort(key=lambda unit: unit.index)
                twice = [unit for unit in lost if unit.index in retried]
                if twice:
                    labels = ", ".join(job.label for unit in twice
                                       for _, job in unit.items)
                    raise BrokenProcessPool(
                        f"a pool worker died again running the same "
                        f"work; lost cells: {labels}")
                retried.update(unit.index for unit in lost)
                tally.retried_units += len(lost)
                units = lost
        finally:
            if pool is not self.executor:
                pool.shutdown()

    def _account(self, unit: UnitResult, tally: _Tally) -> None:
        """Fold one finished unit into the sweep's accounting."""
        executed = unit.count(HOW_RUN)
        tally.worker_cells[unit.worker] = (
            tally.worker_cells.get(unit.worker, 0) + executed)
        if self.tracer.enabled:
            self.tracer.shard_event(
                phase="end", shard=unit.unit_index, worker=unit.worker,
                cells=len(unit.cells), executed=executed,
                hits=unit.count(HOW_HIT), deduped=unit.count(HOW_DEDUP),
                seconds=unit.seconds)
        if self.cache is not None:
            # Fold the worker's cache accounting into ours so the
            # report's invalidation counter and the caller's stats see
            # every worker.
            self.cache.stats.merge(unit.stats)
