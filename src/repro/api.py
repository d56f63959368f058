"""The single documented entry point for running the reproduction.

Downstream code (examples, benchmarks, notebooks, services) should import
from here instead of reaching into ``repro.gpu``, ``repro.workloads``,
``repro.coherence``, and ``repro.engine`` separately::

    from repro.api import simulate, sweep

    # One cell: workload x protocol (x config x scheduler).
    result = simulate("babelstream", "cpelide")
    print(result.wall_cycles)

    # A whole sweep, fanned out over worker processes and served from
    # the on-disk result cache on re-runs.
    res = sweep(workloads=("square", "bfs"), workers=4)
    print(res.get("square", "cpelide").wall_cycles)
    print(res.report.summary())

Coherence protocols are first-class (api version 4.0): they are
described by frozen :class:`~repro.coherence.registry.ProtocolSpec`
records, enumerated with :func:`protocols`, and extended with
:func:`register_protocol` — a registered protocol is immediately
simulatable, sweepable, visible to the CLIs, and served by the HTTP
API's ``GET /v1/protocols``::

    from repro.api import ProtocolSpec, register_protocol, simulate

    register_protocol(ProtocolSpec(name="mine", factory=MyProtocol,
                                   description="my experiment"))
    result = simulate("babelstream", protocol="mine")

The commonly-needed building blocks (:class:`GPUConfig`,
:func:`build_workload`, :class:`HipRuntime`, …) are re-exported so one
import serves a typical script.

The sweep engine runs every cell that names a registry workload and a
registered protocol, and nothing else. :func:`simulate` of a named
workload, :func:`sweep`, the sweeps of both CLIs, the experiment
harnesses and the HTTP server run such cells through one runner,
:class:`~repro.engine.runner.SweepRunner`, with one process-count
setting (``workers``, also accepted as ``jobs``). ``cache=False`` means
no cache on every path: nothing is read or written. A :class:`Workload`
instance runs directly, uncached; so do the ``scheduler`` and
``inference`` harnesses, which build their own workloads.

This surface is versioned: :data:`__api_version__` bumps whenever a
documented signature changes. Everything in ``__all__`` is stable;
other names are not importable from here — import them from their
canonical modules.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.coherence.base import make_protocol
from repro.coherence.registry import (
    ProtocolSpec,
    get_protocol,
    protocols,
    register_protocol,
    unregister_protocol,
)
from repro.errors import (
    CacheError,
    ConfigError,
    InvariantViolation,
    OracleDivergence,
    ReproError,
)
from repro.obs import (
    EventTracer,
    MetricRegistry,
    NULL_TRACER,
    Tracer,
    write_trace,
)
from repro.engine.cache import (
    ResultCache,
    SharedResultCache,
    default_cache_dir,
)
from repro.engine.runner import (
    ProgressFn,
    SweepReport,
    SweepResult,
    SweepRunner,
)
from repro.engine.spec import (
    DEFAULT_PROTOCOLS,
    DEFAULT_SCALE,
    SweepSpec,
    WorkloadSpec,
)
from repro.gpu.config import GPUConfig, monolithic_equivalent
from repro.gpu.sim import SimulationResult, Simulator
from repro.gpu.trace_path import TracePath
from repro.hip.runtime import HipRuntime
from repro.workloads.base import Workload
from repro.workloads.suite import (
    EXTRA_WORKLOADS,
    HIGH_REUSE,
    LOW_REUSE,
    WORKLOAD_NAMES,
    build_workload,
)

#: Version of the documented :mod:`repro.api` surface. Bumped to ``9.0``
#: when the engine came to run one kind of job, a simulation:
#: :class:`SweepSpec` lost ``kind`` and :meth:`SweepSpec.grid` its
#: ``kind=`` parameter (``JobSpec.kind`` and ``JOB_KINDS`` went too), and
#: ``TableOccupancyProfile`` lost ``to_dict``/``from_dict``; occupancy
#: profiles come from ``repro.experiments.occupancy.run`` in-process.
#: ``8.0`` came when a traced run was recorded once, by its tracer:
#: :class:`SimulationResult` lost ``obs`` and ``to_dict(include_obs=)``
#: (``to_dict()`` takes no argument) and :class:`SweepResult` lost
#: ``obs``: read ``tracer.metrics.aggregate()`` instead. The sync-op
#: trace is ``render_trace(tracer, "sync")`` of an
#: :class:`~repro.obs.EventTracer` (:func:`repro.obs.export.sync_trace`);
#: ``repro.analysis.sync_trace`` with ``trace_sync_ops``, ``SyncTrace``
#: and ``SyncEvent`` is gone, from :mod:`repro` and
#: :mod:`repro.analysis` too. Knobs and code nothing used went with it:
#: :class:`Simulator`'s ``energy_model`` (always the default
#: :class:`~repro.energy.model.EnergyModel`),
#: :class:`~repro.obs.streaming.StreamingTracer`'s ``max_events`` (the
#: module constant ``MAX_EVENTS``), ``repro.experiments.run_one`` (call
#: :func:`simulate`), ``repro.metrics.export`` (``matrix_to_csv``,
#: ``run_to_csv``, ``MATRIX_COLUMNS``, ``KERNEL_COLUMNS``),
#: ``repro.experiments.scaling.ScaledCPElideProtocol``,
#: ``repro.analysis.occupancy.profile_suite`` and
#: ``KernelTiming.execution_cycles``. ``7.0`` came
#: when :class:`~repro.coherence.base.CoherenceProtocol` took over the
#: demand-access skeleton: ``access`` and ``access_run`` are defined
#: there only, and a registered factory's direct subclass implements
#: ``_route(chiplet, line, home, is_write)`` (and may override
#: ``_route_segment``) instead of ``access``. ``6.0`` came
#: when :func:`serve` lost ``use_uvicorn`` (the server is the stdlib
#: asyncio one only; the ASGI adapter is gone) and
#: :class:`ResultCache` became another name of
#: :class:`SharedResultCache`, so every ``cache=`` accepts it. ``5.0``
#: came with the one sweep runner: :func:`simulate` lost ``jobs`` (one cell
#: never forks); :func:`sweep` treats ``jobs`` and ``workers`` as one
#: process count (:class:`~repro.errors.ConfigError` when both are given
#: and differ); ``cache=`` takes a bool or a :class:`SharedResultCache`
#: (anything else raises ConfigError) and ``cache=False`` means no cache
#: on every path;
#: ``DistSweepRunner`` left ``__all__`` (:class:`SweepRunner` is the one
#: runner); and the deprecated names are gone — the ``protocol_names``
#: and deep-import shims here, the legacy bulk-op aliases of
#: :class:`~repro.memory.cache.SetAssocCache`, and the raw-string
#: trace-path constants of :mod:`repro.gpu.sim`. ``4.0`` added the
#: first-class protocol registry: frozen
#: :class:`~repro.coherence.registry.ProtocolSpec` records,
#: :func:`protocols`/:func:`register_protocol`/:func:`unregister_protocol`,
#: ``simulate(protocol=...)`` accepting a spec as well as a name,
#: :class:`~repro.errors.ConfigError` on unknown protocol names
#: everywhere (CLI, engine specs, server admission), and
#: ``protocol_names`` demoted to a deprecation shim (enumerate
#: :func:`protocols` instead). ``3.2`` added simulation-as-a-service:
#: :func:`serve` runs the :class:`~repro.server.ReproServer` HTTP job
#: API (async submissions, SSE progress streams, admission control)
#: over the same :class:`~repro.engine.cache.SharedResultCache` the
#: distributed engine uses. ``3.1`` added the distributed engine:
#: ``sweep(workers=...)`` over a shared result store with in-flight
#: dedupe. ``3.0`` added the :class:`TracePath`
#: enum (replacing raw ``"line"``/``"run"``/``"memo"`` strings, which
#: still coerce) and the unified keyword-only cache bulk-op API
#: (:class:`repro.memory.cache.BulkResult`). ``2.0`` added the
#: keyword-only ``simulate``/``sweep`` signatures, the
#: ``trace_path=``/``tracer=`` parameters, and the :mod:`repro.errors`
#: hierarchy.
__api_version__ = "9.0"

__all__ = [
    "CacheError",
    "ConfigError",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_SCALE",
    "EXTRA_WORKLOADS",
    "EventTracer",
    "GPUConfig",
    "HIGH_REUSE",
    "HipRuntime",
    "InvariantViolation",
    "LOW_REUSE",
    "MetricRegistry",
    "NULL_TRACER",
    "OracleDivergence",
    "ProtocolSpec",
    "ReproError",
    "ResultCache",
    "SharedResultCache",
    "SimulationResult",
    "Simulator",
    "SweepReport",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "TracePath",
    "Tracer",
    "WORKLOAD_NAMES",
    "Workload",
    "__api_version__",
    "build_workload",
    "default_cache_dir",
    "default_config",
    "get_protocol",
    "make_protocol",
    "monolithic_equivalent",
    "protocols",
    "register_protocol",
    "serve",
    "simulate",
    "sweep",
    "unregister_protocol",
    "write_trace",
]

def default_config(num_chiplets: int = 4, scale: float = DEFAULT_SCALE,
                   **overrides) -> GPUConfig:
    """The Table I configuration at experiment scale.

    Any other :class:`GPUConfig` field can be overridden by keyword.
    """
    return GPUConfig(num_chiplets=num_chiplets, scale=scale, **overrides)


def _shared_cache(cache: Union[bool, SharedResultCache, None],
                  cache_dir=None) -> Optional[SharedResultCache]:
    """``cache=`` as the runner takes it: ``True`` is the cache at
    ``cache_dir`` (default root when ``None``), ``False``/``None`` no
    cache, a :class:`SharedResultCache` itself."""
    if isinstance(cache, SharedResultCache) or cache is None:
        return cache
    if isinstance(cache, bool):
        return SharedResultCache(root=cache_dir) if cache else None
    raise ConfigError(f"cache= takes a bool or a SharedResultCache, "
                      f"not {type(cache).__name__}")


def simulate(workload: Union[str, Workload],
             protocol: Union[str, ProtocolSpec] = "cpelide",
             *,
             config: Optional[GPUConfig] = None,
             scheduler: str = "static",
             cache: Union[bool, SharedResultCache] = False,
             trace_path: Optional[Union[TracePath, str]] = None,
             tracer: Optional[Tracer] = None) -> SimulationResult:
    """Run one workload under one protocol and return its result.

    ``workload`` is a registry name (see :data:`WORKLOAD_NAMES`) or an
    already-built :class:`Workload`. Named workloads route through the
    sweep engine, so ``cache=True`` serves repeat runs from the on-disk
    result cache; ``Workload`` instances run directly (they have no
    stable cache identity, so combining one with ``cache=True`` raises
    :class:`~repro.errors.ConfigError`).

    ``protocol`` is a registry name or a :class:`ProtocolSpec` (api
    version 4.0). A spec that is currently registered under its name is
    equivalent to passing the name; an *unregistered* spec runs directly
    through its factory — which, like a :class:`Workload` instance, has
    no stable cache identity, so combining one with ``cache=True``
    raises :class:`~repro.errors.ConfigError`. Unknown protocol names
    raise :class:`~repro.errors.ConfigError` as well.

    All optional parameters are keyword-only (api version 2.0).
    ``trace_path`` selects the trace representation — a
    :class:`TracePath` member or its string value (``"line"``/``"run"``/
    ``"memo"``; default per ``REPRO_TRACE_PATH``). ``tracer`` attaches an
    observability sink (e.g. :class:`~repro.obs.EventTracer`) — a pure
    observer; results are bit-identical with or without it. The cell
    runs in this process (api version 5.0 removed ``jobs``).
    """
    config = config or default_config()
    shared = _shared_cache(cache)
    factory = None
    if isinstance(protocol, ProtocolSpec):
        spec_obj = protocol
        try:
            registered = get_protocol(spec_obj.name)
        except ConfigError:
            registered = None
        if registered == spec_obj:
            protocol = spec_obj.name
        else:
            if shared is not None:
                raise ConfigError(
                    f"simulate(cache=...) requires a registered protocol: "
                    f"spec {spec_obj.name!r} is not (or no longer) the "
                    f"registered spec of that name, so results have no "
                    f"stable cache identity. register_protocol() it, or "
                    f"drop cache.")
            factory = spec_obj.build
    elif not isinstance(workload, Workload):
        get_protocol(protocol)  # fail fast: ConfigError on unknown names
    if isinstance(workload, Workload) or factory is not None:
        if shared is not None:
            raise ConfigError(
                "simulate(cache=...) requires a registry-named workload: "
                "Workload instances bypass the sweep engine and have no "
                "stable cache identity, so the flag cannot be honored. "
                "Pass the workload's registry name, or drop cache.")
        if not isinstance(workload, Workload):
            workload = build_workload(workload, config)
        return Simulator(config, factory or protocol, scheduler=scheduler,
                         trace_path=trace_path,
                         tracer=tracer).run(workload)
    spec = SweepSpec(workloads=(workload,), protocols=(protocol,),
                     configs=(config,), scheduler=scheduler,
                     trace_path=trace_path)
    runner = SweepRunner(cache=shared, tracer=tracer)
    return runner.run(spec).outcomes[0].result


def sweep(spec: Optional[SweepSpec] = None,
          *,
          workloads: Optional[Sequence[WorkloadSpec]] = None,
          protocols: Sequence[str] = DEFAULT_PROTOCOLS,
          chiplet_counts: Sequence[int] = (4,),
          scale: float = DEFAULT_SCALE,
          scheduler: str = "static",
          configs: Optional[Sequence[GPUConfig]] = None,
          jobs: Optional[int] = None,
          cache: Union[bool, SharedResultCache] = True,
          cache_dir=None,
          workers: Optional[int] = None,
          progress: Optional[ProgressFn] = None,
          trace_path: Optional[Union[TracePath, str]] = None,
          tracer: Optional[Tracer] = None) -> SweepResult:
    """Run a declarative sweep through the sweep engine.

    Pass a prebuilt :class:`SweepSpec`, or describe the grid by keyword
    (``workloads=None`` selects all 24 Table II applications). Results
    arrive in spec order regardless of completion order.

    ``workers`` (or its other name ``jobs``; passing both with different
    values raises :class:`~repro.errors.ConfigError`) is the process
    count: 1 (the default) runs every cell in this process, more fans
    pending cells out over that many forked workers as contiguous
    work units, and ``0`` or less means one per CPU. Results are
    bit-identical for every count.

    ``cache`` (default on) serves completed cells from the on-disk
    :class:`SharedResultCache` rooted at ``cache_dir`` (default root
    when ``None``), or from a cache instance passed directly; any number
    of concurrent sweeps — threads, processes, or hosts sharing the
    directory — serve each other's completed *and in-flight* cells
    instead of recomputing. ``cache=False`` reads and writes nothing.

    ``trace_path`` selects the trace representation for every cell;
    ``tracer`` attaches an observability sink. Cells run in this process
    record full kernel-level detail, whatever the worker count; cells on
    forked workers record sweep-cell and shard events only, unless the
    tracer is a :class:`~repro.obs.streaming.StreamingTracer`, into
    which the workers' coarse run and kernel events are replayed.
    """
    if jobs is not None and workers is not None and jobs != workers:
        raise ConfigError(
            f"sweep(jobs={jobs}, workers={workers}): jobs and workers "
            f"name one process count; pass one of them")
    if spec is None:
        if configs is not None:
            if workloads is None:
                workloads = tuple(WORKLOAD_NAMES)
            spec = SweepSpec(workloads=tuple(workloads),
                             protocols=tuple(protocols),
                             configs=tuple(configs), scheduler=scheduler,
                             trace_path=trace_path)
        else:
            spec = SweepSpec.grid(workloads=workloads, protocols=protocols,
                                  chiplet_counts=chiplet_counts, scale=scale,
                                  scheduler=scheduler, trace_path=trace_path)
    elif trace_path is not None and spec.trace_path != trace_path:
        import dataclasses
        spec = dataclasses.replace(spec, trace_path=trace_path)
    count = workers if workers is not None else jobs
    runner = SweepRunner(workers=1 if count is None else count,
                         cache=_shared_cache(cache, cache_dir),
                         progress=progress, tracer=tracer)
    return runner.run(spec)


def serve(host: str = "127.0.0.1", port: int = 8642,
          *,
          cache: Union[SharedResultCache, str, None] = None,
          max_inflight: int = 2,
          max_queue_depth: int = 64,
          client_quota: int = 8) -> None:
    """Serve the simulation job API over HTTP until interrupted
    (api version 3.2).

    Clients ``POST /v1/simulate`` and ``POST /v1/sweep`` bodies (the
    keyword grids :func:`simulate`/:func:`sweep` accept, as JSON), poll
    ``GET /v1/jobs/{id}``, stream per-kernel progress from
    ``GET /v1/jobs/{id}/events`` (Server-Sent Events), and fetch
    ``GET /v1/jobs/{id}/result`` — a body byte-identical to the same
    spec run directly through :func:`sweep`. Jobs pass admission
    control (``max_queue_depth`` shedding with ``429``/``Retry-After``,
    ``client_quota`` per client) and execute ``max_inflight`` at a time
    against the :class:`SharedResultCache` rooted at ``cache``, so
    concurrent clients requesting overlapping cells trigger exactly one
    computation per cell.

    Pure stdlib: the built-in asyncio HTTP server, nothing to install.
    Equivalent CLI: ``python -m repro serve``. For programmatic/in-process
    use, instantiate :class:`repro.server.ReproServer` directly.
    """
    from repro.server import app as server_app

    server_app.run(host=host, port=port, cache=cache,
                   max_inflight=max_inflight,
                   max_queue_depth=max_queue_depth,
                   client_quota=client_quota,
                   ready=lambda url: print(f"repro server listening on "
                                           f"{url} (Ctrl-C to stop)"))
