"""Sweep engine with content-addressed result caching.

The execution substrate under every experiment harness, both CLIs and
the HTTP server:

* :class:`~repro.engine.spec.SweepSpec` — a declarative workloads x
  protocols x configs product, expanded into picklable
  :class:`~repro.engine.spec.JobSpec` cells in a canonical order;
* :class:`~repro.engine.cache.SharedResultCache` — a content-addressed
  on-disk JSON cache of completed cells (keyed by workload + protocol +
  ``GPUConfig`` fields + scheduler, salted with a code-version digest),
  safe for concurrent processes and hosts through a claim/lease protocol
  that computes each cell once;
* :class:`~repro.engine.runner.SweepRunner` — the one runner: serves
  cached cells, runs the rest in-process or, with ``workers > 1``, as
  contiguous work units on a ``fork`` pool, and aggregates results
  deterministically in spec order with a
  :class:`~repro.engine.runner.SweepReport`. ``cache=None`` means no
  cache;
* :mod:`repro.engine.dist` — scatter/work/gather of the same work units
  across hosts through a shared work directory: a ``spec.json`` manifest
  the units are derived from, and a ``cache/`` in which each unit is
  claimed, stored and read under its content key, like a cell.

Typical use goes through the :mod:`repro.api` facade::

    from repro.api import sweep
    result = sweep(workloads=("square", "bfs"), workers=4)
    print(result.report.summary())
"""

from repro.engine.cache import (
    CacheStats,
    ResultCache,
    SharedResultCache,
    code_version_salt,
    default_cache_dir,
)
from repro.engine.dist import gather, scatter, work
from repro.engine.jobs import CancelToken
from repro.engine.runner import (
    JobOutcome,
    SweepReport,
    SweepResult,
    SweepRunner,
    WorkUnit,
    resolve_jobs,
    run_job_shared,
    shard_jobs,
)
from repro.engine.spec import (
    DEFAULT_PROTOCOLS,
    DEFAULT_SCALE,
    JobSpec,
    SweepSpec,
    build_for_job,
    workload_label,
)

__all__ = [
    "CacheStats",
    "CancelToken",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_SCALE",
    "JobOutcome",
    "JobSpec",
    "ResultCache",
    "SharedResultCache",
    "SweepReport",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "WorkUnit",
    "build_for_job",
    "code_version_salt",
    "default_cache_dir",
    "gather",
    "resolve_jobs",
    "run_job_shared",
    "scatter",
    "shard_jobs",
    "work",
    "workload_label",
]
