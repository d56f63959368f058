"""Multi-host sweeps over a shared work directory.

:class:`~repro.engine.runner.SweepRunner` runs a sweep on one host, in
its own process or on a fork pool. This module takes the same
:class:`~repro.engine.runner.WorkUnit`\\ s past one machine. A *work
directory* on a shared filesystem is a manifest over a result cache:
:func:`scatter` writes the spec, the code-version salt and the unit size
to ``spec.json``; :func:`work` and :func:`gather` derive the units from
it with :func:`~repro.engine.runner.shard_jobs`. A unit is keyed by its
content (:attr:`WorkUnit.key <repro.engine.runner.WorkUnit.key>`) and
claimed, stored and read through the directory's
:class:`~repro.engine.cache.SharedResultCache` exactly like a cell, so
any host can :func:`work` units, and :func:`gather` reassembles the
:class:`~repro.engine.runner.SweepResult` in spec order, bit-identical
to a ``SweepRunner`` run of the same spec (the determinism tests in
``tests/test_dist.py`` pin this end to end).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.engine.cache import (
    CLAIM_ACQUIRED,
    SharedResultCache,
    code_version_salt,
)
from repro.engine.runner import (
    HOW_DEDUP,
    HOW_HIT,
    HOW_RUN,
    CellResult,
    JobOutcome,
    ProgressFn,
    SweepReport,
    SweepResult,
    SweepRunner,
    WorkUnit,
    _execute_unit,
    _worker_id,
    outcome_of,
    run_job_shared,
    shard_jobs,
)
from repro.engine.spec import SweepSpec
from repro.errors import CacheError
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["DistSweepRunner", "gather", "run_job_shared", "scatter",
           "work", "work_dir_cache"]

#: The one sweep runner under its earlier name.
DistSweepRunner = SweepRunner


# ---------------------------------------------------------------------------
# Multi-host execution via a filesystem-backed work directory
# ---------------------------------------------------------------------------
#
# Layout of a work directory (any shared filesystem):
#
#     <work_dir>/spec.json   the manifest: spec, salt and unit size
#     <work_dir>/cache/      the SharedResultCache root: every cell and
#                            every finished unit's record
#
# scatter() writes the manifest; any number of work() loops — on any
# host — claim units through the shared cache and store their records;
# gather() reads the records back and reassembles the SweepResult.


def _units(work_path: pathlib.Path) -> Tuple[SweepSpec, List[WorkUnit]]:
    """A work directory's spec and units, refused when another code
    version scattered it (another salt, or a manifest without a unit
    size): its cells and unit records were computed, and written, by
    that version."""
    manifest = json.loads((work_path / "spec.json").read_text())
    if (manifest.get("salt") != code_version_salt()
            or "batch_size" not in manifest):
        raise CacheError(
            f"{work_path} was scattered by another code version (salt "
            f"{manifest.get('salt')}, this code {code_version_salt()}): "
            f"scatter the sweep again")
    spec = SweepSpec.from_payload(manifest["spec"])
    jobs = spec.expand()
    return spec, shard_jobs(jobs, range(len(jobs)), 1,
                            manifest["batch_size"])


def work_dir_cache(work_dir: "os.PathLike[str] | str") -> SharedResultCache:
    """The shared cache a work directory's workers all talk to."""
    return SharedResultCache(root=pathlib.Path(work_dir) / "cache")


def scatter(spec: SweepSpec, work_dir: "os.PathLike[str] | str",
            workers: int = 2, batch_size: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> List[WorkUnit]:
    """Write ``spec`` into a work directory, sharded into units.

    Every cell is scattered (workers serve cached cells instantly via
    the shared cache, so pre-filtering here would only hide the hit
    accounting from the report). Returns the units the directory holds.
    """
    work_path = pathlib.Path(work_dir)
    work_path.mkdir(parents=True, exist_ok=True)
    jobs = spec.expand()
    units = shard_jobs(jobs, range(len(jobs)), workers, batch_size)
    (work_path / "spec.json").write_text(json.dumps({
        "spec": spec.to_payload(),
        "salt": code_version_salt(),
        # The resolved unit size: the first unit is always a full one.
        "batch_size": units[0].cells if units else 1,
    }, indent=2))
    if tracer is not None and tracer.enabled:
        for unit in units:
            tracer.shard_event(phase="scatter", shard=unit.index,
                               cells=unit.cells)
    return units


def work(work_dir: "os.PathLike[str] | str",
         max_units: Optional[int] = None,
         progress: Optional[ProgressFn] = None,
         tracer: Optional[Tracer] = None) -> int:
    """Execute scattered units — callable from any host that sees
    ``work_dir``. Returns the number of units this call executed.

    A unit is claimed like a cell (:meth:`SharedResultCache.try_claim`),
    so concurrent ``work()`` loops (local or remote) split the units
    between them and skip finished ones; a unit that raises is
    abandoned, and a crashed worker's unit claim expires like any cell
    claim, so the next ``work()`` runs the unit again (its finished
    cells are served from the shared cache, so nothing is recomputed).
    """
    work_path = pathlib.Path(work_dir)
    _, units = _units(work_path)
    cache = work_dir_cache(work_path)
    tracer = tracer if tracer is not None else NULL_TRACER
    executed = 0
    for unit in units:
        if max_units is not None and executed >= max_units:
            break
        status, token = cache.try_claim(unit)
        if status != CLAIM_ACQUIRED:
            continue  # finished, or another live worker owns it
        if tracer.enabled:
            tracer.shard_event(phase="begin", shard=unit.index,
                               worker=_worker_id(), cells=unit.cells)
        try:
            done = _execute_unit(unit, cache)
        except BaseException:
            cache.abandon(unit, token)
            raise
        cache.store_and_release(unit, {
            "worker": done.worker,
            "seconds": done.seconds,
            "cells": [[cell.how, cell.seconds, cell.payload]
                      for cell in done.cells],
        }, token)
        executed += 1
        done.trace_end(tracer)
        if progress is not None:
            progress(f"unit {unit.index}: {done.count(HOW_RUN)} run, "
                     f"{done.count(HOW_HIT)} hit, "
                     f"{done.count(HOW_DEDUP)} in-flight "
                     f"({done.seconds:.2f}s)")
    return executed


def gather(work_dir: "os.PathLike[str] | str") -> SweepResult:
    """Reassemble a scattered sweep's :class:`SweepResult` in spec order.

    Raises :class:`~repro.errors.CacheError` naming the missing units if
    any worker has not finished yet. A unit record that does not decode
    is invalidated by the cache, so it counts as missing and the next
    ``work()`` runs the unit again.
    """
    work_path = pathlib.Path(work_dir)
    spec, units = _units(work_path)
    cache = work_dir_cache(work_path)
    outcomes: List[JobOutcome] = []
    missing = []
    worker_cells: Dict[str, int] = {}
    deduped = 0
    wall = 0.0
    # The units partition the spec's cells in order, so appending each
    # unit's cells, placed by their position in it, keeps spec order.
    for unit in units:
        record = cache.load(unit)
        if record is None:
            missing.append(unit.index)
            continue
        wall = max(wall, record["seconds"])
        for (index, job), (how, seconds, payload) in zip(unit.items,
                                                         record["cells"]):
            deduped += how == HOW_DEDUP
            if how == HOW_RUN:
                worker = record["worker"]
                worker_cells[worker] = worker_cells.get(worker, 0) + 1
            outcomes.append(outcome_of(
                job, CellResult(index, payload, how, seconds)))
    if missing:
        raise CacheError(
            f"gather({work_path}): {len(missing)} unit(s) not finished "
            f"yet: {missing[:8]}{'...' if len(missing) > 8 else ''}")
    report = SweepReport.of(outcomes, worker_cells, deduped, 0, wall)
    return SweepResult(spec=spec, outcomes=outcomes, report=report)
