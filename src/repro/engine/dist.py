"""Multi-host sweeps over a shared work directory.

:class:`~repro.engine.runner.SweepRunner` runs a sweep on one host, in
its own process or on a fork pool. This module takes the same
:class:`~repro.engine.runner.WorkUnit`\\ s past one machine:
:func:`scatter` serializes a spec and its units as JSON into a *work
directory* on a shared filesystem, :func:`work` lets any host
claim and execute units against the directory's
:class:`~repro.engine.cache.SharedResultCache`, and :func:`gather`
reassembles the :class:`~repro.engine.runner.SweepResult` in spec order,
bit-identical to a ``SweepRunner`` run of the same spec (the
determinism tests in ``tests/test_dist.py`` pin this end to end).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional

from repro.engine.cache import SharedResultCache, code_version_salt
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
from repro.obs.tracer import Tracer

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
#     <work_dir>/spec.json            the sweep manifest
#     <work_dir>/units/unit-*.json    scattered work units (JSON JobSpecs)
#     <work_dir>/results/unit-*.json  unit results (each cell's record)
#     <work_dir>/cache/               the SharedResultCache root
#
# scatter() writes the first two; any number of work() loops — on any
# host — claim units through the shared cache's claim machinery and
# write results; gather() reassembles the SweepResult in spec order.


def _unit_file(work_dir: pathlib.Path, unit_index: int) -> pathlib.Path:
    return work_dir / "units" / f"unit-{unit_index:04d}.json"


def _result_file(work_dir: pathlib.Path, unit_index: int) -> pathlib.Path:
    return work_dir / "results" / f"unit-{unit_index:04d}.json"


def _read_manifest(work_path: pathlib.Path) -> Dict[str, Any]:
    """A work directory's manifest, refused when another code version
    scattered it: its cells and unit results were computed, and their
    records written, by that version."""
    manifest = json.loads((work_path / "spec.json").read_text())
    if manifest["salt"] != code_version_salt():
        raise CacheError(
            f"{work_path} was scattered by another code version (salt "
            f"{manifest['salt']}, this code {code_version_salt()}): "
            f"scatter the sweep again")
    return manifest


def work_dir_cache(work_dir: "os.PathLike[str] | str") -> SharedResultCache:
    """The shared cache a work directory's workers all talk to."""
    return SharedResultCache(root=pathlib.Path(work_dir) / "cache")


def scatter(spec: SweepSpec, work_dir: "os.PathLike[str] | str",
            workers: int = 2, batch_size: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> List[WorkUnit]:
    """Serialize ``spec`` into a work directory as numbered units.

    Every cell is scattered (workers serve cached cells instantly via
    the shared cache, so pre-filtering here would only hide the hit
    accounting from the report). Returns the units written.
    """
    work_path = pathlib.Path(work_dir)
    (work_path / "units").mkdir(parents=True, exist_ok=True)
    (work_path / "results").mkdir(parents=True, exist_ok=True)
    cache = work_dir_cache(work_path)
    jobs = spec.expand()
    units = shard_jobs(jobs, list(range(len(jobs))), workers, batch_size)
    (work_path / "spec.json").write_text(json.dumps({
        "spec": spec.to_payload(),
        "salt": cache.salt,
        "units": len(units),
    }, indent=2))
    for unit in units:
        _unit_file(work_path, unit.index).write_text(
            json.dumps(unit.to_payload()))
        if tracer is not None and tracer.enabled:
            tracer.shard_event(phase="scatter", shard=unit.index,
                               cells=unit.cells)
    return units


def work(work_dir: "os.PathLike[str] | str",
         max_units: Optional[int] = None,
         progress: Optional[ProgressFn] = None,
         tracer: Optional[Tracer] = None) -> int:
    """Execute scattered units — callable from any host that sees
    ``work_dir``. Returns the number of units this call executed.

    Unit ownership reuses the claim machinery: a worker exclusively
    creates ``results/unit-*.json.claim`` before executing a unit, so
    concurrent ``work()`` loops (local or remote) split the units
    between them; a crashed worker's unit claim expires like any cell
    claim and the unit is re-executed (its cells are served from the
    shared cache, so nothing is recomputed).
    """
    work_path = pathlib.Path(work_dir)
    manifest = _read_manifest(work_path)
    cache = work_dir_cache(work_path)
    executed = 0
    for unit_index in range(manifest["units"]):
        if max_units is not None and executed >= max_units:
            break
        result_path = _result_file(work_path, unit_index)
        if result_path.exists():
            continue
        claim_path = result_path.with_suffix(".json.claim")
        if not cache._write_claim(claim_path, cache._claim_token()):
            claim = cache._read_claim(claim_path)
            if claim is not None and not cache._claim_expired(claim):
                continue  # another live worker owns this unit
            # Vanished or expired claim: take it over atomically — the
            # token compare-and-swap in _reclaim_expired prevents two
            # workers from re-executing the same unit.
            if claim is not None and \
                    not cache._reclaim_expired(claim_path, claim):
                continue
            if not cache._write_claim(claim_path, cache._claim_token()):
                continue
        unit = WorkUnit.from_payload(
            json.loads(_unit_file(work_path, unit_index).read_text()))
        if tracer is not None and tracer.enabled:
            tracer.shard_event(phase="begin", shard=unit.index,
                               worker=_worker_id(), cells=unit.cells)
        unit_result = _execute_unit(unit, cache)
        tmp = result_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps({
            "unit_index": unit_result.unit_index,
            "worker": unit_result.worker,
            "seconds": unit_result.seconds,
            "cells": [{
                "index": cell.index,
                "how": cell.how,
                "seconds": cell.seconds,
                "payload": cell.payload,
            } for cell in unit_result.cells],
        }, separators=(",", ":")))
        tmp.replace(result_path)
        claim_path.unlink(missing_ok=True)
        executed += 1
        counts = {how: unit_result.count(how)
                  for how in (HOW_RUN, HOW_HIT, HOW_DEDUP)}
        if tracer is not None and tracer.enabled:
            tracer.shard_event(phase="end", shard=unit.index,
                               worker=unit_result.worker,
                               cells=unit.cells,
                               executed=counts[HOW_RUN],
                               hits=counts[HOW_HIT],
                               deduped=counts[HOW_DEDUP],
                               seconds=unit_result.seconds)
        if progress is not None:
            progress(f"unit {unit_index}: {counts[HOW_RUN]} run, "
                     f"{counts[HOW_HIT]} hit, "
                     f"{counts[HOW_DEDUP]} in-flight "
                     f"({unit_result.seconds:.2f}s)")
    return executed


def gather(work_dir: "os.PathLike[str] | str") -> SweepResult:
    """Reassemble a scattered sweep's :class:`SweepResult` in spec order.

    Raises :class:`~repro.errors.CacheError` naming the missing units if
    any worker has not finished yet.
    """
    work_path = pathlib.Path(work_dir)
    manifest = _read_manifest(work_path)
    spec = SweepSpec.from_payload(manifest["spec"])
    jobs = spec.expand()
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    missing = []
    worker_cells: Dict[str, int] = {}
    deduped = 0
    wall = 0.0
    for unit_index in range(manifest["units"]):
        result_path = _result_file(work_path, unit_index)
        if not result_path.exists():
            missing.append(unit_index)
            continue
        try:
            document = json.loads(result_path.read_bytes())
        except ValueError:
            # A corrupt unit result (not UTF-8, or not JSON): remove it,
            # so the next work() runs the unit again from the cache.
            result_path.unlink(missing_ok=True)
            missing.append(unit_index)
            continue
        wall = max(wall, document["seconds"])
        for cell in document["cells"]:
            index, how = cell["index"], cell["how"]
            deduped += how == HOW_DEDUP
            if how == HOW_RUN:
                worker = document["worker"]
                worker_cells[worker] = worker_cells.get(worker, 0) + 1
            outcomes[index] = outcome_of(jobs[index], CellResult(
                index, cell["payload"], how, cell["seconds"]))
    if missing:
        raise CacheError(
            f"gather({work_path}): {len(missing)} unit(s) not finished "
            f"yet: {missing[:8]}{'...' if len(missing) > 8 else ''}")
    done = [o for o in outcomes if o is not None]
    assert len(done) == len(jobs)
    report = SweepReport.of(done, worker_cells, deduped, 0, wall)
    return SweepResult(spec=spec, outcomes=done, report=report)
