"""Throughput benchmark: batched run-based trace path vs per-line path.

The run-based trace path (``trace_path="run"``) replaces the simulator's
per-line protocol walk with interval (``LineRun``) traces served by bulk
cache/protocol operations. It is required to be *bit-identical* to the
per-line reference — ``tests/test_batched_equivalence.py`` is the
referee — so its only observable difference is wall-clock time. This
module measures that difference and emits a machine-readable report
(``BENCH_trace.json``).

Sweep composition: the **partitioned sweep** — every Table II workload
whose kernels access *only* ``PatternKind.PARTITIONED`` data structures
(the regular GPGPU case the batched path targets) with moderate-to-high
inter-kernel reuse, plus the multi-stream ``streams`` benchmark, under
the paper's protocol (``cpelide``) and its elision upper bound
(``nosync``), on 4 chiplets, single process (``jobs=1``).

Methodology: each (workload, protocol) cell simulates both trace paths
``repeats`` times in interleaved order (to decorrelate machine-load
drift) and keeps the fastest wall time of each. Every repetition also
re-asserts bit-identity of ``SimulationResult.to_dict()`` between the
two paths, so a benchmark run doubles as an end-to-end equivalence
check.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, OracleDivergence
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.gpu.trace_path import TracePath
from repro.workloads.suite import build_workload

#: Table II workloads whose every kernel argument is PARTITIONED and that
#: have moderate-to-high inter-kernel reuse, plus the multi-stream
#: ``streams`` benchmark (also pure-partitioned).
PARTITIONED_SWEEP: List[str] = [
    "babelstream", "backprop", "gaussian", "lud", "square", "streams",
]

#: The paper's protocol and its sync-elision upper bound.
BENCH_PROTOCOLS: List[str] = ["cpelide", "nosync"]

#: Iterative Table II workloads (frontier loops, timestep recurrences,
#: stencil sweeps) — the kernels the memo trace path targets: each
#: re-dispatches the same kernels over stable or cyclic state, so later
#: repetitions replay from the memo store instead of re-walking traces.
ITERATIVE_SWEEP: List[str] = [
    "bfs", "sssp", "rnn-gru-small", "hotspot", "srad", "pathfinder",
]

#: Default simulation scales: the full bench uses larger caches (longer
#: runs amortize per-set framing, matching the regime the paper targets);
#: ``--quick`` trades fidelity for CI latency.
FULL_SCALE = 1 / 4
QUICK_SCALE = 1 / 16

#: Worker counts the distributed scaling bench sweeps.
DIST_WORKER_COUNTS = (1, 2, 4, 8)


class EquivalenceError(OracleDivergence):
    """The two trace paths produced different simulation results."""


def bench_environment() -> Dict:
    """Environment metadata stamped into every ``BENCH_*.json``.

    Perf numbers are only comparable within one environment; the stamp
    (python/numpy versions, CPU count, platform, and a short hostname
    hash — the name itself stays private) lets trajectory tooling and
    ``--check`` tell a regression from a machine change.
    """
    import hashlib
    import os
    import socket

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a test dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "hostname_hash": hashlib.blake2b(
            socket.gethostname().encode(), digest_size=4).hexdigest(),
    }


def compare_environments(report: Dict, reference: Dict) -> List[str]:
    """Differences between two bench reports' environment stamps.

    Returns human-readable mismatch descriptions (empty = comparable).
    A reference predating the stamps compares as one mismatch, so old
    trajectories warn instead of silently mixing machines.
    """
    env = report.get("meta", {}).get("environment")
    ref = reference.get("meta", {}).get("environment")
    if not env:
        return []
    if not ref:
        return ["reference report carries no environment metadata "
                "(predates the stamp)"]
    diffs = []
    for key in ("python", "numpy", "cpu_count", "platform",
                "hostname_hash"):
        if env.get(key) != ref.get(key):
            diffs.append(f"{key}: {ref.get(key)!r} -> {env.get(key)!r}")
    return diffs


def _time_cell(config: GPUConfig, workload_name: str, protocol: str,
               trace_path: TracePath) -> Tuple[float, int, dict]:
    """Simulate one cell; return (wall seconds, trace lines, result dict)."""
    sim = Simulator(config, protocol=protocol, trace_path=trace_path)
    workload = build_workload(workload_name, config)
    t0 = time.perf_counter()
    result = sim.run(workload)
    dt = time.perf_counter() - t0
    return dt, sim.last_trace_lines, result.to_dict()


def run_bench(scale: float = FULL_SCALE, chiplets: int = 4,
              repeats: int = 3,
              workloads: Optional[Sequence[str]] = None,
              protocols: Optional[Sequence[str]] = None,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the line-vs-run sweep and return the report dictionary."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    workloads = list(workloads) if workloads else list(PARTITIONED_SWEEP)
    protocols = list(protocols) if protocols else list(BENCH_PROTOCOLS)
    config = GPUConfig(num_chiplets=chiplets, scale=scale)
    cells: List[Dict] = []
    agg_line = agg_run = 0.0
    agg_lines = 0
    for protocol in protocols:
        for workload in workloads:
            line_best = run_best = float("inf")
            lines = 0
            for rep in range(repeats):
                dt_l, n_l, d_l = _time_cell(config, workload, protocol,
                                            TracePath.LINE)
                dt_r, n_r, d_r = _time_cell(config, workload, protocol,
                                            TracePath.RUN)
                if d_l != d_r or n_l != n_r:
                    raise EquivalenceError(
                        f"trace paths diverged: {workload}/{protocol} "
                        f"(scale {scale:g}, rep {rep})")
                line_best = min(line_best, dt_l)
                run_best = min(run_best, dt_r)
                lines = n_l
            cells.append({
                "workload": workload,
                "protocol": protocol,
                "lines": lines,
                "line_seconds": round(line_best, 6),
                "run_seconds": round(run_best, 6),
                "speedup": round(line_best / run_best, 3),
                "line_lines_per_sec": round(lines / line_best, 1),
                "run_lines_per_sec": round(lines / run_best, 1),
                "identical": True,
            })
            agg_line += line_best
            agg_run += run_best
            agg_lines += lines
            if progress is not None:
                progress(f"  {workload}/{protocol}: line {line_best:.3f}s, "
                         f"run {run_best:.3f}s "
                         f"({line_best / run_best:.1f}x)")
    report = {
        "benchmark": "batched run-based trace path vs per-line trace path",
        "sweep": "partitioned" if workloads == PARTITIONED_SWEEP else "custom",
        "meta": {
            "scale": scale,
            "chiplets": chiplets,
            "repeats": repeats,
            "jobs": 1,
            "workloads": workloads,
            "protocols": protocols,
            "python": platform.python_version(),
            "environment": bench_environment(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "cells": cells,
        "aggregate": {
            "lines": agg_lines,
            "line_seconds": round(agg_line, 6),
            "run_seconds": round(agg_run, 6),
            "speedup": round(agg_line / agg_run, 3),
            "line_lines_per_sec": round(agg_lines / agg_line, 1),
            "run_lines_per_sec": round(agg_lines / agg_run, 1),
        },
    }
    return report


def _time_cell_memo(config: GPUConfig, workload_name: str,
                    protocol: str) -> Tuple[float, int, dict,
                                            Tuple[int, int]]:
    """Simulate one cell on the memo path; also return its
    (hits, misses) counters."""
    sim = Simulator(config, protocol=protocol, trace_path=TracePath.MEMO)
    workload = build_workload(workload_name, config)
    t0 = time.perf_counter()
    result = sim.run(workload)
    dt = time.perf_counter() - t0
    return (dt, sim.last_trace_lines, result.to_dict(),
            (result.memo_hits, result.memo_misses))


def run_memo_bench(scale: float = FULL_SCALE, chiplets: int = 4,
                   repeats: int = 3,
                   workloads: Optional[Sequence[str]] = None,
                   protocols: Optional[Sequence[str]] = None,
                   progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the memo-vs-run sweep and return the report dictionary.

    Same methodology as :func:`run_bench`, with the memo store cleared
    up front so the report is reproducible: each cell runs one untimed
    recording repetition that populates the store (miss-run), then
    ``repeats`` timed repetitions that replay from it (hit-runs) —
    exactly the bench/engine repeat pattern the memo path exists for.
    Timing the recording rep would leave the memo side one warm sample
    short of the run side under best-of-``repeats``. Every repetition,
    including the untimed one, re-asserts bit-identity against the run
    path.
    """
    from repro.gpu.memo import clear_memo_stores

    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    workloads = list(workloads) if workloads else list(ITERATIVE_SWEEP)
    protocols = list(protocols) if protocols else list(BENCH_PROTOCOLS)
    config = GPUConfig(num_chiplets=chiplets, scale=scale)
    clear_memo_stores()
    # Intern the seeded traces once up front so both paths' timings
    # measure simulation, not RNG sampling.
    from repro.workloads.suite import prewarm_traces
    prewarm_traces(workloads, config)
    cells: List[Dict] = []
    agg_run = agg_memo = 0.0
    agg_lines = 0
    for protocol in protocols:
        for workload in workloads:
            run_best = memo_best = float("inf")
            lines = 0
            counters = (0, 0)
            # Untimed recording rep: populates the memo store so every
            # timed rep below measures the warm (replay) path.
            _, n_w, d_w, _ = _time_cell_memo(config, workload, protocol)
            for rep in range(repeats):
                dt_r, n_r, d_r = _time_cell(config, workload, protocol,
                                            TracePath.RUN)
                dt_m, n_m, d_m, counters = _time_cell_memo(
                    config, workload, protocol)
                if rep == 0 and (d_w != d_r or n_w != n_r):
                    raise EquivalenceError(
                        f"memo recording rep diverged from run path: "
                        f"{workload}/{protocol} (scale {scale:g})")
                if d_r != d_m or n_r != n_m:
                    raise EquivalenceError(
                        f"memo path diverged from run path: "
                        f"{workload}/{protocol} (scale {scale:g}, "
                        f"rep {rep})")
                run_best = min(run_best, dt_r)
                memo_best = min(memo_best, dt_m)
                lines = n_r
            hits, misses = counters
            cells.append({
                "workload": workload,
                "protocol": protocol,
                "lines": lines,
                "run_seconds": round(run_best, 6),
                "memo_seconds": round(memo_best, 6),
                "speedup": round(run_best / memo_best, 3),
                "memo_hits": hits,
                "memo_misses": misses,
                "identical": True,
            })
            agg_run += run_best
            agg_memo += memo_best
            agg_lines += lines
            if progress is not None:
                progress(f"  {workload}/{protocol}: run {run_best:.3f}s, "
                         f"memo {memo_best:.3f}s "
                         f"({run_best / memo_best:.1f}x; "
                         f"{hits}h/{misses}m)")
    report = {
        "benchmark": "kernel-outcome memoization vs batched run path",
        "sweep": "iterative" if workloads == ITERATIVE_SWEEP else "custom",
        "meta": {
            "scale": scale,
            "chiplets": chiplets,
            "repeats": repeats,
            "jobs": 1,
            "workloads": workloads,
            "protocols": protocols,
            "python": platform.python_version(),
            "environment": bench_environment(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "cells": cells,
        "aggregate": {
            "lines": agg_lines,
            "run_seconds": round(agg_run, 6),
            "memo_seconds": round(agg_memo, 6),
            "speedup": round(agg_run / agg_memo, 3),
            "run_lines_per_sec": round(agg_lines / agg_run, 1),
            "memo_lines_per_sec": round(agg_lines / agg_memo, 1),
        },
    }
    return report


def _time_cell_traced(config: GPUConfig, workload_name: str,
                      protocol: str) -> Tuple[float, int, dict, int]:
    """Simulate one cell with a recording :class:`EventTracer` attached;
    also return the number of events captured."""
    from repro.obs import EventTracer

    tracer = EventTracer()
    sim = Simulator(config, protocol=protocol, trace_path=TracePath.RUN,
                    tracer=tracer)
    workload = build_workload(workload_name, config)
    t0 = time.perf_counter()
    result = sim.run(workload)
    dt = time.perf_counter() - t0
    return dt, sim.last_trace_lines, result.to_dict(), len(tracer.events)


def run_obs_bench(scale: float = FULL_SCALE, chiplets: int = 4,
                  repeats: int = 3,
                  workloads: Optional[Sequence[str]] = None,
                  protocols: Optional[Sequence[str]] = None,
                  progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the tracing-overhead sweep and return the report dictionary.

    Two variants per cell, interleaved like :func:`run_bench`: the
    default *disabled* tracer (``NULL_TRACER`` — the production
    configuration, timed as ``null_seconds``) and a recording :class:`~repro.obs.EventTracer`
    (``traced_seconds``). Every repetition asserts the traced run's
    serialized result is bit-identical to the untraced one, so the bench
    doubles as the tracer-purity differential check.

    The aggregate also carries ``run_seconds`` (an alias of the
    disabled-tracer total) so :func:`check_obs_overhead` can compare it
    against a ``BENCH_trace.json`` report timed on the same machine.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    workloads = list(workloads) if workloads else list(PARTITIONED_SWEEP)
    protocols = list(protocols) if protocols else list(BENCH_PROTOCOLS)
    config = GPUConfig(num_chiplets=chiplets, scale=scale)
    cells: List[Dict] = []
    agg_null = agg_traced = 0.0
    agg_lines = agg_events = 0
    for protocol in protocols:
        for workload in workloads:
            null_best = traced_best = float("inf")
            lines = events = 0
            for rep in range(repeats):
                dt_n, n_n, d_n = _time_cell(config, workload, protocol,
                                            TracePath.RUN)
                dt_t, n_t, d_t, events = _time_cell_traced(
                    config, workload, protocol)
                if d_n != d_t or n_n != n_t:
                    raise EquivalenceError(
                        f"tracer perturbed the simulation: "
                        f"{workload}/{protocol} (scale {scale:g}, "
                        f"rep {rep})")
                null_best = min(null_best, dt_n)
                traced_best = min(traced_best, dt_t)
                lines = n_n
            cells.append({
                "workload": workload,
                "protocol": protocol,
                "lines": lines,
                "events": events,
                "null_seconds": round(null_best, 6),
                "traced_seconds": round(traced_best, 6),
                "traced_overhead": round(traced_best / null_best - 1.0, 4),
                "identical": True,
            })
            agg_null += null_best
            agg_traced += traced_best
            agg_lines += lines
            agg_events += events
            if progress is not None:
                progress(f"  {workload}/{protocol}: null {null_best:.3f}s, "
                         f"traced {traced_best:.3f}s "
                         f"({traced_best / null_best - 1.0:+.1%}, "
                         f"{events} events)")
    report = {
        "benchmark": "tracing overhead: disabled (null) vs recording tracer",
        "sweep": "partitioned" if workloads == PARTITIONED_SWEEP else "custom",
        "meta": {
            "scale": scale,
            "chiplets": chiplets,
            "repeats": repeats,
            "jobs": 1,
            "workloads": workloads,
            "protocols": protocols,
            "python": platform.python_version(),
            "environment": bench_environment(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "cells": cells,
        "aggregate": {
            "lines": agg_lines,
            "events": agg_events,
            "null_seconds": round(agg_null, 6),
            "run_seconds": round(agg_null, 6),
            "traced_seconds": round(agg_traced, 6),
            "traced_overhead": round(agg_traced / agg_null - 1.0, 4),
        },
    }
    return report


def check_obs_overhead(report: Dict, reference: Dict,
                       tolerance: float = 0.02) -> Tuple[bool, str]:
    """Compare the obs bench's disabled-tracer aggregate against a
    line-vs-run bench report's run-path aggregate.

    Returns ``(ok, message)``. Both aggregates time the same program
    (:func:`_time_cell` on the run path under ``NULL_TRACER``), so the
    check bounds host drift between the two sweeps; it does not measure
    what the tracer hooks cost, which needs a reference run without
    them. It only means something when both sweeps timed the same
    simulations on the same machine, so a reference with different
    scale/chiplets/workloads/protocols passes vacuously with an
    explanatory message instead of failing.
    """
    ref_meta, meta = reference.get("meta", {}), report["meta"]
    for key in ("scale", "chiplets", "workloads", "protocols"):
        if ref_meta.get(key) != meta[key]:
            return True, (f"obs overhead check skipped: reference {key} "
                          f"{ref_meta.get(key)!r} does not match "
                          f"{meta[key]!r}")
    ref_seconds = reference["aggregate"]["run_seconds"]
    null_seconds = report["aggregate"]["null_seconds"]
    overhead = null_seconds / ref_seconds - 1.0
    message = (f"disabled-tracer aggregate {null_seconds:.3f}s vs "
               f"reference run-path {ref_seconds:.3f}s: {overhead:+.2%} "
               f"(budget {tolerance:+.0%})")
    return overhead <= tolerance, message


def summarize_obs(report: Dict) -> str:
    """Human-readable summary of a tracing-overhead bench report."""
    rows = []
    for cell in report["cells"]:
        rows.append(f"  {cell['workload']:<14s} {cell['protocol']:<8s} "
                    f"null {cell['null_seconds']:7.3f}s  "
                    f"traced {cell['traced_seconds']:7.3f}s  "
                    f"{cell['traced_overhead']:+7.1%}  "
                    f"({cell['events']} events)")
    agg = report["aggregate"]
    meta = report["meta"]
    rows.append(
        f"aggregate (scale {meta['scale']:g}, {meta['chiplets']} chiplets, "
        f"best of {meta['repeats']}): "
        f"null {agg['null_seconds']:.2f}s, "
        f"traced {agg['traced_seconds']:.2f}s "
        f"-> {agg['traced_overhead']:+.1%} recording overhead "
        f"({agg['events']:,} events)")
    return "\n".join(rows)


def summarize_memo(report: Dict) -> str:
    """Human-readable summary of a memo bench report."""
    rows = []
    for cell in report["cells"]:
        rows.append(f"  {cell['workload']:<14s} {cell['protocol']:<8s} "
                    f"run {cell['run_seconds']:7.3f}s  "
                    f"memo {cell['memo_seconds']:7.3f}s  "
                    f"{cell['speedup']:5.1f}x  "
                    f"({cell['memo_hits']}h/{cell['memo_misses']}m)")
    agg = report["aggregate"]
    meta = report["meta"]
    rows.append(
        f"aggregate (scale {meta['scale']:g}, {meta['chiplets']} chiplets, "
        f"best of {meta['repeats']}): "
        f"run {agg['run_seconds']:.2f}s, memo {agg['memo_seconds']:.2f}s "
        f"-> {agg['speedup']:.2f}x "
        f"({agg['memo_lines_per_sec']:,.0f} lines/sec memoized)")
    return "\n".join(rows)


def write_report(report: Dict, path: str) -> None:
    """Write ``report`` as pretty-printed JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def summarize(report: Dict) -> str:
    """Human-readable summary of a bench report."""
    rows = []
    for cell in report["cells"]:
        rows.append(f"  {cell['workload']:<12s} {cell['protocol']:<8s} "
                    f"line {cell['line_seconds']:7.3f}s  "
                    f"run {cell['run_seconds']:7.3f}s  "
                    f"{cell['speedup']:5.1f}x")
    agg = report["aggregate"]
    meta = report["meta"]
    rows.append(
        f"aggregate (scale {meta['scale']:g}, {meta['chiplets']} chiplets, "
        f"best of {meta['repeats']}): "
        f"line {agg['line_seconds']:.2f}s, run {agg['run_seconds']:.2f}s "
        f"-> {agg['speedup']:.2f}x "
        f"({agg['run_lines_per_sec']:,.0f} lines/sec batched)")
    return "\n".join(rows)


def run_dist_bench(scale: float = QUICK_SCALE, chiplets: int = 4,
                   worker_counts: Sequence[int] = DIST_WORKER_COUNTS,
                   workloads: Optional[Sequence[str]] = None,
                   progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the distributed scaling sweep and return the report dictionary.

    The workload is the Pareto exploration *seed sweep* (see
    :func:`repro.experiments.explore.seed_spec`): the candidate design
    points at one chiplet count x the seed workloads x
    {baseline, cpelide}. An in-process uncached
    :class:`~repro.engine.runner.SweepRunner` run establishes the
    reference wall time and the reference result dicts; each worker
    count then executes the same sweep against a *fresh*
    :class:`~repro.engine.cache.SharedResultCache` (cold), re-asserting
    bit-identity against the reference every time. A final warm pass
    over the largest count's cache must report zero recomputes — the
    cross-process cache's whole point.

    Reported ``speedup`` is serial wall over distributed wall;
    ``efficiency`` normalizes it by the *usable* parallelism
    ``min(workers, cpu_count)``; the environment stamp records the
    ``cpu_count`` that normalized it. A host with fewer CPUs than the
    largest worker count still produces a report, but
    :func:`check_dist_scaling` refuses it.
    """
    import os
    import tempfile

    from repro.engine import SharedResultCache, SweepRunner
    from repro.experiments import explore

    workloads = (list(workloads) if workloads
                 else list(explore.DEFAULT_SEED_WORKLOADS))
    points = explore.design_points(chiplet_counts=(chiplets,),
                                   table_windows=(4, 8), l2_mb=(4, 8))
    spec = explore.seed_spec(points, scale, workloads)
    cpu_count = os.cpu_count() or 1

    t0 = time.perf_counter()
    serial = SweepRunner().run(spec)
    serial_seconds = time.perf_counter() - t0
    reference = serial.to_dicts()
    if progress is not None:
        progress(f"  serial reference: {len(reference)} cells, "
                 f"{serial_seconds:.3f}s")

    counts: List[Dict] = []
    last_root: Optional[str] = None
    with tempfile.TemporaryDirectory(prefix="repro-dist-bench-") as tmp:
        for workers in worker_counts:
            root = os.path.join(tmp, f"cache-w{workers}")
            t0 = time.perf_counter()
            result = SweepRunner(workers=workers,
                                 cache=SharedResultCache(root=root)).run(spec)
            wall = time.perf_counter() - t0
            if result.to_dicts() != reference:
                raise EquivalenceError(
                    f"distributed sweep diverged from serial reference "
                    f"({workers} workers, scale {scale:g})")
            report = result.report
            usable = min(workers, cpu_count)
            speedup = serial_seconds / wall
            counts.append({
                "workers": workers,
                "usable_workers": usable,
                "cells": report.total_jobs,
                "executed": report.executed,
                "cache_hits": report.cache_hits,
                "deduped": report.deduped,
                "per_worker_cells": list(report.per_worker_cells),
                "wall_seconds": round(wall, 6),
                "speedup": round(speedup, 3),
                "efficiency": round(speedup / usable, 3),
                "identical": True,
            })
            last_root = root
            if progress is not None:
                progress(f"  {workers} workers ({usable} usable): "
                         f"{wall:.3f}s ({speedup:.2f}x, "
                         f"eff {speedup / usable:.2f}); "
                         f"{report.summary().splitlines()[0]}")

        t0 = time.perf_counter()
        warm_result = SweepRunner(
            workers=worker_counts[-1],
            cache=SharedResultCache(root=last_root)).run(spec)
        warm_wall = time.perf_counter() - t0
        warm_report = warm_result.report
        if warm_result.to_dicts() != reference:
            raise EquivalenceError(
                f"warm distributed pass diverged from serial reference "
                f"(scale {scale:g})")
        if warm_report.executed:
            raise EquivalenceError(
                f"warm distributed pass recomputed "
                f"{warm_report.executed} cells; expected zero "
                f"(all {warm_report.total_jobs} served from the shared "
                f"cache)")
        if progress is not None:
            progress(f"  warm pass: {warm_wall:.3f}s, "
                     f"{warm_report.cache_hits} hits, 0 recomputed")

    best = min(counts, key=lambda c: c["wall_seconds"])
    report = {
        "benchmark": ("distributed sweep scaling: sharded workers over a "
                      "shared result cache vs serial"),
        "sweep": "explore-seed",
        "meta": {
            "scale": scale,
            "chiplets": chiplets,
            "jobs": 1,
            "worker_counts": list(worker_counts),
            "workloads": workloads,
            "protocols": list(explore.EXPLORE_PROTOCOLS),
            "design_points": [p.label for p in points],
            "cells": len(reference),
            "python": platform.python_version(),
            "environment": bench_environment(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "counts": counts,
        "warm": {
            "workers": worker_counts[-1],
            "wall_seconds": round(warm_wall, 6),
            "cache_hits": warm_report.cache_hits,
            "executed": warm_report.executed,
            "identical": True,
        },
        "aggregate": {
            "cells": len(reference),
            "serial_seconds": round(serial_seconds, 6),
            "best_wall_seconds": best["wall_seconds"],
            "best_workers": best["workers"],
            "max_speedup": max(c["speedup"] for c in counts),
            "max_efficiency": max(c["efficiency"] for c in counts),
            "warm_speedup": round(serial_seconds / warm_wall, 3),
        },
    }
    return report


def check_dist_scaling(report: Dict,
                       min_efficiency: float = 0.5) -> Tuple[bool, str]:
    """Gate a distributed scaling report.

    Refuses a report timed with fewer CPUs than its largest worker
    count: such a host cannot show scaling, so no efficiency from it
    passes. Otherwise passes when every worker count's scaling
    efficiency (speedup per *usable* worker — ``min(workers,
    cpu_count)``) meets ``min_efficiency``, the warm pass recomputed
    nothing, and every pass stayed bit-identical to the serial
    reference.
    """
    largest = max(report["counts"], key=lambda cell: cell["workers"])
    if largest["usable_workers"] < largest["workers"]:
        return False, (f"refused: cpu_count {largest['usable_workers']} "
                       f"is below the largest worker count "
                       f"{largest['workers']}, so this host cannot show "
                       f"scaling")
    problems = []
    for cell in report["counts"]:
        if not cell["identical"]:
            problems.append(f"{cell['workers']} workers: not bit-identical")
        if cell["efficiency"] < min_efficiency:
            problems.append(
                f"{cell['workers']} workers: efficiency "
                f"{cell['efficiency']:.2f} < {min_efficiency:.2f} "
                f"({cell['usable_workers']} usable, "
                f"{cell['speedup']:.2f}x)")
    warm = report["warm"]
    if warm["executed"]:
        problems.append(f"warm pass recomputed {warm['executed']} cells")
    if not warm["identical"]:
        problems.append("warm pass: not bit-identical")
    if problems:
        return False, "; ".join(problems)
    agg = report["aggregate"]
    return True, (f"scaling ok: max efficiency "
                  f"{agg['max_efficiency']:.2f} "
                  f"(>= {min_efficiency:.2f}) across "
                  f"{report['meta']['worker_counts']} workers, "
                  f"warm pass 0 recomputes "
                  f"({agg['warm_speedup']:.1f}x vs serial)")


def summarize_dist(report: Dict) -> str:
    """Human-readable summary of a distributed scaling report."""
    rows = []
    for cell in report["counts"]:
        per_worker = "/".join(str(n) for n in cell["per_worker_cells"])
        rows.append(f"  {cell['workers']:>2d} workers "
                    f"({cell['usable_workers']} usable): "
                    f"{cell['wall_seconds']:7.3f}s  "
                    f"{cell['speedup']:5.2f}x  "
                    f"eff {cell['efficiency']:4.2f}  "
                    f"({per_worker} cells)")
    warm = report["warm"]
    agg = report["aggregate"]
    meta = report["meta"]
    env = meta["environment"]
    rows.append(f"  warm pass ({warm['workers']} workers): "
                f"{warm['wall_seconds']:7.3f}s  "
                f"{warm['cache_hits']} hits, {warm['executed']} recomputed")
    rows.append(
        f"aggregate (scale {meta['scale']:g}, {meta['chiplets']} chiplets, "
        f"{agg['cells']} cells, {env['cpu_count']} CPUs): "
        f"serial {agg['serial_seconds']:.2f}s, "
        f"best {agg['best_wall_seconds']:.2f}s "
        f"@ {agg['best_workers']} workers "
        f"-> {agg['max_speedup']:.2f}x "
        f"(efficiency {agg['max_efficiency']:.2f}), "
        f"warm {agg['warm_speedup']:.1f}x")
    return "\n".join(rows)
