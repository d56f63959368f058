"""Throughput benchmarks: the trace paths timed against each other, and
distributed sweep scaling.

The simulator has three trace paths that must agree byte for byte: the
per-line reference (``line``), the batched run path (``run``: interval
``LineRun`` traces served by bulk cache/protocol operations) and the
memo path (``memo``: kernels recorded once, then replayed).
``tests/test_batched_equivalence.py`` is the referee, so a fast path's
only observable difference is wall-clock time. :func:`run_sweep`
measures it with one paired timing loop over three sweep definitions:

* :data:`TRACE_SWEEP` — line vs run on the **partitioned sweep**: every
  Table II workload whose kernels access *only*
  ``PatternKind.PARTITIONED`` data structures (the regular GPGPU case
  the batched path targets) with moderate-to-high inter-kernel reuse,
  plus the multi-stream ``streams`` benchmark (``BENCH_trace.json``).
* :data:`MEMO_SWEEP` — run vs memo on the **iterative sweep**
  (``BENCH_memo.json``).
* :data:`OBS_SWEEP` — the run path under the default disabled tracer
  (``NULL_TRACER``) vs a recording :class:`~repro.obs.EventTracer`, on
  the partitioned sweep (``BENCH_obs.json``).

Every sweep runs under the paper's protocol (``cpelide``) and its
elision upper bound (``nosync``), on 4 chiplets, single process
(``jobs=1``). Methodology: each (workload, protocol) cell simulates both
sides ``repeats`` times, alternating within each repetition (to
decorrelate machine-load drift), and keeps the fastest wall time of
each; only ``Simulator.run`` is timed. Every repetition, untimed ones
included, re-asserts that both sides give the same
``SimulationResult.to_dict()`` and trace-line count, so a benchmark run
doubles as an end-to-end equivalence check (and the obs sweep as the
tracer-purity check).

:func:`run_dist_bench` times the Pareto seed sweep serially and on
forked workers over a shared result cache (``BENCH_dist.json``).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, OracleDivergence
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.gpu.trace_path import TracePath
from repro.obs.tracer import EventTracer
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

#: Per-cell counters a side may report beside its timings, in this order: a
#: tracer's event count, and the kernels the memo path replayed and
#: recorded.
COUNTERS = ("events", "memo_hits", "memo_misses")


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


@dataclass(frozen=True)
class Side:
    """One timed side of a paired sweep: a trace path, with or without a
    recording :class:`~repro.obs.EventTracer` attached. ``name``
    prefixes the side's report columns (``<name>_seconds``, ...)."""

    name: str
    trace_path: TracePath
    traced: bool = False


@dataclass(frozen=True)
class PairedSweep:
    """A candidate side timed against a reference side on every
    (workload, protocol) cell."""

    #: Names the sweep in progress lines, errors and gate messages.
    label: str
    #: The report's ``benchmark`` line.
    benchmark: str
    #: The report's ``sweep`` name when it runs ``workloads``, its default.
    workload_set: str
    workloads: Tuple[str, ...]
    reference: Side
    candidate: Side
    #: Called as ``setup(workloads, config)`` before the first cell.
    setup: Optional[Callable[[Sequence[str], GPUConfig], None]] = None
    #: Untimed candidate repetitions per cell before the timed ones.
    warmups: int = 0
    #: Fewest timed repetitions per cell, whatever ``repeats`` asks.
    min_repeats: int = 1


def _fresh_memo_store(workloads: Sequence[str], config: GPUConfig) -> None:
    """Empty the memo store, so the report is reproducible, and intern
    the seeded traces, so both sides time simulation, not RNG sampling."""
    from repro.gpu.memo import clear_memo_stores
    from repro.workloads.suite import prewarm_traces

    clear_memo_stores()
    prewarm_traces(workloads, config)


TRACE_SWEEP = PairedSweep(
    label="line-vs-run",
    benchmark="batched run-based trace path vs per-line trace path",
    workload_set="partitioned", workloads=tuple(PARTITIONED_SWEEP),
    reference=Side("line", TracePath.LINE),
    candidate=Side("run", TracePath.RUN))

#: Each cell's one untimed recording repetition fills the store, so every
#: timed repetition measures the warm replay path the store exists for;
#: timing it would leave the memo side one warm sample short of the run
#: side under best-of-``repeats``.
MEMO_SWEEP = PairedSweep(
    label="memo-vs-run",
    benchmark="kernel-outcome memoization vs batched run path",
    workload_set="iterative", workloads=tuple(ITERATIVE_SWEEP),
    reference=Side("run", TracePath.RUN),
    candidate=Side("memo", TracePath.MEMO),
    setup=_fresh_memo_store, warmups=1, min_repeats=2)

OBS_SWEEP = PairedSweep(
    label="null-vs-traced",
    benchmark="tracing overhead: disabled (null) vs recording tracer",
    workload_set="partitioned", workloads=tuple(PARTITIONED_SWEEP),
    reference=Side("null", TracePath.RUN),
    candidate=Side("traced", TracePath.RUN, traced=True))

#: The paired sweeps by their ``bench --sweep`` name.
SWEEPS = {"trace": TRACE_SWEEP, "memo": MEMO_SWEEP, "obs": OBS_SWEEP}


def _time(config: GPUConfig, workload_name: str, protocol: str,
          side: Side) -> Tuple[float, int, dict, Dict[str, int]]:
    """Simulate one cell on one side; return (wall seconds of
    ``Simulator.run``, trace lines, result dict, counters)."""
    tracer = EventTracer() if side.traced else None
    sim = Simulator(config, protocol=protocol, trace_path=side.trace_path,
                    tracer=tracer)
    workload = build_workload(workload_name, config)
    t0 = time.perf_counter()
    result = sim.run(workload)
    dt = time.perf_counter() - t0
    counts = (None if tracer is None else len(tracer.events),
              result.memo_hits, result.memo_misses)
    return dt, sim.last_trace_lines, result.to_dict(), {
        name: n for name, n in zip(COUNTERS, counts) if n is not None}


def _columns(sweep: PairedSweep, ref_seconds: float, cand_seconds: float,
             lines: int, counts: Dict[str, int]) -> Dict:
    """A cell's (or the aggregate's) columns, named after the sides."""
    ref, cand = sweep.reference.name, sweep.candidate.name
    return {
        "lines": lines,
        f"{ref}_seconds": round(ref_seconds, 6),
        f"{cand}_seconds": round(cand_seconds, 6),
        "speedup": round(ref_seconds / cand_seconds, 3),
        f"{cand}_overhead": round(cand_seconds / ref_seconds - 1.0, 4),
        f"{ref}_lines_per_sec": round(lines / ref_seconds, 1),
        f"{cand}_lines_per_sec": round(lines / cand_seconds, 1),
        **counts,
    }


def run_sweep(sweep: PairedSweep, scale: float = FULL_SCALE,
              chiplets: int = 4, repeats: int = 3,
              workloads: Optional[Sequence[str]] = None,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Time ``sweep``'s two sides against each other on every
    (workload, protocol) cell and return the report dictionary."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    repeats = max(sweep.min_repeats, repeats)
    workloads = list(workloads) if workloads else list(sweep.workloads)
    protocols = list(BENCH_PROTOCOLS)
    config = GPUConfig(num_chiplets=chiplets, scale=scale)
    if progress is not None:
        progress(f"benchmarking {sweep.label} at scale {scale:g} "
                 f"({chiplets} chiplets, best of {repeats})")
    if sweep.setup is not None:
        sweep.setup(workloads, config)
    ref, cand = sweep.reference.name, sweep.candidate.name
    cells: List[Dict] = []
    agg_ref = agg_cand = 0.0
    agg_lines = 0
    agg_counts: Dict[str, int] = {}
    for protocol in protocols:
        for workload in workloads:
            # Candidate runs wait here for a reference run to be checked
            # against: the untimed ones for the first timed repetition's.
            pending = [("untimed rep",
                        _time(config, workload, protocol, sweep.candidate))
                       for _ in range(sweep.warmups)]
            ref_best = cand_best = float("inf")
            for rep in range(repeats):
                ref_dt, lines, expected, _ = _time(config, workload, protocol,
                                                   sweep.reference)
                timed = _time(config, workload, protocol, sweep.candidate)
                pending.append((f"rep {rep}", timed))
                for where, (_, n, d, _) in pending:
                    if d != expected or n != lines:
                        raise EquivalenceError(
                            f"{sweep.label}: {cand} diverged from {ref}: "
                            f"{workload}/{protocol} (scale {scale:g}, "
                            f"{where})")
                pending = []
                cand_dt, _, _, counts = timed
                ref_best = min(ref_best, ref_dt)
                cand_best = min(cand_best, cand_dt)
            cells.append({"workload": workload, "protocol": protocol,
                          **_columns(sweep, ref_best, cand_best, lines,
                                     counts),
                          "identical": True})
            agg_ref += ref_best
            agg_cand += cand_best
            agg_lines += lines
            for name, n in counts.items():
                agg_counts[name] = agg_counts.get(name, 0) + n
            if progress is not None:
                progress(f"  {workload}/{protocol}: "
                         + _summary_row(sweep, cells[-1]))
    return {
        "benchmark": sweep.benchmark,
        "sweep": (sweep.workload_set if workloads == list(sweep.workloads)
                  else "custom"),
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
        "aggregate": _columns(sweep, agg_ref, agg_cand, agg_lines,
                              agg_counts),
    }


def _summary_row(sweep: PairedSweep, row: Dict) -> str:
    """One cell's (or the aggregate's) timings, speedup and counters."""
    ref, cand = sweep.reference.name, sweep.candidate.name
    counts = ", ".join(f"{row[name]:,} {name}" for name in COUNTERS
                       if name in row)
    return (f"{ref} {row[f'{ref}_seconds']:7.3f}s  "
            f"{cand} {row[f'{cand}_seconds']:7.3f}s  "
            f"{row['speedup']:6.2f}x ({row[f'{cand}_overhead']:+.1%})  "
            f"{row[f'{cand}_lines_per_sec']:,.0f} {cand} lines/sec"
            + (f"  ({counts})" if counts else ""))


def summarize_sweep(sweep: PairedSweep, report: Dict) -> str:
    """Human-readable summary of a paired sweep's report."""
    rows = [f"  {cell['workload']:<14s} {cell['protocol']:<8s} "
            + _summary_row(sweep, cell) for cell in report["cells"]]
    meta = report["meta"]
    rows.append(
        f"aggregate (scale {meta['scale']:g}, {meta['chiplets']} chiplets, "
        f"best of {meta['repeats']}): "
        + _summary_row(sweep, report["aggregate"]))
    return "\n".join(rows)


def check_speedup(report: Dict, label: str, floor: float,
                  cell_floor: float) -> Tuple[bool, str]:
    """Gate a paired sweep's report: the aggregate speedup must clear
    ``floor`` and *every per-cell speedup* must clear ``cell_floor``.

    Returns ``(ok, message)``. The per-cell gate is what catches a
    single workload regressing (e.g. one memoized cell falling behind
    the run path) while the aggregate still looks healthy.
    """
    problems = []
    speedup = report["aggregate"]["speedup"]
    if speedup < floor:
        problems.append(f"{label} aggregate speedup {speedup:.2f}x is "
                        f"below the floor {floor:g}x")
    for cell in report["cells"]:
        if cell["speedup"] < cell_floor:
            problems.append(f"{label} cell "
                            f"{cell['workload']}/{cell['protocol']} "
                            f"speedup {cell['speedup']:.2f}x is below the "
                            f"cell floor {cell_floor:g}x")
    if problems:
        return False, "; ".join(problems)
    return True, (f"{label} aggregate speedup {speedup:.2f}x "
                  f"(>= {floor:g}x), every cell >= {cell_floor:g}x")


def check_obs_overhead(report: Dict, reference: Dict,
                       tolerance: float = 0.02) -> Tuple[bool, str]:
    """Compare the obs sweep's disabled-tracer aggregate
    (``null_seconds``) against a line-vs-run report's run-path aggregate
    (``run_seconds``).

    Returns ``(ok, message)``. Both aggregates time the same program
    (the run path under ``NULL_TRACER``), so the check bounds host drift
    between the two sweeps; it does not measure what the tracer hooks
    cost, which needs a reference run without them. It only means
    something when both sweeps timed the same simulations on the same
    machine, so a reference with different
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


def write_report(report: Dict, path: str) -> None:
    """Write ``report`` as pretty-printed JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


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
