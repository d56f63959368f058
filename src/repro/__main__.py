"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — the registered workloads and protocols.
* ``run <workload>`` — simulate one workload under one or more protocols
  and print a comparison table.
* ``trace <workload> [<protocol>]`` — run one simulation with an
  :class:`~repro.obs.EventTracer` attached and export the structured
  event trace: ``--format text`` (default: event census, aggregated
  metrics, and the human-readable sync trace), ``chrome`` (Perfetto /
  ``chrome://tracing`` ``trace_event`` JSON), ``jsonl``, ``csv``
  (metric distributions), or ``sync`` (every acquire and release by
  kernel boundary, with the share of silent boundaries). ``--out FILE``
  writes to a file instead of stdout.
* ``occupancy [<workload> ...]`` — Chiplet Coherence Table occupancy,
  replayed in-process through the elision engine (no simulation, so no
  sweep engine and no result cache).
* ``bench`` — time the trace paths against each other: the batched run
  path vs the per-line reference on the partitioned sweep
  (``BENCH_trace.json``), the memoized path vs the run path on the
  iterative sweep (``BENCH_memo.json``), and the tracing overhead of
  the disabled/recording observability hooks (``--sweep obs``,
  ``BENCH_obs.json``), or distributed sweep scaling (``--sweep dist``,
  ``BENCH_dist.json``). Reports land at the repo root by default.

``run`` also accepts ``--trace-out FILE`` to attach an observability
tracer to the sweep and export it (format inferred from the extension:
``.json`` → Chrome trace, ``.csv`` → CSV, else JSONL).
* ``check`` — the differential oracle: run the suite across trace paths
  x protocols, demand bit-identical serialized results and final
  machine state, and report the first divergent kernel otherwise
  (``--sanitize`` additionally asserts coherence invariants at every
  kernel boundary; see ``repro.check``).
* ``dist`` — run a sweep over the shared, file-locked result cache with
  in-flight dedupe: cells shard into contiguous work units.
  ``--mode run`` executes locally with ``--workers`` processes;
  ``--mode scatter/work/gather`` splits the sweep across any hosts that
  share ``--work-dir``.
* ``explore`` — successive-halving Pareto search over chiplet count x
  coherence-table capacity x L2 size, scored on (cpelide cycles,
  hardware-cost proxy); prints the frontier of the final rung.
* ``serve`` — simulation-as-a-service: an HTTP job API over the sweep
  engine (``POST /v1/simulate``, ``POST /v1/sweep``, job polling, SSE
  progress streams, cancellation). Jobs from any number of clients
  dedupe through the shared result cache; admission control sheds
  overload with ``429`` + ``Retry-After``. See ``docs/server.md``.

``run`` executes through the sweep engine's one runner: ``--jobs N``
fans simulations out over N worker processes, and completed cells are
served from the on-disk result cache (``--no-cache`` reads and writes
nothing).
Protocol choices come from the coherence registry, so a newly registered
protocol is immediately runnable here.

A refused command (a :class:`~repro.errors.ConfigError` or
:class:`~repro.errors.CacheError`) prints ``repro: error: <reason>`` on
stderr and exits 2.

Figures and tables have their own CLI: ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.check.oracle import DEFAULT_PROTOCOLS, DEFAULT_TRACE_PATHS
from repro.coherence.base import protocol_names
from repro.errors import CacheError, ConfigError
from repro.experiments import occupancy as occupancy_experiment
from repro.gpu.config import GPUConfig
from repro.gpu.trace_path import TracePath
from repro.metrics.report import format_table
from repro.workloads.suite import EXTRA_WORKLOADS, WORKLOAD_NAMES, build_workload

#: Argparse-friendly spellings of the trace paths (the CLI accepts the
#: enum's string values; handlers pass them on and the API coerces).
TRACE_PATH_CHOICES = tuple(p.value for p in TracePath)


#: Global default for ``--scale`` when a subcommand has no better one.
DEFAULT_SCALE = 1 / 32


def _config(args) -> GPUConfig:
    scale = DEFAULT_SCALE if args.scale is None else args.scale
    return GPUConfig(num_chiplets=args.chiplets, scale=scale)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: str, out: str) -> None:
    """Write ``payload`` to stdout (``out`` is ``-``) or to a file."""
    if not payload.endswith("\n"):
        payload += "\n"
    if out in ("-", ""):
        sys.stdout.write(payload)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    _progress(f"wrote {out}")


def _write_sweep_trace(tracer, out: str) -> None:
    """Export a sweep CLI's ``--trace-out`` tracer (format by extension)."""
    from repro.obs import write_trace

    fmt = write_trace(tracer, out)
    _progress(f"wrote {out} ({fmt}, {len(tracer.events)} events)")


def cmd_list(args) -> int:
    print("workloads (Table II):")
    for name in WORKLOAD_NAMES:
        print(f"  {name}")
    print("extra workloads:")
    for name in EXTRA_WORKLOADS:
        print(f"  {name}")
    print("protocols:")
    for name in protocol_names():
        print(f"  {name}")
    return 0


def cmd_run(args) -> int:
    from repro.api import sweep
    from repro.gpu.config import monolithic_equivalent

    config = _config(args)
    tracer = None
    if args.trace_out:
        from repro.obs import EventTracer
        tracer = EventTracer()
    # The monolithic comparator models a single-chiplet GPU of the same
    # aggregate capacity; give it its own config cell instead of crashing
    # on the multi-chiplet one.
    regular = tuple(p for p in args.protocols if p != "monolithic")
    results = {}
    reports = []
    if regular:
        res = sweep(workloads=(args.workload,), protocols=regular,
                    configs=(config,), scheduler=args.scheduler,
                    jobs=args.jobs, cache=not args.no_cache,
                    progress=_progress, tracer=tracer)
        reports.append(res.report)
        for protocol in regular:
            results[protocol] = res.get(args.workload, protocol)
    if "monolithic" in args.protocols:
        res = sweep(workloads=(args.workload,), protocols=("monolithic",),
                    configs=(monolithic_equivalent(config),),
                    scheduler=args.scheduler, jobs=args.jobs,
                    cache=not args.no_cache, progress=_progress,
                    tracer=tracer)
        reports.append(res.report)
        results["monolithic"] = res.get(args.workload, "monolithic")
    rows: List[List[object]] = []
    baseline_cycles = None
    for protocol in args.protocols:
        res = results[protocol]
        if baseline_cycles is None:
            baseline_cycles = res.wall_cycles
        acc = res.metrics.total_accesses()
        sync = res.metrics.total_sync()
        rows.append([
            protocol,
            res.wall_cycles,
            baseline_cycles / res.wall_cycles,
            acc.l2_miss_rate,
            res.metrics.total_traffic().total,
            sync.acquires_elided + sync.releases_elided,
            res.energy["total"] * 1e6,
        ])
    print(format_table(
        ["protocol", "cycles", f"speedup vs {args.protocols[0]}",
         "L2 miss rate", "flits", "syncs elided", "energy (uJ)"],
        rows,
        title=(f"{args.workload} on {config.num_chiplets} chiplets "
               f"(scale {config.scale:g})")))
    for report in reports:
        print(report.summary(), file=sys.stderr)
    if tracer is not None:
        _write_sweep_trace(tracer, args.trace_out)
    return 0


def cmd_trace(args) -> int:
    config = _config(args)
    protocol = args.protocol or (args.protocols[0] if args.protocols
                                 else "cpelide")
    workload = build_workload(args.workload, config)
    from repro.api import simulate
    from repro.obs import EventTracer
    from repro.obs.export import render_trace

    tracer = EventTracer()
    simulate(workload, protocol, config=config, scheduler=args.scheduler,
             trace_path=args.trace_path, tracer=tracer)
    _emit(render_trace(tracer, args.format, limit=args.limit), args.out)
    return 0


def cmd_occupancy(args) -> int:
    profiles = occupancy_experiment.run(
        workloads=args.workloads or None,
        scale=DEFAULT_SCALE if args.scale is None else args.scale,
        num_chiplets=args.chiplets)
    print(occupancy_experiment.report(profiles))
    return 0


def _warn_environment(report, reference, label: str) -> None:
    """Warn when two bench reports were not timed on the same machine."""
    from repro import bench

    for diff in bench.compare_environments(report, reference):
        _progress(f"WARNING: {label}: {diff} — timings are not "
                  f"comparable across environments")


def _write_bench_report(report, path: str) -> None:
    """Write a bench report to ``path``.

    If ``path`` already holds a report from a *different* environment,
    warn before overwriting: the trajectory across the two files mixes
    machines.
    """
    import json
    import os

    from repro import bench

    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                previous = json.load(fh)
        except (OSError, ValueError):
            previous = None
        if previous is not None:
            _warn_environment(report, previous,
                              f"overwriting {path} from a different "
                              f"environment")
    bench.write_report(report, path)
    _progress(f"wrote {path}")


def _gate(result) -> int:
    """Print a bench gate's ``(ok, message)``; return its exit status."""
    ok, message = result
    _progress(("OK: " if ok else "FAIL: ") + message)
    return 0 if ok else 1


def _check_obs_reference(report, path: str, tolerance: float):
    """``--sweep obs --check``: gate the disabled-tracer aggregate against
    the line-vs-run report at ``path``; passes, saying so, without one."""
    import json
    import os

    from repro import bench

    if not os.path.exists(path):
        return True, (f"obs overhead check skipped: no line-vs-run "
                      f"reference report at {path}")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    _warn_environment(report, reference, f"obs reference {path}")
    return bench.check_obs_overhead(report, reference, tolerance=tolerance)


def cmd_bench(args) -> int:
    from repro import bench

    if args.scale is not None:
        scale = args.scale
    else:
        scale = bench.QUICK_SCALE if args.quick else bench.FULL_SCALE
    repeats = args.repeats
    if repeats is None:
        repeats = 2 if args.quick else 3
    workloads = args.workloads or None
    outs = {"trace": args.out, "memo": args.memo_out, "obs": args.obs_out}
    paired = {"both": ("trace", "memo"), "dist": ()}.get(args.sweep,
                                                         (args.sweep,))
    rc = 0
    for name in paired:
        sweep = bench.SWEEPS[name]
        report = bench.run_sweep(sweep, scale=scale, chiplets=args.chiplets,
                                 repeats=repeats, workloads=workloads,
                                 progress=_progress)
        _write_bench_report(report, outs[name])
        print(bench.summarize_sweep(sweep, report))
        if args.check and name == "obs":
            rc |= _gate(_check_obs_reference(report, args.out,
                                             args.max_overhead))
        elif args.check:
            rc |= _gate(bench.check_speedup(report, sweep.label,
                                            args.min_speedup,
                                            args.min_cell_speedup))
    if args.sweep == "dist":
        # The dist sweep times orchestration, not simulation fidelity —
        # default to the quick scale so the four worker counts plus the
        # warm pass stay tractable.
        dist_scale = args.scale if args.scale is not None else (
            1 / 64 if args.quick else bench.QUICK_SCALE)
        worker_counts = (tuple(args.dist_workers) if args.dist_workers
                         else bench.DIST_WORKER_COUNTS)
        _progress(f"benchmarking distributed sweep scaling at scale "
                  f"{dist_scale:g} ({args.chiplets} chiplets, "
                  f"workers {list(worker_counts)})")
        report = bench.run_dist_bench(scale=dist_scale,
                                      chiplets=args.chiplets,
                                      worker_counts=worker_counts,
                                      workloads=workloads,
                                      progress=_progress)
        _write_bench_report(report, args.dist_out)
        print(bench.summarize_dist(report))
        if args.check:
            rc |= _gate(bench.check_dist_scaling(
                report, min_efficiency=args.min_dist_efficiency))
    return rc


def _dist_spec(args):
    """The sweep a ``dist`` invocation distributes."""
    from repro.engine import SweepSpec

    scale = DEFAULT_SCALE if args.scale is None else args.scale
    return SweepSpec.grid(workloads=args.workloads or None,
                          protocols=tuple(args.protocols),
                          chiplet_counts=(args.chiplets,), scale=scale)


def cmd_dist(args) -> int:
    from repro.engine import SharedResultCache, SweepRunner, dist

    tracer = None
    if args.trace_out:
        from repro.obs import EventTracer
        tracer = EventTracer()
    if args.mode != "run" and not args.work_dir:
        _progress(f"dist --mode {args.mode} requires --work-dir")
        return 2
    report = None
    if args.mode == "scatter":
        units = dist.scatter(_dist_spec(args), args.work_dir,
                             workers=args.workers,
                             batch_size=args.batch_size, tracer=tracer)
        cells = sum(u.cells for u in units)
        print(f"scattered {cells} cells into {len(units)} units "
              f"under {args.work_dir}")
    elif args.mode == "work":
        executed = dist.work(args.work_dir, max_units=args.max_units,
                             progress=_progress, tracer=tracer)
        print(f"executed {executed} units from {args.work_dir}")
    elif args.mode == "gather":
        result = dist.gather(args.work_dir)
        report = result.report
        print(report.summary())
    else:
        runner = SweepRunner(workers=args.workers,
                             cache=SharedResultCache(root=args.cache_dir),
                             batch_size=args.batch_size,
                             progress=_progress, tracer=tracer)
        result = runner.run(_dist_spec(args))
        report = result.report
        print(report.summary())
    if tracer is not None:
        _write_sweep_trace(tracer, args.trace_out)
    if args.expect_cached:
        if report is None:
            _progress("--expect-cached only applies to --mode run/gather")
            return 2
        if report.executed:
            _progress(f"FAIL: expected every cell cached, but "
                      f"{report.executed} of {report.total_jobs} were "
                      f"recomputed")
            return 1
        _progress(f"OK: all {report.total_jobs} cells served from the "
                  f"shared cache (0 recomputed)")
    return 0


def cmd_explore(args) -> int:
    from repro.engine import SharedResultCache
    from repro.experiments import explore as explore_experiment

    if args.rungs:
        rungs = tuple(args.rungs)
    elif args.quick:
        rungs = explore_experiment.QUICK_RUNGS
    else:
        rungs = explore_experiment.DEFAULT_RUNGS
    chiplet_counts = (tuple(args.chiplet_counts) if args.chiplet_counts
                      else ((2, 4) if args.quick
                            else explore_experiment.DEFAULT_CHIPLET_COUNTS))
    table_windows = (tuple(args.table_windows) if args.table_windows
                     else explore_experiment.DEFAULT_TABLE_WINDOWS)
    l2_mb = (tuple(args.l2_mb) if args.l2_mb
             else explore_experiment.DEFAULT_L2_MB)
    if args.no_cache:
        cache = False
    elif args.cache_dir:
        cache = SharedResultCache(root=args.cache_dir)
    else:
        cache = True
    result = explore_experiment.explore(
        chiplet_counts=chiplet_counts, table_windows=table_windows,
        l2_mb=l2_mb, workloads=tuple(args.workloads) if args.workloads
        else explore_experiment.DEFAULT_SEED_WORKLOADS,
        rungs=rungs, workers=args.workers, cache=cache,
        progress=_progress, protocol=args.protocol,
        leases=tuple(args.lease_kernels) if args.lease_kernels else None)
    print(result.render())
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        _progress(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    from repro.api import serve

    cache = args.cache_dir  # None -> the shared cache's default root
    try:
        serve(host=args.host, port=args.port, cache=cache,
              max_inflight=args.max_inflight,
              max_queue_depth=args.max_queue_depth,
              client_quota=args.client_quota)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_check(args) -> int:
    import dataclasses

    from repro.check.oracle import run_oracle

    config = _config(args)
    if args.sanitize:
        config = dataclasses.replace(config, check_invariants=True)
    workloads = args.workloads or None
    if args.quick and workloads is None:
        workloads = list(QUICK_CHECK_WORKLOADS)
    report = run_oracle(workloads=workloads, protocols=args.protocols,
                        trace_paths=args.trace_paths, config=config,
                        scheduler=args.scheduler, progress=_progress)
    matrix = (f"{report.cells} cells x {len(args.trace_paths)} trace paths "
              f"({report.runs} simulations)")
    if report.ok:
        print(f"oracle OK: {matrix}, all results identical"
              + (", sanitizer clean" if args.sanitize else ""))
        return 0
    print(f"oracle FAILED: {len(report.divergences)} divergence(s) "
          f"across {matrix}")
    for divergence in report.divergences:
        print()
        print(divergence.describe())
    return 1


#: ``repro check --quick`` workload subset: one representative per
#: access-pattern family (streaming, stencil, iterative reuse, indirect,
#: multi-kernel pipeline, low-reuse), kept small enough for CI.
QUICK_CHECK_WORKLOADS = ("square", "babelstream", "hotspot", "bfs",
                         "backprop", "nw")


def main(argv=None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CPElide reproduction: simulate chiplet-GPU workloads.")
    parser.add_argument("--scale", type=float, default=None,
                        help="simulation scale (default 1/32; bench "
                             "defaults to 1/4, or 1/16 with --quick)")
    parser.add_argument("--chiplets", type=int, default=4,
                        help="chiplet count (default 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, 0 = one per CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and protocols")

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("workload", choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    run_p.add_argument("--protocols", nargs="+", default=["baseline", "hmg",
                                                          "cpelide"],
                       choices=protocol_names())
    run_p.add_argument("--scheduler", default="static",
                       choices=("static", "locality"))
    run_p.add_argument("--trace-out", default=None,
                       help="attach an observability tracer and export "
                            "the event trace to this file (.json -> "
                            "Chrome/Perfetto, .csv -> distributions, "
                            "else JSONL)")

    trace_p = sub.add_parser(
        "trace", help="run one simulation with the event tracer and "
                      "export the trace")
    trace_p.add_argument("workload", choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    trace_p.add_argument("protocol", nargs="?", default=None,
                         choices=protocol_names(),
                         help="protocol to trace (default cpelide)")
    trace_p.add_argument("--protocols", nargs="+", default=None,
                         choices=protocol_names(),
                         help="legacy spelling of the protocol argument "
                              "(first entry is used)")
    trace_p.add_argument("--format", default="text",
                         choices=("text", "chrome", "jsonl", "csv", "sync"),
                         help="export format: human-readable summary "
                              "with the sync trace (default), Chrome "
                              "trace_event JSON for Perfetto, JSON "
                              "lines, metric-distribution CSV, or the "
                              "sync ops by kernel boundary")
    trace_p.add_argument("--out", default="-",
                         help="output file ('-' = stdout, the default)")
    trace_p.add_argument("--limit", type=int, default=40,
                         help="sync-trace entries to show in "
                              "text/sync formats (default 40)")
    trace_p.add_argument("--trace-path", default=None,
                         choices=TRACE_PATH_CHOICES,
                         help="trace representation to simulate with "
                              "(default: REPRO_TRACE_PATH or 'run')")
    trace_p.add_argument("--scheduler", default="static",
                         choices=("static", "locality"))

    occ_p = sub.add_parser("occupancy", help="coherence-table occupancy")
    occ_p.add_argument("workloads", nargs="*",
                       help="workload subset (default: all 24)")

    bench_p = sub.add_parser(
        "bench", help="time the trace paths against each other")
    bench_p.add_argument("--sweep", default="both",
                         choices=("trace", "memo", "both", "obs", "dist"),
                         help="which comparison to run: line-vs-run "
                              "('trace'), memo-vs-run ('memo'), both "
                              "(default), disabled-vs-recording tracer "
                              "overhead ('obs'), or distributed sweep "
                              "scaling over the shared result cache "
                              "('dist')")
    bench_p.add_argument("--workloads", nargs="+", default=None,
                         choices=WORKLOAD_NAMES + EXTRA_WORKLOADS,
                         help="workload subset (default: each sweep's "
                              "canonical list)")
    bench_p.add_argument("--quick", action="store_true",
                         help="smaller scale and fewer repeats (CI smoke)")
    bench_p.add_argument("--check", action="store_true",
                         help="exit nonzero if a sweep's aggregate "
                              "speedup is below --min-speedup or any "
                              "per-cell speedup is below "
                              "--min-cell-speedup")
    bench_p.add_argument("--min-speedup", type=float, default=1.0,
                         help="aggregate speedup floor for --check "
                              "(default 1.0: fail only if the fast path "
                              "is slower)")
    bench_p.add_argument("--min-cell-speedup", type=float, default=0.95,
                         help="per-cell speedup floor for --check "
                              "(default 0.95: no single workload/"
                              "protocol cell may regress below 0.95x)")
    bench_p.add_argument("--repeats", type=int, default=None,
                         help="timing repetitions per cell, best kept "
                              "(default 3, or 2 with --quick; the memo "
                              "sweep needs >= 2 to measure warm replays)")
    bench_p.add_argument("--out", default="BENCH_trace.json",
                         help="line-vs-run report path "
                              "(default BENCH_trace.json)")
    bench_p.add_argument("--memo-out", default="BENCH_memo.json",
                         help="memo-vs-run report path "
                              "(default BENCH_memo.json)")
    bench_p.add_argument("--obs-out", default="BENCH_obs.json",
                         help="tracing-overhead report path "
                              "(default BENCH_obs.json)")
    bench_p.add_argument("--max-overhead", type=float, default=0.02,
                         help="with --sweep obs --check: allowed "
                              "disabled-tracer overhead vs the "
                              "line-vs-run report at --out "
                              "(default 0.02 = 2%%)")
    bench_p.add_argument("--dist-out", default="BENCH_dist.json",
                         help="distributed-scaling report path "
                              "(default BENCH_dist.json)")
    bench_p.add_argument("--dist-workers", nargs="+", type=int,
                         default=None,
                         help="worker counts the dist sweep times "
                              "(default 1 2 4 8)")
    bench_p.add_argument("--min-dist-efficiency", type=float, default=0.5,
                         help="with --sweep dist --check: scaling-"
                              "efficiency floor per worker count — "
                              "speedup over min(workers, cpu_count) "
                              "(default 0.5); the check refuses when "
                              "cpu_count is below the largest worker "
                              "count")

    dist_p = sub.add_parser(
        "dist", help="run a sweep as sharded work units over a shared "
                     "result cache with in-flight dedupe")
    dist_p.add_argument("--mode", default="run",
                        choices=("run", "scatter", "work", "gather"),
                        help="'run' executes locally with --workers "
                             "processes (default); 'scatter' writes the "
                             "sweep's manifest into --work-dir, 'work' "
                             "derives its work units and runs the "
                             "unclaimed ones from any host that sees "
                             "--work-dir, 'gather' reassembles the "
                             "finished sweep")
    dist_p.add_argument("--workloads", nargs="+", default=None,
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS,
                        help="workload subset (default: all 24)")
    dist_p.add_argument("--protocols", nargs="+",
                        default=["baseline", "cpelide"],
                        choices=protocol_names())
    dist_p.add_argument("--workers", type=int, default=2,
                        help="worker processes for --mode run, or the "
                             "expected worker count scatter sizes units "
                             "for (default 2)")
    dist_p.add_argument("--work-dir", default=None,
                        help="filesystem work directory shared by "
                             "scatter/work/gather: spec.json plus a "
                             "cache/ of cells and unit results (any "
                             "host that mounts it can run 'work')")
    dist_p.add_argument("--cache-dir", default=None,
                        help="shared result cache root for --mode run "
                             "(default: REPRO_CACHE_DIR or "
                             "~/.cache/repro-cpelide)")
    dist_p.add_argument("--batch-size", type=int, default=None,
                        help="cells per work unit (default: sized for "
                             "--workers)")
    dist_p.add_argument("--max-units", type=int, default=None,
                        help="with --mode work: stop after this many "
                             "units (default: drain the directory)")
    dist_p.add_argument("--expect-cached", action="store_true",
                        help="exit nonzero unless every cell was served "
                             "from the shared cache (0 recomputed) — "
                             "the CI smoke gate for cache reuse")
    dist_p.add_argument("--trace-out", default=None,
                        help="attach an observability tracer and export "
                             "the event trace (shard timeline) to this "
                             "file")

    explore_p = sub.add_parser(
        "explore", help="Pareto search over chiplet count x table "
                        "capacity x L2 size (successive halving)")
    explore_p.add_argument("--chiplet-counts", nargs="+", type=int,
                           default=None,
                           help="candidate chiplet counts "
                                "(default 2 4 6 8; --quick: 2 4)")
    explore_p.add_argument("--table-windows", nargs="+", type=int,
                           default=None,
                           help="candidate per-kernel table windows "
                                "(entries = 8x window; default 4 8 16)")
    explore_p.add_argument("--l2-mb", nargs="+", type=int, default=None,
                           help="candidate per-chiplet L2 sizes in MB "
                                "(default 4 8 16)")
    explore_p.add_argument("--workloads", nargs="+", default=None,
                           choices=WORKLOAD_NAMES + EXTRA_WORKLOADS,
                           help="seed workloads scoring each design "
                                "point (default: hotspot backprop bfs "
                                "square)")
    explore_p.add_argument("--rungs", nargs="+", type=float, default=None,
                           help="fidelity ladder: simulation scale per "
                                "successive-halving rung (default "
                                "1/64 1/32 1/16)")
    explore_p.add_argument("--protocol", default="cpelide",
                           choices=protocol_names(),
                           help="measured protocol, scored against "
                                "baseline at every design point "
                                "(default cpelide)")
    explore_p.add_argument("--lease-kernels", nargs="+", type=int,
                           default=None,
                           help="add the lease length (kernel epochs) as "
                                "a search axis — meaningful with the "
                                "timestamp protocols (e.g. 2 4 8)")
    explore_p.add_argument("--workers", type=int, default=2,
                           help="distributed workers per rung (default 2)")
    explore_p.add_argument("--cache-dir", default=None,
                           help="shared result cache root (default: "
                                "REPRO_CACHE_DIR or ~/.cache/"
                                "repro-cpelide)")
    explore_p.add_argument("--quick", action="store_true",
                           help="two rungs over a smaller design space "
                                "(CI smoke)")
    explore_p.add_argument("--out", default=None,
                           help="also write the full exploration "
                                "history as JSON to this file")

    serve_p = sub.add_parser(
        "serve", help="serve the simulation job API over HTTP: async "
                      "submissions, SSE progress streams, shared-cache "
                      "dedupe across clients")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="bind port (default 8642; 0 = ephemeral)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="shared result cache root (default: "
                              "REPRO_CACHE_DIR or ~/.cache/repro-cpelide)")
    serve_p.add_argument("--max-inflight", type=int, default=2,
                         help="jobs executing concurrently (default 2)")
    serve_p.add_argument("--max-queue-depth", type=int, default=64,
                         help="queued jobs before submissions shed with "
                              "429 + Retry-After (default 64)")
    serve_p.add_argument("--client-quota", type=int, default=8,
                         help="active (queued+running) jobs one client "
                              "may hold (default 8)")

    check_p = sub.add_parser(
        "check", help="differential oracle: cross-check trace paths x "
                      "protocols over the workload suite")
    check_p.add_argument("--workloads", nargs="+", default=None,
                         choices=WORKLOAD_NAMES + EXTRA_WORKLOADS,
                         help="workload subset (default: all 24)")
    check_p.add_argument("--protocols", nargs="+",
                         default=list(DEFAULT_PROTOCOLS),
                         choices=protocol_names())
    check_p.add_argument("--trace-paths", nargs="+",
                         default=list(DEFAULT_TRACE_PATHS),
                         choices=TRACE_PATH_CHOICES,
                         help="trace paths to compare; the first is the "
                              "reference (default: line run memo)")
    check_p.add_argument("--scheduler", default="static",
                         choices=("static", "locality"))
    check_p.add_argument("--sanitize", action="store_true",
                         help="also run the coherence invariant sanitizer "
                              "inside every simulation")
    check_p.add_argument("--quick", action="store_true",
                         help="reduced workload subset (CI smoke)")

    args = parser.parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "trace": cmd_trace,
                "occupancy": cmd_occupancy, "bench": cmd_bench,
                "dist": cmd_dist, "explore": cmd_explore,
                "serve": cmd_serve, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except (ConfigError, CacheError) as exc:
        # A refused request prints its reason alone, as argparse does;
        # a simulator bug (InvariantViolation, OracleDivergence) keeps
        # its traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
