"""CLI for regenerating any figure/table: ``python -m repro.experiments``.

Examples:

    python -m repro.experiments fig2
    python -m repro.experiments fig8 --chiplets 4 --scale 0.03125
    python -m repro.experiments fig8 --jobs 4   # parallel; cached on re-run
    python -m repro.experiments all

As in ``python -m repro``, a refused command (a
:class:`~repro.errors.ConfigError` or :class:`~repro.errors.CacheError`)
prints ``repro.experiments: error: <reason>`` on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import CacheError, ConfigError
from repro.experiments import (
    capacity,
    inference,
    driver_sync,
    fig2,
    fig8,
    fig9,
    fig10,
    hmg_writeback,
    multistream,
    occupancy,
    range_flush,
    reuse,
    scaling,
    scheduler_ablation,
    table1,
    table3,
)

def _engine_kwargs(args) -> dict:
    """``--jobs``/``--no-cache`` threaded to the engine-backed sweeps:
    every experiment whose cells name a registry workload and protocol.
    ``table1``, ``table3`` and ``occupancy`` simulate nothing;
    ``scheduler`` and ``inference`` build their own workloads.

    Progress (including each sweep's jobs-run / cache-hit / wall-seconds
    summary line) prints as the sweep executes.
    """
    return {"jobs": args.jobs, "cache": not args.no_cache,
            "progress": print}


EXPERIMENTS = {
    "table1": lambda args: table1.report(table1.run()),
    "table2": lambda args: reuse.report(
        reuse.run(scale=args.scale, **_engine_kwargs(args))),
    "table3": lambda args: table3.report(table3.run()),
    "fig2": lambda args: fig2.report(
        fig2.run(scale=args.scale, **_engine_kwargs(args))),
    "fig8": lambda args: fig8.report(
        fig8.run(chiplet_counts=args.chiplets, scale=args.scale,
                 **_engine_kwargs(args))),
    "fig9": lambda args: fig9.report(
        fig9.run(scale=args.scale, **_engine_kwargs(args))),
    "fig10": lambda args: fig10.report(
        fig10.run(scale=args.scale, **_engine_kwargs(args))),
    "scaling": lambda args: scaling.report(
        scaling.run(scale=args.scale, **_engine_kwargs(args))),
    "multistream": lambda args: multistream.report(
        multistream.run(scale=args.scale, **_engine_kwargs(args))),
    "hmg-wb": lambda args: hmg_writeback.report(
        hmg_writeback.run(scale=args.scale, **_engine_kwargs(args))),
    "range-flush": lambda args: range_flush.report(
        range_flush.run(scale=args.scale, **_engine_kwargs(args))),
    "occupancy": lambda args: occupancy.report(
        occupancy.run(scale=args.scale)),
    "driver-sync": lambda args: driver_sync.report(
        driver_sync.run(scale=args.scale, **_engine_kwargs(args))),
    "scheduler": lambda args: scheduler_ablation.report(
        scheduler_ablation.run(scale=args.scale)),
    "capacity": lambda args: capacity.report(
        capacity.run(scale=args.scale, **_engine_kwargs(args))),
    "inference": lambda args: inference.report(
        inference.run(scale=args.scale)),
}


def main(argv=None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a CPElide paper figure or table.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which figure/table to regenerate")
    parser.add_argument("--scale", type=float, default=1 / 32,
                        help="simulation scale factor (default 1/32)")
    parser.add_argument("--chiplets", type=int, nargs="+",
                        default=[2, 4, 6, 7],
                        help="chiplet counts for fig8 (default 2 4 6 7)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per sweep "
                             "(1 = serial, 0 = one per CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    args = parser.parse_args(argv)

    selected = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        for name in selected:
            start = time.time()
            print(EXPERIMENTS[name](args))
            print(f"[{name}: {time.time() - start:.1f}s]\n")
    except (ConfigError, CacheError) as exc:
        # A refused request prints its reason alone; a simulator bug
        # (InvariantViolation, OracleDivergence) keeps its traceback.
        print(f"repro.experiments: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
