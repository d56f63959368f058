"""The repository benchmark. Run it from the root of a checkout::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --steady 10 --save serve.json
    python3 perfbench/run.py --compare parent.json change.json

A run prints the workload's metrics as ``workload: name = value unit``
lines and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. ``--steady K`` runs the workload K times with seeds
``seed .. seed+K-1`` and prints each metric's median, quartiles and
spread against its bound; ``--save`` keeps the runs for ``--compare``,
which judges a change against its parent metric by metric.

Every process the benchmark starts gets ``src`` on ``PYTHONPATH``, a
temporary directory inside the checkout, and an environment without
``REPRO_TRACE_PATH``, ``REPRO_CHECK`` and ``REPRO_CACHE_DIR``, so a
developer's shell cannot change what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchstats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig8", "memo-iter", "explore", "serve")
STRIPPED_ENV = ("REPRO_TRACE_PATH", "REPRO_CHECK", "REPRO_CACHE_DIR")
#: Fresh starts timed per run, half before the workload and half after
#: it, so they sample the host's speed at two times; ``setup_s`` is
#: their median.
SETUP_STARTS = 11
#: A run must finish within this many seconds.
RUN_LIMIT_S = 170.0


def child_env(tmp: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = tmp
    return env


def stop(proc: subprocess.Popen) -> None:
    """Interrupt ``proc`` and its process group, then reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def time_start(command: List[str], env: Dict[str, str], ready: str,
               serves: bool) -> float:
    """Seconds from launching ``command`` until it prints ``ready``.
    A server (``serves``) is then interrupted; a probe exits by itself."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if ready not in line:
            raise RuntimeError(f"{command[1:]} printed {line!r}, "
                               f"not {ready!r}")
        return elapsed
    finally:
        if not serves:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        stop(proc)
        proc.stdout.close()


def setup_times(workload: str, env: Dict[str, str], tmp: str,
                starts: int) -> List[float]:
    """Seconds of ``starts`` fresh starts until the first unit of work
    can be submitted: imports and spec build, plus the bind for
    ``serve``."""
    times = []
    for _ in range(starts):
        if workload == "serve":
            cache = tempfile.mkdtemp(prefix="setup-cache-", dir=tmp)
            command = [sys.executable, "-m", "repro", "serve", "--port",
                       "0", "--cache-dir", cache]
            times.append(time_start(command, dict(env, PYTHONUNBUFFERED="1"),
                                    "listening on", serves=True))
        else:
            command = [sys.executable, str(HERE / "worker.py"), "probe",
                       workload]
            times.append(time_start(command, env, "ready", serves=False))
    return times


def single_run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        env = child_env(tmp)
        setup = [] if args.trace else setup_times(
            args.workload, env, tmp, SETUP_STARTS - SETUP_STARTS // 2)
        command = [sys.executable, str(HERE / "worker.py"), "run",
                   args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace),
                   "--tmp", tmp]
        proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter()
                                                - began)))
        except subprocess.TimeoutExpired:
            print("benchmark run exceeded its time limit", file=sys.stderr)
            return 3
        finally:
            # Take down whatever the worker's process group still holds
            # (a server or pool left by a crash, or the worker itself on
            # a timeout or interrupt), then reap the worker.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        if proc.returncode != 0:
            print(f"benchmark worker failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 4
        result = json.loads(out.strip().splitlines()[-1])
        if not args.trace:
            setup += setup_times(args.workload, env, tmp,
                                 SETUP_STARTS // 2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = dict(result["metrics"], setup_s=statistics.median(setup))
        result["report"].insert(
            0, f"{args.workload}: setup_s = {metrics['setup_s']:.6g} s "
               f"(median of {len(setup)} fresh starts)")
    for line in result["report"]:
        print(line)
    print(f"{args.workload}: environment = "
          f"{json.dumps(result['environment'], sort_keys=True)}")
    print(json.dumps(result_object(result, metrics, args.trace)))
    return 0


def result_object(result: Dict[str, Any], metrics: Dict[str, float],
                  trace: int) -> Dict[str, Any]:
    """The last line of a run: every metric of BENCHMARK.json's
    ``end_to_end`` (``trace`` 0) or ``per_layer`` section, with its
    unit from there."""
    section = load_benchmark()["per_layer" if trace else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in section},
    }


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_defs() -> Dict[str, Dict[str, Any]]:
    """Every metric of BENCHMARK.json by name."""
    bench = load_benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def steady(args) -> int:
    """Run one workload K times and print each metric's spread."""
    defs = metric_defs()
    runs: List[Dict[str, Any]] = []
    for i in range(args.steady):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed",
                   str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"run {i + 1}/{args.steady} seed {args.seed + i}: correct="
              f"{result['correct']} failed={result['failed']}",
              file=sys.stderr)
    print(f"{args.workload}: {args.steady} runs of {args.seconds:g} s "
          f"(trace {args.trace})")
    print(f"{'metric':32} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        stats = quartile_spread(values)
        bound = defs.get(name, {}).get("bound")
        if bound is None:
            verdict = ("repeats exactly" if len(set(values)) == 1
                       else "no bound")
        elif stats["spread"] < bound / 3:
            verdict = "steady (< bound/3)"
        elif stats["spread"] <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        print(f"{name:32} {runs[0]['metrics'][name]['unit']:9} "
              f"{stats['median']:12.6g} {stats['q1']:12.6g} "
              f"{stats['q3']:12.6g} {stats['spread']:8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    if not all(r["correct"] for r in runs):
        print("some runs were not correct", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs}, handle, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


def judge(parent: List[float], change: List[float], better: str,
          bound: float) -> str:
    """Verdict on one (metric, workload) pair, after choosing-metrics
    section 6.5: worse beyond the bound is a regression; a spread wider
    than the bound leaves the pair unresolved unless every change run
    reads better than every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartile_spread(parent), quartile_spread(change)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if worse_by > bound:
        return f"WORSE by {worse_by:.1%} (bound {bound:.0%})"
    if max(p["spread"], c["spread"]) > bound:
        return "better in every run" if all_better else "unresolved"
    # A gain needs paired runs (choosing-metrics section 8), not this.
    direction = "worse" if worse_by > 0 else "better"
    return (f"unchanged within bound {bound:.0%} (median {direction} by "
            f"{abs(worse_by):.1%})")


def compare(parent_path: str, change_path: str) -> int:
    defs = metric_defs()
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    print(f"{parent['workload']}: parent {parent_path} "
          f"({len(parent['runs'])} runs) vs change {change_path} "
          f"({len(change['runs'])} runs)")
    for name, spec in defs.items():
        if "bound" not in spec or name not in parent["runs"][0]["metrics"]:
            continue
        values = [[r["metrics"][name]["value"] for r in side["runs"]]
                  for side in (parent, change)]
        print(f"{name:14} parent {statistics.median(values[0]):.6g} "
              f"change {statistics.median(values[1]):.6g} {spec['unit']}: "
              f"{judge(values[0], values[1], spec['better'], spec['bound'])}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K",
                        help="run the workload K times and print spreads")
    parser.add_argument("--save", help="with --steady: keep the runs here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="judge two --save files metric by metric")
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
