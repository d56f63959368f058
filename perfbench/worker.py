"""The benchmark's body, run by ``run.py`` in a fresh interpreter.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and a
stripped environment, and reads the JSON object on its last stdout
line. Modes::

    worker.py probe <workload>            imports + spec build, then "ready"
    worker.py run <workload> --seed N --seconds S --trace 0|1 --tmp DIR
    worker.py write-digests               recompute digests.json

Every simulated result is checked against ``digests.json``: a blake2b
digest of ``SimulationResult.to_dict()`` as canonical JSON, per cell.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from benchstats import TooFewSamples, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"

WORKLOADS = ("fig8", "memo-iter", "explore", "serve")

#: fig8: Table II's 24 workloads x these protocols on 4 chiplets, at a
#: scale whose whole block regenerates in ~13 s serially.
FIG8_SCALE = 1 / 512
FIG8_PROTOCOLS = ("baseline", "hmg", "cpelide")

#: memo-iter: iterative workloads where the memo path replays kernels,
#: plus bfs/sssp, whose roam kernels bypass the memo.
MEMO_SCALE = 1 / 128
MEMO_WORKLOADS = ("bfs", "sssp", "rnn-gru-small", "hotspot", "srad",
                  "pathfinder")
MEMO_PROTOCOLS = ("baseline", "cpelide", "cpelide-ts")

#: explore: 12 design points x 4 seed workloads x {baseline, cpelide}.
EXPLORE_SCALE = 1 / 256
EXPLORE_AXES = {"chiplet_counts": (2, 4, 8), "table_windows": (4, 8),
                "l2_mb": (4, 8)}
EXPLORE_WORKERS = 2
#: Warm passes per cold pass: about 30% of the sweeping time, so a
#: slower result-cache read moves the gated ``ops_per_s``.
EXPLORE_WARM_PASSES = 20

#: serve: closed-loop clients, and the warm job every warm client
#: submits (its cells are computed once before timing starts).
SERVE_CLIENTS = 2
SERVE_WARM_SWEEP = {"workloads": ["backprop", "lud"],
                    "protocols": ["baseline", "cpelide"],
                    "chiplet_counts": [4], "scale": 1 / 256}
#: Jobs per class in each pass of a traced serve run.
SERVE_TRACED_JOBS = 40
#: Latency samples (cells, or jobs per class) a run collects before it
#: may stop: a median needs ten beyond it.
MIN_SAMPLES = 20
#: The server's peak RSS is read when this many jobs have completed, so
#: it does not grow with throughput (the server keeps every job).
SERVE_RSS_JOBS = 200

PAPER_CPELIDE_SPEEDUP = 1.13

#: Per-layer metrics that are counts or simulated values: they must
#: repeat exactly between traced passes. The other per-layer metrics
#: (names and units in BENCHMARK.json) are host times and their ratios.
COUNT_METRICS = frozenset({
    "workloads.trace_calls", "memory.bulk_calls",
    "memory.lines_per_bulk_call", "coherence.sync_ops_issued",
    "coherence.sync_ops_elided", "coherence.lines_flushed",
    "coherence.lines_invalidated", "timing.sync_cycle_frac", "gpu.kernels",
    "gpu.trace_lines", "memo.hits", "memo.misses", "memo.bypasses",
    "memo.hit_ratio", "engine.cache_hits", "engine.claims",
    "engine.deduped", "server.rejected"})


def metric_names(section: str) -> List[str]:
    """Names of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return [metric["name"] for metric in json.load(handle)[section]]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def digest(payload: Dict[str, Any]) -> str:
    """Content digest of one result payload (canonical JSON)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


class Checker:
    """Counts operations and checks each result against its digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def result(self, label: str, expected: Optional[str],
               payload: Dict[str, Any]) -> str:
        got = digest(payload)
        self.op(ok=(got == expected), label=label)
        return got

    def op(self, ok: bool, label: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(label)


def clear_process_caches() -> None:
    """Empty the process-wide trace intern cache and memo stores, so
    every pass starts cold."""
    from repro.gpu.memo import clear_memo_stores
    from repro.workloads.base import clear_trace_cache
    clear_trace_cache()
    clear_memo_stores()


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def speedup(cells: Dict[str, Any], workloads) -> float:
    """Geomean of Baseline/CPElide simulated cycles over ``workloads``."""
    logs = [math.log(cells[f"{w}/baseline@4"].wall_cycles
                     / cells[f"{w}/cpelide@4"].wall_cycles)
            for w in workloads]
    return math.exp(sum(logs) / len(logs))


#: What later passes keep: timings only.
TIMING_KEYS = ("wall", "served", "cell_seconds", "cold_wall", "warm_wall",
               "warm_cells")


def timed_passes(seconds: float, one_pass: Callable[[], Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
    """Whole passes until ``seconds`` have passed and the passes hold
    :data:`MIN_SAMPLES` cell timings."""
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or sum(len(p["cell_seconds"]) for p in passes) < MIN_SAMPLES):
        result = one_pass()
        if passes:
            # Only the first pass keeps its results (for the simulated
            # metrics), so peak RSS does not grow with the pass count.
            result = {key: value for key, value in result.items()
                      if key in TIMING_KEYS}
        passes.append(result)
    return passes


def throughput_metrics(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Cells served per second over every pass, and the median time of
    one computed cell."""
    cell_ms = [s * 1000.0 for p in passes for s in p["cell_seconds"]]
    return {"ops_per_s": (sum(p["served"] for p in passes)
                          / sum(p["wall"] for p in passes)),
            "op_p50_ms": percentile(cell_ms, 50)}


# ---------------------------------------------------------------------------
# fig8
# ---------------------------------------------------------------------------


def fig8_pass(order: List[str], checker: Checker,
              expected: Dict[str, str]) -> Dict[str, Any]:
    from repro.experiments import fig8

    clear_process_caches()
    stamps: List[float] = []

    def progress(message: str) -> None:
        if message.startswith("["):  # "[i/n] label (s)": a cell finished
            stamps.append(time.perf_counter())

    start = time.perf_counter()
    result = fig8.run(workloads=order, chiplet_counts=(4,),
                      scale=FIG8_SCALE, jobs=1, cache=False,
                      progress=progress)
    wall = time.perf_counter() - start
    cells = {f"{w}/{p}@{c}": r for (w, p, c), r in result.matrix.cells.items()}
    for label, res in cells.items():
        checker.result(f"fig8 {label}", expected.get(label), res.to_dict())
    cell_seconds = [b - a for a, b in zip([start] + stamps, stamps)]
    return {"wall": wall, "served": len(cells), "cells": cells,
            "sims": list(cells.values()), "cell_seconds": cell_seconds,
            "intervals": [(start, start + wall)]}


# ---------------------------------------------------------------------------
# memo-iter
# ---------------------------------------------------------------------------


def memo_pass(order: List[Tuple[str, str]], checker: Checker,
              expected: Dict[str, str]) -> Dict[str, Any]:
    """Each cell: a record pass then a replay pass, uncached. Every cell
    starts from empty process caches, so its cost does not depend on
    which cells ran before it (bfs and sssp share interned traces
    across protocols)."""
    from repro.api import GPUConfig, simulate

    config = GPUConfig(num_chiplets=4, scale=MEMO_SCALE)
    runs: List[Tuple[str, Any, Any]] = []
    cell_seconds: List[float] = []
    start = time.perf_counter()
    for workload, protocol in order:
        clear_process_caches()
        t0 = time.perf_counter()
        record = simulate(workload, protocol, config=config,
                          trace_path="memo")
        replay = simulate(workload, protocol, config=config,
                          trace_path="memo")
        cell_seconds.append(time.perf_counter() - t0)
        runs.append((f"{workload}/{protocol}@4", record, replay))
    wall = time.perf_counter() - start
    for label, record, replay in runs:
        for phase, res in (("record", record), ("replay", replay)):
            checker.result(f"memo-iter {label} {phase}",
                           expected.get(label), res.to_dict())
    return {"wall": wall, "served": len(runs),
            "cells": {label: record for label, record, _ in runs},
            "sims": [res for _, record, replay in runs
                     for res in (record, replay)],
            "cell_seconds": cell_seconds,
            "intervals": [(start, start + wall)]}


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def explore_points(seed: Optional[int]):
    from repro.experiments import explore

    points = explore.design_points(**EXPLORE_AXES)
    if seed is not None:
        random.Random(seed).shuffle(points)
    return points


def explore_label(outcome, labels: Dict[str, str]) -> str:
    return f"{outcome.job.label}:{labels[repr(outcome.job.config)]}"


def explore_cycle(points, tmp: str, checker: Checker,
                  expected: Dict[str, str]) -> Dict[str, Any]:
    """One cold pass on a fresh shared cache, then warm passes on it."""
    from repro.api import SharedResultCache, sweep
    from repro.experiments import explore

    clear_process_caches()
    spec = explore.seed_spec(points, EXPLORE_SCALE)
    labels = {repr(p.to_config(EXPLORE_SCALE)): p.label for p in points}
    root = tempfile.mkdtemp(prefix="explore-cache-", dir=tmp)
    cache = SharedResultCache(root=root)
    # (start, end) of each sweep: the cold one, then the warm ones.
    intervals: List[Tuple[float, float]] = []

    def timed_sweep():
        start = time.perf_counter()
        result = sweep(spec, workers=EXPLORE_WORKERS, cache=cache)
        intervals.append((start, time.perf_counter()))
        return result

    try:
        stats_before = cache.stats.snapshot()
        cold = timed_sweep()
        cells = [explore_label(o, labels) for o in cold.outcomes]
        cold_digests = [
            checker.result(f"explore {label}", expected.get(label),
                           o.result.to_dict())
            for label, o in zip(cells, cold.outcomes)]
        for _ in range(EXPLORE_WARM_PASSES):
            warm = timed_sweep()  # outcomes in spec order, as cold ones
            for label, outcome, cold_digest in zip(cells, warm.outcomes,
                                                   cold_digests):
                checker.result(f"explore warm {label}", cold_digest,
                               outcome.result.to_dict())
        stats = cache.stats.since(stats_before)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    walls = [end - start for start, end in intervals]
    return {"cold_wall": walls[0], "warm_wall": sum(walls[1:]),
            "wall": sum(walls), "served": len(cold.outcomes) * len(walls),
            "warm_cells": len(cold.outcomes) * (len(walls) - 1),
            "cold": cold, "sims": [o.result for o in cold.outcomes],
            "cell_seconds": [o.seconds for o in cold.outcomes],
            "stats": stats, "intervals": intervals}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def pool_label(cell: Dict[str, Any]) -> str:
    config = ",".join(f"{k}={v}" for k, v in sorted(cell["config"].items()))
    return (f"{cell['workload']}/{cell['protocol']}@{cell['chiplets']}"
            f" scale=1/{round(1 / cell['scale'])} {config}")


class Server:
    """One ``repro serve`` process on a fresh cache under ``tmp``."""

    def __init__(self, tmp: str, spans: Optional[str] = None) -> None:
        cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=tmp)
        args = ["serve", "--port", "0", "--cache-dir", cache_dir]
        if spans is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       spans] + args
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report its address: "
                               f"{line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def wait_done(self, job_id: str) -> Dict[str, Any]:
        """Block on the job's SSE stream until its ``done`` frame."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            event = None
            while True:
                line = response.readline()
                if not line:
                    raise RuntimeError(f"job {job_id}: stream ended early")
                line = line.rstrip(b"\r\n")
                if line.startswith(b"event: "):
                    event = line[7:]
                elif line.startswith(b"data: ") and event == b"done":
                    return json.loads(line[6:])
        finally:
            conn.close()

    def proc_stat(self) -> Tuple[float, float]:
        """(CPU seconds so far, peak RSS in MB) of the server process."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        hwm = 0.0
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) / 1024.0
        return cpu, hwm

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_job(server: Server, job: Tuple[str, Optional[Dict[str, Any]]]
            ) -> Dict[str, Any]:
    """One closed-loop job: submit, wait for ``done``, fetch the result.

    Its latency runs from the submit to the job's end in the server
    (``finished_at`` in ``/v1/jobs/{id}``; client and server share the
    host's clock), plus the result download. The ``done`` frame is left
    out: the server's event stream polls every 50 ms, which would round
    every latency to a step of 50 ms after the submit."""
    kind, cell = job
    if kind == "cold":
        path, body = "/v1/simulate", {
            key: cell[key] for key in ("workload", "protocol", "chiplets",
                                       "scale", "config")}
    else:
        path, body = "/v1/sweep", SERVE_WARM_SWEEP
    out: Dict[str, Any] = {"kind": kind, "cell": cell, "ok": False}
    submitted_at = time.time()
    start = time.perf_counter()
    code, raw = server.request("POST", path, body)
    out["submit_s"] = time.perf_counter() - start
    if code != 202:
        out["rejected"] = 400 <= code < 500
        return out
    job_id = json.loads(raw)["id"]
    done = server.wait_done(job_id)
    fetch = time.perf_counter()
    code, raw = server.request("GET", f"/v1/jobs/{job_id}/result")
    result_s = time.perf_counter() - fetch
    job_status = json.loads(server.request("GET", f"/v1/jobs/{job_id}")[1])
    out.update(latency_s=job_status["finished_at"] - submitted_at + result_s,
               result_s=result_s, body=raw,
               queue_s=job_status["queue_seconds"],
               run_s=job_status["run_seconds"],
               ok=(code == 200 and done.get("state") == "done"))
    return out


def closed_loop(server: Server, jobs: Iterator, *,
                seconds: Optional[float] = None) -> Dict[str, Any]:
    """``SERVE_CLIENTS`` clients, each submitting its next job only
    after the previous one completed. With ``seconds``, clients stop
    taking jobs once that long has passed, both classes have
    :data:`MIN_SAMPLES` completions and :data:`SERVE_RSS_JOBS` jobs
    have completed; otherwise they drain ``jobs``. The server's peak
    RSS is read when job :data:`SERVE_RSS_JOBS` completes (or at the
    end of a shorter loop)."""
    lock = threading.Lock()
    outcomes: List[Dict[str, Any]] = []
    rss: List[float] = []
    start = time.perf_counter()

    def enough() -> bool:
        if (seconds is None or time.perf_counter() - start < seconds
                or len(outcomes) < SERVE_RSS_JOBS):
            return False
        done = [o["kind"] for o in outcomes if o["ok"]]
        return min(done.count("cold"), done.count("warm")) >= MIN_SAMPLES

    def client() -> None:
        while True:
            with lock:
                job = None if enough() else next(jobs, None)
            if job is None:
                return
            try:
                outcome = run_job(server, job)
            except Exception as exc:  # a failed job is counted, not fatal
                outcome = {"kind": job[0], "cell": job[1], "ok": False,
                           "error": f"{type(exc).__name__}: {exc}"}
            with lock:
                outcomes.append(outcome)
                if len(outcomes) == SERVE_RSS_JOBS:
                    rss.append(server.proc_stat()[1])

    threads = [threading.Thread(target=client)
               for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return {"outcomes": outcomes, "start": start, "end": end,
            "rss_mb": rss[0] if rss else server.proc_stat()[1]}


def serve_schedule(seed: int, pool: List[Dict[str, Any]]) -> Iterator:
    """Seeded mix of cold and warm jobs in shuffled pairs, so each
    stretch of the schedule holds the two classes equally; cold jobs
    draw pool cells without replacement."""
    rng = random.Random(seed)
    cells = iter(rng.sample(pool, len(pool)))
    while True:
        pair = ["cold", "warm"]
        rng.shuffle(pair)
        for kind in pair:
            cell = next(cells, None) if kind == "cold" else None
            if kind == "cold" and cell is None:
                return
            yield (kind, cell)


def traced_schedule(seed: int, pool: List[Dict[str, Any]]) -> List:
    """Fixed jobs (the first pool cells plus as many warm jobs) in a
    seeded order, so every traced pass does the same work."""
    jobs = ([("cold", cell) for cell in pool[:SERVE_TRACED_JOBS]]
            + [("warm", None)] * SERVE_TRACED_JOBS)
    random.Random(seed).shuffle(jobs)
    return jobs


def check_serve(loop: Dict[str, Any], checker: Checker,
                digests: Dict[str, Any]) -> List[Any]:
    """Check every job's result bytes; return the cold results."""
    from repro.gpu.sim import SimulationResult

    pool = {pool_label(c): c["digest"] for c in digests["serve"]["pool"]}
    warm = digests["serve"]["warm"]
    sims = []
    for outcome in loop["outcomes"]:
        if not outcome["ok"]:
            checker.op(ok=False, label=f"serve {outcome['kind']} job: "
                       f"{outcome.get('error', 'not completed')}")
            continue
        results = json.loads(outcome["body"])["results"]
        if outcome["kind"] == "cold":
            label = pool_label(outcome["cell"])
            checker.result(f"serve cold {label}", pool.get(label), results[0])
            sims.append(SimulationResult.from_dict(results[0]))
        else:
            got = [digest(r) for r in results]
            checker.op(ok=(got == warm), label="serve warm sweep")
    return sims


def serve_session(tmp: str, jobs: Iterator, checker: Checker,
                  digests: Dict[str, Any], *, spans: Optional[str] = None,
                  seconds: Optional[float] = None) -> Dict[str, Any]:
    """Start a server, compute the warm sweep, run the load, stop."""
    server = Server(tmp, spans=spans)
    try:
        code, raw = server.request("POST", "/v1/sweep", SERVE_WARM_SWEEP)
        if code != 202:
            raise RuntimeError(f"warm sweep refused: {code} {raw[:200]!r}")
        server.wait_done(json.loads(raw)["id"])
        if spans is not None:
            server.proc.send_signal(signal.SIGUSR1)
            if server.proc.stdout.readline().strip() != "spans reset":
                raise RuntimeError("traced server did not reset its spans")
        cache_before = json.loads(server.request("GET", "/metrics")[1])
        cpu_before, _ = server.proc_stat()
        loop = closed_loop(server, jobs, seconds=seconds)
        cpu_after, _ = server.proc_stat()
        cache_after = json.loads(server.request("GET", "/metrics")[1])
    finally:
        server.stop()
    loop["sims"] = check_serve(loop, checker, digests)
    loop["cpu_s"] = cpu_after - cpu_before
    loop["cache"] = {k: cache_after["cache"][k] - cache_before["cache"][k]
                     for k in ("hits", "claims", "deduped")}
    return loop


def latencies_ms(loop: Dict[str, Any], kind: str,
                 field: str = "latency_s") -> List[float]:
    return [o[field] * 1000.0 for o in loop["outcomes"]
            if o["ok"] and (kind is None or o["kind"] == kind)]


def p90_or_none(samples: List[float]) -> Optional[float]:
    try:
        return percentile(samples, 90)
    except TooFewSamples:
        return None


def seeded_order(workload: str, seed: int):
    """The cells of one simulation pass, in the order ``seed`` gives."""
    if workload == "explore":
        return explore_points(seed)
    if workload == "fig8":
        from repro.workloads.suite import WORKLOAD_NAMES
        cells = list(WORKLOAD_NAMES)
    else:
        cells = [(w, p) for w in MEMO_WORKLOADS for p in MEMO_PROTOCOLS]
    return random.Random(seed).sample(cells, len(cells))


def sim_pass(workload: str, order, tmp: str, checker: Checker,
             digests: Dict[str, Any]) -> Dict[str, Any]:
    """One pass of ``fig8`` or ``memo-iter``, or one ``explore`` cycle."""
    if workload == "fig8":
        return fig8_pass(order, checker, digests["fig8"])
    if workload == "memo-iter":
        return memo_pass(order, checker, digests["memo-iter"])
    return explore_cycle(order, tmp, checker, digests["explore"])


# ---------------------------------------------------------------------------
# End-to-end runs (tracing off)
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, tmp: str,
                 checker: Checker) -> Tuple[Dict[str, float], List[str]]:
    """Returns the end-to-end metrics (less ``setup_s``) and report
    lines with the workload-specific metrics."""
    digests = load_digests()
    report: List[Tuple[str, Any, str]] = []
    if workload == "serve":
        loop = serve_session(tmp, serve_schedule(seed,
                                                 digests["serve"]["pool"]),
                             checker, digests, seconds=seconds)
        completed = sum(1 for o in loop["outcomes"] if o["ok"])
        cold = latencies_ms(loop, "cold")
        warm = latencies_ms(loop, "warm")
        tp = {"ops_per_s": completed / (loop["end"] - loop["start"]),
              "op_p50_ms": percentile(cold, 50)}
        report += [("cold_job_p50_ms", tp["op_p50_ms"],
                    f"ms (n={len(cold)})"),
                   ("cold_job_p90_ms", p90_or_none(cold), "ms"),
                   ("warm_job_p50_ms", percentile(warm, 50),
                    f"ms (n={len(warm)})"),
                   ("warm_job_p90_ms", p90_or_none(warm), "ms"),
                   ("jobs_per_s", tp["ops_per_s"], "jobs/s")]
    else:
        order = seeded_order(workload, seed)
        passes = timed_passes(seconds, lambda: sim_pass(
            workload, order, tmp, checker, digests))
        if workload == "explore":
            # Gated: every cell served, cold and warm, per second of
            # sweeping; reported: each kind of pass on its own.
            tp = throughput_metrics(passes)
            cold = (sum(len(c["cell_seconds"]) for c in passes)
                    / sum(c["cold_wall"] for c in passes))
            warm = (sum(c["warm_cells"] for c in passes)
                    / sum(c["warm_wall"] for c in passes))
            report += [("cells_per_s", cold, "cells/s"),
                       ("warm_cells_per_s", warm, "cells/s")]
        else:
            tp = throughput_metrics(passes)
            names = order if workload == "fig8" else MEMO_WORKLOADS
            report += [("cells_per_s", tp["ops_per_s"], "cells/s"),
                       ("cpelide_speedup", speedup(passes[0]["cells"], names),
                        "x (simulated)")]
    rss = loop["rss_mb"] if workload == "serve" else peak_rss_mb()
    metrics = {"peak_rss_mb": rss, "ops_per_s": tp["ops_per_s"],
               "op_p50_ms": tp["op_p50_ms"]}
    report = [("peak_rss_mb", rss, "MB"),
              ("error_rate", checker.failed / max(1, checker.attempted),
               f"fraction ({checker.failed}/{checker.attempted})")] + report
    lines = []
    for name, value, unit in report:
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        if name == "cpelide_speedup":
            unit += f"; paper {PAPER_CPELIDE_SPEEDUP:.2f}x, model unvalidated"
        lines.append(f"{workload}: {name} = {shown} {unit}")
    return metrics, lines


# ---------------------------------------------------------------------------
# Per-layer runs (tracing on)
# ---------------------------------------------------------------------------

ZERO = [0, 0.0, 0.0, 0, 0, 0]


def _own(ops, *names) -> float:
    return sum(ops.get(name, ZERO)[2] for name in names)


def _calls(ops, *names) -> int:
    return int(sum(ops.get(name, ZERO)[0] for name in names))


def layer_metrics(ops: Dict[str, List[float]], sims: List[Any],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from merged span aggregates (``ops``), the
    simulated results of the pass (``sims``) and workload-measured
    values (``extra``: engine lanes, server, overhead, other)."""
    from layers import BULK_OPS, PROTOCOL_OPS

    m: Dict[str, float] = {}
    intern = ops.get("workloads.interned_runs_for_arg", ZERO)
    m["workloads.trace_s"] = _own(
        ops, "workloads.build_workload", "workloads.prewarm_traces",
        "workloads.prewarm_workload_traces",
        "workloads.interned_runs_for_arg", "workloads.lines_for_arg")
    m["workloads.trace_calls"] = _calls(
        ops, "workloads.interned_runs_for_arg", "workloads.lines_for_arg")
    m["workloads.intern_hit_ratio"] = (intern[4] / intern[5]
                                       if intern[5] else 0.0)
    bulk = [f"memory.{name}" for name in BULK_OPS]
    m["memory.bulk_s"] = _own(ops, *bulk)
    m["memory.bulk_calls"] = _calls(ops, *bulk)
    lines = sum(ops.get(name, ZERO)[3] for name in bulk)
    m["memory.lines_per_bulk_call"] = (lines / m["memory.bulk_calls"]
                                       if m["memory.bulk_calls"] else 0.0)
    m["memory.scalar_s"] = _own(ops, "memory.access", "memory.lookup")
    m["coherence.self_s"] = _own(ops, *(f"coherence.{name}"
                                        for name in PROTOCOL_OPS))
    m["core.elision_s"] = _own(ops, "core.process_launch")
    m["cp.self_s"] = _own(ops, "cp.launch_next", "cp.complete")
    issued = elided = flushed = invalidated = 0
    kernels = hits = misses = bypasses = 0
    # fsum rounds exactly, so the sums do not depend on the cell order.
    cycles = math.fsum(sim.metrics.total_cycles for sim in sims)
    sync_cycles = math.fsum(sim.metrics.total_sync_cycles for sim in sims)
    for sim in sims:
        sync = sim.metrics.total_sync()
        issued += sync.acquires_issued + sync.releases_issued
        elided += sync.acquires_elided + sync.releases_elided
        flushed += sync.lines_flushed
        invalidated += sync.lines_invalidated
        kernels += sim.metrics.num_kernels
        hits += sim.memo_hits or 0
        misses += sim.memo_misses or 0
        bypasses += sim.memo_bypasses or 0
    m["coherence.sync_ops_issued"] = issued
    m["coherence.sync_ops_elided"] = elided
    m["coherence.lines_flushed"] = flushed
    m["coherence.lines_invalidated"] = invalidated
    m["timing.self_s"] = _own(ops, "timing.kernel_time",
                              "timing.sync_cycles", "timing.breakdown")
    m["timing.sync_cycle_frac"] = sync_cycles / cycles if cycles else 0.0
    sim_ops = ops.get("gpu.run", ZERO)
    m["gpu.self_s"] = sim_ops[2]
    m["gpu.kernels"] = kernels
    m["gpu.trace_lines"] = int(sim_ops[3])
    m["gpu.lines_per_s"] = sim_ops[3] / sim_ops[1] if sim_ops[1] else 0.0
    m["memo.lookup_s"] = _own(ops, "memo.lookup_key")
    m["memo.capture_s"] = _own(ops, "memo.begin_capture", "memo.end_capture")
    m["memo.replay_s"] = _own(ops, "memo.replay", "memo.flush_pending")
    m["memo.hits"] = hits
    m["memo.misses"] = misses
    m["memo.bypasses"] = bypasses
    m["memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["engine.cache_load_s"] = _own(ops, "engine.load", "engine.wait_for")
    m["engine.cache_store_s"] = _own(ops, "engine.store",
                                     "engine.store_and_release",
                                     "engine.acquire")
    m["engine.prewarm_s"] = _own(ops, "engine.prewarm_pending_traces")
    for name in metric_names("per_layer"):
        m.setdefault(name, 0 if name in COUNT_METRICS else 0.0)
    m.update(extra)
    return m


def lane_metrics(lanes: List[Dict[str, Any]], wall: float,
                 workers: int) -> Dict[str, float]:
    """Engine dispatch figures from the lanes that ran cells
    (``run_job_shared`` spans): forked workers or server threads."""
    cells = [lane["ops"].get("engine.run_job_shared", ZERO) for lane in lanes]
    cells = [c for c in cells if c[0]]
    busy = sum(c[1] for c in cells)
    counts = [c[0] for c in cells] + [0] * max(0, workers - len(cells))
    if not cells:
        return {}
    return {"engine.dispatch_s": wall - busy / workers,
            "engine.worker_busy_frac": busy / (workers * wall),
            "engine.shard_imbalance": max(counts) / (sum(counts)
                                                     / len(counts))}


#: ``layer.op`` spans that are result-cache calls.
RESULT_CACHE_OPS = ("engine.load", "engine.store", "engine.acquire",
                    "engine.store_and_release", "engine.wait_for")


def traced_pass(workload: str, order, recorder, tmp: str, checker: Checker,
                digests: Dict[str, Any], untraced_wall: float
                ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """One traced pass of ``workload``. Returns its per-layer metrics
    and the call counts the zero-call predictions read."""
    from layers import covered_seconds, load_lanes, merge_ops

    if workload == "serve":
        spans = os.path.join(tmp, f"server-spans-{time.monotonic_ns()}.json")
        loop = serve_session(tmp, iter(order), checker, digests, spans=spans)
        lanes = load_lanes([spans])
        wall = loop["end"] - loop["start"]
        ok = [o for o in loop["outcomes"] if o["ok"]]
        extra = lane_metrics(lanes, wall, workers=2)
        extra.update({
            "engine.cache_hits": loop["cache"]["hits"],
            "engine.claims": loop["cache"]["claims"],
            "engine.deduped": loop["cache"]["deduped"],
            "server.submit_ms": percentile(
                [o["submit_s"] * 1000.0 for o in ok], 50),
            "server.result_ms": percentile(
                latencies_ms(loop, None, "result_s"), 50),
            "server.cpu_util": loop["cpu_s"] / wall,
            "server.rejected": sum(1 for o in loop["outcomes"]
                                   if o.get("rejected")),
            "other_s": wall - covered_seconds(lanes, loop["start"],
                                              loop["end"]),
        })
        for kind in ("cold", "warm"):
            extra[f"server.queue_wait_ms_{kind}"] = percentile(
                latencies_ms(loop, kind, "queue_s"), 50)
            extra[f"server.run_ms_{kind}"] = percentile(
                latencies_ms(loop, kind, "run_s"), 50)
        sims = loop["sims"]
    else:
        recorder.reset()
        flush_dir = tempfile.mkdtemp(prefix="spans-", dir=tmp)
        recorder.fork_flush_dir = flush_dir
        result = sim_pass(workload, order, tmp, checker, digests)
        recorder.fork_flush_dir = None
        wall = result["wall"]
        children = load_lanes([os.path.join(flush_dir, name)
                               for name in sorted(os.listdir(flush_dir))])
        lanes = recorder.snapshot()["lanes"] + children
        # Timed work that no span covers, in this process or a worker.
        covered = sum(covered_seconds(lanes, start, end)
                      for start, end in result["intervals"])
        extra = {"other_s": wall - covered}
        if workload == "explore":
            extra.update(lane_metrics(children, result["cold_wall"],
                                      EXPLORE_WORKERS))
            extra.update({"engine.cache_hits": result["stats"].hits,
                          "engine.claims": result["stats"].claims,
                          "engine.deduped": result["stats"].deduped})
        sims = result["sims"]
    extra["trace_overhead"] = wall / untraced_wall - 1.0
    ops = merge_ops(lanes)
    calls = {"memo": _calls(ops, *(n for n in ops if n.startswith("memo."))),
             "result_cache": _calls(ops, *RESULT_CACHE_OPS)}
    return layer_metrics(ops, sims, extra), calls


def run_traced(workload: str, seed: int, tmp: str, checker: Checker
               ) -> Tuple[Dict[str, float], List[str]]:
    """An untraced reference pass, then two traced passes (the seeded
    order and its reverse). Returns per-layer metrics (times averaged
    over the traced passes) and report lines with the predictions."""
    from layers import Recorder, instrument

    digests = load_digests()
    if workload == "serve":
        order = traced_schedule(seed, digests["serve"]["pool"])
        loop = serve_session(tmp, iter(order), checker, digests)
        untraced_wall = loop["end"] - loop["start"]
    else:
        order = seeded_order(workload, seed)
        untraced_wall = sim_pass(workload, order, tmp, checker,
                                 digests)["wall"]

    # The load generator of ``serve`` runs no layer: its spans are
    # recorded inside the server process (serve_traced.py).
    recorder = Recorder()
    uninstall = instrument(recorder) if workload != "serve" else None
    try:
        passes = [traced_pass(workload, o, recorder, tmp, checker, digests,
                              untraced_wall)
                  for o in (order, order[::-1])]
    finally:
        if uninstall is not None:
            uninstall()

    metrics: Dict[str, float] = {}
    unrepeated = []
    (first, first_calls), (second, second_calls) = passes
    for name in metric_names("per_layer"):
        if name in COUNT_METRICS:
            metrics[name] = first[name]
            if first[name] != second[name]:
                unrepeated.append(f"{name} {first[name]} vs {second[name]}")
        else:
            metrics[name] = (first[name] + second[name]) / 2.0
    predictions = [("counts and simulated values repeat exactly across "
                    "two traced passes (seeded order, then reversed)",
                    not unrepeated, "; ".join(unrepeated))]
    if workload in ("fig8", "explore"):
        n = first_calls["memo"] + second_calls["memo"]
        predictions.append(("gpu.memo has zero calls", n == 0,
                            f"{n} calls"))
    if workload in ("fig8", "memo-iter"):
        n = first_calls["result_cache"] + second_calls["result_cache"]
        predictions.append(("result-cache calls are zero", n == 0,
                            f"{n} calls"))
    lines = [f"{workload}: prediction {'HOLDS' if ok else 'FAILS'}: {what}"
             + ("" if ok else f" [{detail}]")
             for what, ok, detail in predictions]
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def probe(workload: str) -> None:
    """Set-up as a user pays it: imports and spec build (``run.py``
    times fresh starts of this; ``serve`` is timed on the server)."""
    if workload == "fig8":
        from repro.engine.spec import SweepSpec
        from repro.experiments import fig8  # noqa: F401
        SweepSpec.grid(workloads=None, protocols=FIG8_PROTOCOLS,
                       chiplet_counts=(4,), scale=FIG8_SCALE)
    elif workload == "memo-iter":
        from repro.api import GPUConfig, simulate  # noqa: F401
        GPUConfig(num_chiplets=4, scale=MEMO_SCALE)
    elif workload == "explore":
        from repro.api import SharedResultCache, sweep  # noqa: F401
        from repro.experiments import explore
        explore.seed_spec(explore.design_points(**EXPLORE_AXES),
                          EXPLORE_SCALE)
    else:
        raise SystemExit(f"no probe for {workload!r}")
    print("ready", flush=True)


def write_digests() -> None:
    """Recompute every committed digest (serially, in-process). The
    serve pool's cell list is kept; only its digests are rewritten."""
    from repro.api import GPUConfig, simulate, sweep

    old = load_digests()
    out: Dict[str, Any] = {"fig8": {}, "memo-iter": {}, "explore": {},
                           "serve": {"warm": [], "pool": []}}
    checker = Checker()
    from repro.workloads.suite import WORKLOAD_NAMES
    for label, res in fig8_pass(list(WORKLOAD_NAMES), checker,
                                {})["cells"].items():
        out["fig8"][label] = digest(res.to_dict())
    cells = [(w, p) for w in MEMO_WORKLOADS for p in MEMO_PROTOCOLS]
    for label, res in memo_pass(cells, checker, {})["cells"].items():
        out["memo-iter"][label] = digest(res.to_dict())
    from repro.experiments import explore
    points = explore_points(None)
    labels = {repr(p.to_config(EXPLORE_SCALE)): p.label for p in points}
    result = sweep(explore.seed_spec(points, EXPLORE_SCALE), jobs=1,
                   cache=False)
    for outcome in result.outcomes:
        out["explore"][explore_label(outcome, labels)] = digest(
            outcome.result.to_dict())
    warm = SERVE_WARM_SWEEP
    result = sweep(workloads=warm["workloads"], protocols=warm["protocols"],
                   chiplet_counts=warm["chiplet_counts"],
                   scale=warm["scale"], jobs=1, cache=False)
    out["serve"]["warm"] = [digest(o.result.to_dict())
                            for o in result.outcomes]
    for cell in old["serve"]["pool"]:
        config = GPUConfig(num_chiplets=cell["chiplets"], scale=cell["scale"],
                           **cell["config"])
        res = simulate(cell["workload"], cell["protocol"], config=config)
        out["serve"]["pool"].append(dict(cell, digest=digest(res.to_dict())))
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    probe_p = sub.add_parser("probe")
    probe_p.add_argument("workload", choices=WORKLOADS)
    run_p = sub.add_parser("run")
    run_p.add_argument("workload", choices=WORKLOADS)
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--seconds", type=float, required=True)
    run_p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run_p.add_argument("--tmp", required=True)
    sub.add_parser("write-digests")
    args = parser.parse_args(argv)

    if args.mode == "probe":
        probe(args.workload)
        return 0
    if args.mode == "write-digests":
        write_digests()
        return 0
    from repro.bench import bench_environment

    checker = Checker()
    if args.trace:
        metrics, lines = run_traced(args.workload, args.seed, args.tmp,
                                    checker)
    else:
        metrics, lines = run_untraced(args.workload, args.seed,
                                      args.seconds, args.tmp, checker)
    if checker.mismatches:
        lines.append(f"{args.workload}: digest mismatches or failed "
                     f"operations: {checker.mismatches}")
    print(json.dumps({"metrics": metrics, "report": lines,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "environment": bench_environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
