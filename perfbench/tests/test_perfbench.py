"""Self-tests of the benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The smoke and seed tests shrink the cell sets and scales and commit
their own digests to a temporary file, so they exercise every workload's
real code path (server and forked workers included) in about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

TINY = 1 / 2048


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def printed_names_and_units(metrics, trace):
    """Names and units of the last line a run prints for ``metrics``."""
    line = run.result_object({"attempted": 1, "failed": 0}, metrics, trace)
    return [(name, m["unit"]) for name, m in line["metrics"].items()]


def test_metric_names_and_units_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(worker.WORKLOADS)
    assert worker.COUNT_METRICS <= set(worker.metric_names("per_layer"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = worker.metric_names(section)
        assert names == [m["name"] for m in BENCH[section]]
        assert (printed_names_and_units(dict.fromkeys(names, 1.0), trace)
                == [(m["name"], m["unit"]) for m in BENCH[section]])


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile(list(range(19)), 50)
    assert benchstats.percentile(list(range(20)), 50) == 9
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile(list(range(99)), 90)
    assert benchstats.percentile(list(range(100)), 90) == 89


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    stats = benchstats.quartile_spread(values)
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats["spread"] == pytest.approx((q3 - q1)
                                            / statistics.median(values))


def test_self_time_on_hand_built_span_tree():
    now = [0.0]
    recorder = layers.Recorder(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = recorder.wrap(("t", "leaf"), lambda: tick(1))

    def _mid():
        tick(1)
        leaf()
        tick(1)

    mid = recorder.wrap(("t", "mid"), _mid)

    def _outer():
        tick(1)
        mid()     # [1, 4], leaf [2, 3]
        tick(1)
        mid()     # [5, 8], leaf [6, 7]
        tick(2)   # outer ends at 10

    recorder.wrap(("t", "outer"), _outer)()
    ops = layers.merge_ops(recorder.snapshot()["lanes"])
    # [calls, inclusive, self, ...]
    assert ops["t.outer"][:3] == [1, 10.0, 4.0]
    assert ops["t.mid"][:3] == [2, 6.0, 4.0]
    assert ops["t.leaf"][:3] == [2, 2.0, 2.0]
    assert layers.covered_seconds(recorder.snapshot()["lanes"]) == 10.0


def test_transparent_span_covers_only_its_nested_spans():
    now = [0.0]
    recorder = layers.Recorder(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = recorder.wrap(("t", "leaf"), lambda: tick(2))
    inner = recorder.wrap(("t", "inner"), lambda: (tick(1), leaf()))

    def _runner():
        tick(1)
        inner()   # [1, 4], leaf [2, 4]
        tick(3)
        leaf()    # [7, 9]
        tick(1)   # runner ends at 10

    recorder.wrap(("t", "runner"), _runner, transparent=True)()
    lanes = recorder.snapshot()["lanes"]
    ops = layers.merge_ops(lanes)
    assert ops["t.runner"][:3] == [1, 10.0, 5.0]
    assert lanes[0]["top"] == [(1.0, 4.0), (7.0, 9.0)]
    assert layers.covered_seconds(lanes) == 5.0


def test_same_key_nesting_is_counted_once():
    recorder = layers.Recorder(clock=lambda: 0.0)
    calls = []

    def base():
        calls.append("base")

    wrapped_base = recorder.wrap(("t", "op"), base)

    def override():
        calls.append("override")
        wrapped_base()  # an override calling its wrapped base method

    recorder.wrap(("t", "op"), override)()
    assert calls == ["override", "base"]
    assert layers.merge_ops(recorder.snapshot()["lanes"])["t.op"][0] == 1


def test_covered_seconds_unions_and_clips():
    lanes = [{"top": [(0.0, 2.0), (1.0, 3.0)]}, {"top": [(5.0, 6.0)]}]
    assert layers.covered_seconds(lanes) == 4.0
    assert layers.covered_seconds(lanes, 1.0, 5.5) == 2.5


def test_child_env_strips_repro_variables(monkeypatch):
    for name in run.STRIPPED_ENV:
        monkeypatch.setenv(name, "1")
    env = run.child_env("scratch")
    assert not set(run.STRIPPED_ENV) & set(env)
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["TMPDIR"] == "scratch"


def test_judge_follows_unresolved_vs_unchanged_rule():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8]
    assert run.judge(steady, [v * 1.3 for v in steady], "lower",
                     0.1).startswith("WORSE")
    assert run.judge(steady, [v * 1.01 for v in steady], "lower",
                     0.1).startswith("unchanged")
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert run.judge(noisy, [v * 1.01 for v in noisy], "lower",
                     0.1) == "unresolved"
    assert run.judge(noisy, [10.0] * 8, "lower",
                     0.1) == "better in every run"


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Shrunk cell sets at a tiny scale, with their own digests."""
    tmp = tmp_path_factory.mktemp("perfbench")
    committed = worker.load_digests()["serve"]["pool"]
    base_cells = [c for c in committed if c["scale"] == 1 / 256]
    pool = [dict(cell, scale=TINY) for cell in base_cells[:60]]
    patch = pytest.MonkeyPatch()
    for name, value in {
            "DIGESTS_PATH": tmp / "digests.json",
            "FIG8_SCALE": TINY,
            "MEMO_SCALE": TINY,
            "MEMO_WORKLOADS": ("bfs", "hotspot"),
            "EXPLORE_SCALE": TINY,
            "EXPLORE_AXES": {"chiplet_counts": (2, 4), "table_windows": (4,),
                             "l2_mb": (4,)},
            "EXPLORE_WARM_PASSES": 2,
            "SERVE_WARM_SWEEP": dict(worker.SERVE_WARM_SWEEP, scale=TINY),
            "SERVE_TRACED_JOBS": 20}.items():
        patch.setattr(worker, name, value)
    import repro.workloads.suite
    patch.setattr(repro.workloads.suite, "WORKLOAD_NAMES",
                  ["hotspot", "bfs", "lud", "square"])
    patch.setenv("PYTHONPATH", str(ROOT / "src"))
    for name in run.STRIPPED_ENV:
        patch.delenv(name, raising=False)
    (tmp / "digests.json").write_text(json.dumps(
        {"fig8": {}, "memo-iter": {}, "explore": {},
         "serve": {"warm": [], "pool": pool}}))
    worker.write_digests()
    yield str(tmp)
    patch.undo()


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_tiny_smoke_run(tiny, workload):
    checker = worker.Checker()
    metrics, lines = worker.run_untraced(workload, 1, 0.0, tiny, checker)
    assert checker.attempted > 0 and checker.failed == 0, lines
    assert set(metrics) == set(worker.metric_names("end_to_end")) - {
        "setup_s"}
    assert all(value > 0 for value in metrics.values())
    assert (printed_names_and_units(dict(metrics, setup_s=1.0), 0)
            == [(m["name"], m["unit"]) for m in BENCH["end_to_end"]])


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_two_seeds_give_identical_digests_and_simulated_values(tiny,
                                                               workload):
    counts = []
    for seed in (1, 2):
        checker = worker.Checker()
        metrics, lines = worker.run_traced(workload, seed, tiny, checker)
        # Every result matched the committed digest, so both seeds
        # produced byte-identical results, traced and untraced.
        assert checker.attempted > 0 and checker.failed == 0
        assert set(metrics) == set(worker.metric_names("per_layer"))
        assert not [line for line in lines if "FAILS" in line], lines
        counts.append({name: metrics[name] for name in worker.COUNT_METRICS})
    assert counts[0] == counts[1]
