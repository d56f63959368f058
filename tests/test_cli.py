"""Tests for the two command-line interfaces."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.__main__
from repro.__main__ import main as repro_main
from repro.errors import CacheError, InvariantViolation
from repro.experiments.__main__ import main as experiments_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReproCLI:
    def test_list(self, capsys):
        assert repro_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "babelstream" in out
        assert "cpelide" in out
        assert "streams" in out

    def test_run_compares_protocols(self, capsys):
        rc = repro_main(["--scale", "0.015625", "run", "square",
                         "--protocols", "baseline", "cpelide"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "square on 4 chiplets" in out
        assert "cpelide" in out

    def test_run_with_locality_scheduler(self, capsys):
        rc = repro_main(["--scale", "0.015625", "run", "square",
                         "--protocols", "cpelide",
                         "--scheduler", "locality"])
        assert rc == 0

    def test_trace(self, capsys):
        rc = repro_main(["--scale", "0.015625", "trace", "square",
                         "--limit", "5"])
        assert rc == 0
        assert "sync trace" in capsys.readouterr().out

    def test_occupancy_subset(self, capsys):
        rc = repro_main(["--scale", "0.015625", "occupancy", "square",
                         "nw"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "square" in out and "nw" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "crysis"])

    def test_check_small_matrix(self, capsys):
        rc = repro_main(["--scale", "0.015625", "check",
                         "--workloads", "square",
                         "--protocols", "cpelide",
                         "--trace-paths", "line", "run"])
        assert rc == 0
        assert "oracle OK" in capsys.readouterr().out

    def test_check_with_sanitizer(self, capsys):
        rc = repro_main(["--scale", "0.015625", "check", "--sanitize",
                         "--workloads", "square",
                         "--protocols", "cpelide",
                         "--trace-paths", "line", "run"])
        assert rc == 0
        assert "oracle OK" in capsys.readouterr().out

    def test_check_rejects_unknown_trace_path(self):
        with pytest.raises(SystemExit):
            repro_main(["check", "--trace-paths", "line", "bogus"])

    def test_chiplet_override(self, capsys):
        rc = repro_main(["--scale", "0.015625", "--chiplets", "2",
                         "run", "square", "--protocols", "baseline"])
        assert rc == 0
        assert "2 chiplets" in capsys.readouterr().out

    def test_refusal_prints_its_reason_alone(self, tmp_path):
        """A ConfigError (here: the sync view refusing memo replays)
        ends ``python -m repro`` with one stderr line and exit 2."""
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                   REPRO_CACHE_DIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--scale", "0.00390625",
             "trace", "hotspot", "--format", "sync", "--trace-path", "memo"],
            capture_output=True, text=True, cwd=ROOT, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("repro: error: kernel ")
        assert proc.stderr.count("\n") == 1

    def test_simulator_bugs_keep_their_traceback(self, monkeypatch):
        def broken(args):
            raise InvariantViolation("a coherence invariant failed")

        monkeypatch.setattr(repro.__main__, "cmd_list", broken)
        with pytest.raises(InvariantViolation):
            repro_main(["list"])


class TestDistCLI:
    def test_run_then_expect_cached(self, capsys, tmp_path):
        base = ["--scale", "0.015625", "dist", "--workloads", "square",
                "--protocols", "cpelide", "--workers", "2",
                "--cache-dir", str(tmp_path / "c")]
        assert repro_main(base) == 0
        assert repro_main(base + ["--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "served from in-flight" in out

    def test_expect_cached_fails_cold(self, tmp_path):
        rc = repro_main(["--scale", "0.015625", "dist", "--workloads",
                         "square", "--protocols", "cpelide",
                         "--cache-dir", str(tmp_path / "c"),
                         "--expect-cached"])
        assert rc == 1

    def test_scatter_work_gather(self, capsys, tmp_path):
        work_dir = str(tmp_path / "wd")
        common = ["--scale", "0.015625"]
        assert repro_main(common + ["dist", "--mode", "scatter",
                                    "--work-dir", work_dir,
                                    "--workloads", "square",
                                    "--protocols", "cpelide"]) == 0
        assert repro_main(common + ["dist", "--mode", "work",
                                    "--work-dir", work_dir]) == 0
        assert repro_main(common + ["dist", "--mode", "gather",
                                    "--work-dir", work_dir]) == 0
        out = capsys.readouterr().out
        assert "scattered" in out
        assert "executed" in out

    def test_modes_require_work_dir(self):
        assert repro_main(["dist", "--mode", "work"]) == 2

    def test_rescattered_spec_leaves_nothing_to_run(self, capsys, tmp_path):
        """Units are content-keyed: the same spec scattered again into a
        worked directory finds every unit finished."""
        scatter = ["--scale", "0.00390625", "dist", "--mode", "scatter",
                   "--work-dir", str(tmp_path / "wd"),
                   "--workloads", "square", "--protocols", "cpelide"]
        work = ["dist", "--mode", "work", "--work-dir", str(tmp_path / "wd")]
        assert repro_main(scatter) == 0
        assert repro_main(work) == 0
        assert "executed 1 units" in capsys.readouterr().out
        assert repro_main(scatter) == 0
        assert repro_main(work) == 0
        assert "executed 0 units" in capsys.readouterr().out

    def test_unfinished_gather_is_refused_in_one_line(self, capsys,
                                                      tmp_path):
        work_dir = str(tmp_path / "wd")
        assert repro_main(["--scale", "0.00390625", "dist", "--mode",
                           "scatter", "--work-dir", work_dir,
                           "--workloads", "square",
                           "--protocols", "cpelide"]) == 0
        capsys.readouterr()
        assert repro_main(["dist", "--mode", "gather",
                           "--work-dir", work_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"repro: error: gather({work_dir}): 1 "
                                f"unit(s) not finished yet: [0]\n")


class TestExploreCLI:
    def test_quick_tiny_grid(self, capsys, tmp_path):
        rc = repro_main(["explore", "--chiplet-counts", "2", "4",
                         "--table-windows", "4", "--l2-mb", "4",
                         "--workloads", "square",
                         "--rungs", "0.015625", "--workers", "1",
                         "--cache-dir", str(tmp_path / "c"),
                         "--out", str(tmp_path / "explore.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto exploration" in out
        assert (tmp_path / "explore.json").exists()


class TestBenchEnvironment:
    def test_environment_stamp_fields(self):
        from repro.bench import bench_environment

        env = bench_environment()
        assert set(env) == {"python", "numpy", "cpu_count", "platform",
                            "hostname_hash"}
        assert env["cpu_count"] >= 1
        assert len(env["hostname_hash"]) == 8

    def test_compare_environments_flags_mismatches(self):
        from repro.bench import bench_environment, compare_environments

        env = bench_environment()
        report = {"meta": {"environment": env}}
        same = {"meta": {"environment": dict(env)}}
        assert compare_environments(report, same) == []
        other = dict(env, cpu_count=env["cpu_count"] + 63)
        diffs = compare_environments(report,
                                     {"meta": {"environment": other}})
        assert len(diffs) == 1
        assert "cpu_count" in diffs[0]
        legacy = compare_environments(report, {"meta": {}})
        assert "predates the stamp" in legacy[0]

    def test_check_dist_scaling_gates(self):
        from repro.bench import check_dist_scaling

        # Timed with fewer CPUs than workers: refused, whatever the
        # efficiency says.
        starved = {"workers": 2, "usable_workers": 1, "efficiency": 0.9,
                   "speedup": 0.9, "identical": True}
        report = {
            "counts": [starved],
            "warm": {"executed": 0, "identical": True},
            "aggregate": {"max_efficiency": 0.9, "warm_speedup": 10.0},
            "meta": {"worker_counts": [2]},
        }
        ok, message = check_dist_scaling(report, min_efficiency=0.5)
        assert not ok and "cpu_count 1" in message
        cell = dict(starved, usable_workers=2, speedup=1.8)
        report = dict(report, counts=[cell])
        ok, message = check_dist_scaling(report, min_efficiency=0.5)
        assert ok and "scaling ok" in message
        bad = dict(report, counts=[dict(cell, efficiency=0.1)])
        ok, message = check_dist_scaling(bad, min_efficiency=0.5)
        assert not ok and "efficiency" in message
        recomputed = dict(report,
                          warm={"executed": 3, "identical": True})
        ok, message = check_dist_scaling(recomputed)
        assert not ok and "recomputed" in message

    def test_check_speedup_gates(self):
        from repro.bench import check_speedup

        fast = {"workload": "square", "protocol": "cpelide",
                "speedup": 4.0}
        report = {"aggregate": {"speedup": 4.0}, "cells": [fast]}
        ok, message = check_speedup(report, "line-vs-run", 1.0, 0.95)
        assert ok and "line-vs-run" in message
        low = dict(report, aggregate={"speedup": 0.9})
        ok, message = check_speedup(low, "line-vs-run", 1.0, 0.95)
        assert not ok and "aggregate speedup 0.90x" in message
        # One slow cell fails the gate though the aggregate clears it.
        slow = dict(report, cells=[fast, dict(fast, workload="bfs",
                                              speedup=0.5)])
        ok, message = check_speedup(slow, "memo-vs-run", 1.0, 0.95)
        assert not ok and "bfs/cpelide" in message
        assert "square" not in message


#: Keys of a tracing-overhead report (``bench --sweep obs``), per
#: section. Nothing is committed to compare it with; the aggregate's
#: ``run_seconds`` alias is not pinned (nothing reads it).
OBS_REPORT_KEYS = {
    "report": {"benchmark", "sweep", "meta", "cells", "aggregate"},
    "meta": {"scale", "chiplets", "repeats", "jobs", "workloads",
             "protocols", "python", "environment", "timestamp"},
    "environment": {"python", "numpy", "cpu_count", "platform",
                    "hostname_hash"},
    "cells": {"workload", "protocol", "lines", "events", "null_seconds",
              "traced_seconds", "traced_overhead", "identical"},
    "aggregate": {"lines", "events", "null_seconds", "traced_seconds",
                  "traced_overhead"},
}


def _report_keys(report):
    """A bench report's keys per section (cells: the union over cells)."""
    return {
        "report": set(report),
        "meta": set(report["meta"]),
        "environment": set(report["meta"]["environment"]),
        "cells": set().union(*(set(cell) for cell in report["cells"])),
        "aggregate": set(report["aggregate"]),
    }


class TestBenchSweeps:
    """The paired timing sweeps (line vs run, run vs memo, null vs
    recording tracer) through ``bench``, on one tiny cell each."""

    @pytest.fixture
    def tiny_bench(self, monkeypatch, tmp_path):
        """Run ``bench`` on square/cpelide at 1/256, one repetition;
        returns ``(rc, {sweep: report})``."""
        import json

        from repro import bench

        monkeypatch.setattr(bench, "BENCH_PROTOCOLS", ["cpelide"])
        paths = {"trace": tmp_path / "trace.json",
                 "memo": tmp_path / "memo.json",
                 "obs": tmp_path / "obs.json"}

        def run(sweep, *extra):
            rc = repro_main([
                "--scale", "0.00390625", "bench", "--sweep", sweep,
                "--workloads", "square", "--repeats", "1",
                "--out", str(paths["trace"]),
                "--memo-out", str(paths["memo"]),
                "--obs-out", str(paths["obs"]), *extra])
            return rc, {name: json.loads(path.read_text())
                        for name, path in paths.items() if path.exists()}
        return run

    def test_reports_keep_every_key(self, tiny_bench):
        import json
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        rc, reports = tiny_bench("both")
        assert rc == 0
        rc, obs = tiny_bench("obs")
        assert rc == 0
        reports["obs"] = obs["obs"]
        expected = {
            "trace": _report_keys(json.loads(
                (root / "BENCH_trace.json").read_text())),
            "memo": _report_keys(json.loads(
                (root / "BENCH_memo.json").read_text())),
            "obs": OBS_REPORT_KEYS,
        }
        for sweep, report in reports.items():
            keys = _report_keys(report)
            for section, names in expected[sweep].items():
                assert names <= keys[section], (sweep, section)
            assert [cell["workload"] for cell in report["cells"]] == [
                "square"]
            assert all(cell["identical"] is True
                       for cell in report["cells"])
        assert reports["memo"]["meta"]["repeats"] == 2

    def test_check_fails_a_sweep_below_its_floor(self, tiny_bench):
        rc, reports = tiny_bench("trace", "--check", "--min-speedup", "1e9")
        assert rc == 1
        assert reports["trace"]["cells"][0]["identical"] is True
        rc, _ = tiny_bench("trace", "--check", "--min-speedup", "0",
                           "--min-cell-speedup", "1e9")
        assert rc == 1

    @pytest.mark.parametrize("sweep, perturbs", [
        ("trace", "line"), ("trace", "run-lines"), ("memo", "memo"),
        ("memo", "memo-recording"), ("obs", "traced")])
    def test_a_diverging_side_raises(self, tiny_bench, monkeypatch,
                                     sweep, perturbs):
        """One side's result (or trace-line count) perturbed on every
        repetition, or only on the memo sweep's untimed recording
        repetition, fails the sweep."""
        from repro.bench import EquivalenceError
        from repro.gpu.sim import Simulator
        from repro.gpu.trace_path import TracePath
        from repro.obs import EventTracer

        original = Simulator.run
        memo_runs = []

        def run(sim, workload):
            result = original(sim, workload)
            if sim.trace_path is TracePath.MEMO:
                memo_runs.append(sim)
            hit = {
                "line": sim.trace_path is TracePath.LINE,
                "run-lines": (sim.trace_path is TracePath.RUN
                              and not isinstance(sim.tracer, EventTracer)),
                "memo": sim.trace_path is TracePath.MEMO,
                "memo-recording": memo_runs == [sim],
                "traced": isinstance(sim.tracer, EventTracer),
            }[perturbs]
            if hit and perturbs == "run-lines":
                sim.last_trace_lines += 1
            elif hit:
                result.wall_cycles += 1.0
            return result

        monkeypatch.setattr(Simulator, "run", run)
        with pytest.raises(EquivalenceError):
            tiny_bench(sweep)


class TestExperimentsCLI:
    def test_table1(self, capsys):
        assert experiments_main(["table1"]) == 0
        assert "1801 MHz" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert experiments_main(["table3"]) == 0
        assert "CPElide" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])

    def test_scale_flag_threads_through(self, capsys):
        assert experiments_main(["scheduler", "--scale", "0.015625"]) == 0
        assert "Scheduler ablation" in capsys.readouterr().out

    def test_refusal_prints_its_reason_alone(self, capsys):
        """A ConfigError ends ``python -m repro.experiments`` with one
        stderr line and exit 2, as in ``python -m repro``."""
        argv = ["capacity", "--scale", "0", "--no-cache"]
        assert experiments_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("repro.experiments: error: scale must be "
                                "in (0, 1], got 0.0\n")

    def test_cache_errors_refuse_and_simulator_bugs_raise(self, capsys,
                                                          monkeypatch):
        from repro.experiments import __main__ as experiments_cli

        def refused(args):
            raise CacheError("the cache refused")

        def broken(args):
            raise InvariantViolation("a coherence invariant failed")

        monkeypatch.setitem(experiments_cli.EXPERIMENTS, "table1", refused)
        assert experiments_main(["table1"]) == 2
        assert capsys.readouterr().err == \
            "repro.experiments: error: the cache refused\n"
        monkeypatch.setitem(experiments_cli.EXPERIMENTS, "table1", broken)
        with pytest.raises(InvariantViolation):
            experiments_main(["table1"])

    def test_capacity_second_run_computes_nothing(self, capsys, tmp_path,
                                                 monkeypatch):
        """``--jobs``/``--no-cache`` reach capacity: a second run over
        the same cache directory is served whole."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["capacity", "--scale", "0.00390625", "--jobs", "2"]
        assert experiments_main(argv) == 0
        assert "8 jobs: 0 cache hits" in capsys.readouterr().out
        assert experiments_main(argv) == 0
        assert ("8 jobs: 8 cache hits, 0 served from in-flight, 0 run"
                in capsys.readouterr().out)
