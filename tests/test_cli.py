"""Tests for the two command-line interfaces."""

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main


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
