"""Observability layer: tracer events, metric registry, exporters, CLI."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.obs import EventTracer, MetricRegistry, NULL_TRACER
from repro.obs.export import (
    chrome_trace,
    distributions_csv,
    events_jsonl,
    render_trace,
    sync_trace,
    text_summary,
    write_trace,
)
from repro.obs.metrics import Distribution
from repro.workloads.suite import build_workload
from tests.conftest import TEST_SCALE


@pytest.fixture(scope="module")
def traced():
    """One traced square/cpelide run shared by the read-only tests."""
    config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
    tracer = EventTracer()
    workload = build_workload("square", config)
    result = Simulator(config, "cpelide", tracer=tracer).run(workload)
    return tracer, result, len(workload.kernels)


class TestEventOrdering:
    def test_run_events_bracket_the_trace(self, traced):
        tracer, _, _ = traced
        assert tracer.events[0].kind == "run"
        assert tracer.events[0].phase == "begin"
        assert tracer.events[-1].kind == "run"
        assert tracer.events[-1].phase == "end"

    def test_sequence_numbers_strictly_increase(self, traced):
        tracer, _, _ = traced
        seqs = [e.seq for e in tracer.events]
        assert all(b > a for a, b in zip(seqs, seqs[1:]))

    def test_every_kernel_launches_then_completes(self, traced):
        tracer, _, num_kernels = traced
        launches = tracer.events_of("kernel", "launch")
        completes = tracer.events_of("kernel", "complete")
        assert len(launches) == num_kernels
        assert len(completes) == num_kernels
        by_index = {e.args["index"]: e.seq for e in launches}
        for e in completes:
            assert by_index[e.args["index"]] < e.seq

    def test_result_carries_aggregated_obs(self, traced):
        tracer, result, num_kernels = traced
        counters = tracer.metrics.aggregate().counters
        assert counters["kernel.launches"] == num_kernels
        # The run's metrics stay with the tracer, not on the result.
        assert not hasattr(result, "obs")


class TestExporters:
    def test_chrome_trace_is_valid_and_monotone(self, traced):
        tracer, _, num_kernels = traced
        doc = json.loads(json.dumps(chrome_trace(tracer)))
        events = doc["traceEvents"]
        body = [e for e in events if e["ph"] != "M"]
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)
        slices = [e for e in body if e["ph"] == "X"]
        assert len(slices) == num_kernels
        assert all(e["dur"] >= 0 for e in slices)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "kernels (per stream)" in names

    def test_jsonl_round_trips_every_event(self, traced):
        tracer, _, _ = traced
        lines = events_jsonl(tracer.events).strip().split("\n")
        assert len(lines) == len(tracer.events)
        first = json.loads(lines[0])
        assert first["kind"] == "run" and first["phase"] == "begin"

    def test_distributions_csv_has_header_and_rows(self, traced):
        tracer, _, _ = traced
        csv = distributions_csv(tracer.metrics.aggregate())
        lines = csv.strip().split("\n")
        assert lines[0] == "scope,name,count,total,mean,min,max"
        assert any("kernel.cycles" in line for line in lines[1:])

    def test_text_summary_includes_census_and_sync_trace(self, traced):
        tracer, _, _ = traced
        text = text_summary(tracer, limit=5)
        assert "events recorded:" in text
        assert "sync trace" in text

    def test_write_trace_infers_format_from_extension(self, traced, tmp_path):
        tracer, _, _ = traced
        assert write_trace(tracer, str(tmp_path / "t.json")) == "chrome"
        assert write_trace(tracer, str(tmp_path / "t.csv")) == "csv"
        assert write_trace(tracer, str(tmp_path / "t.jsonl")) == "jsonl"
        json.loads((tmp_path / "t.json").read_text())
        with pytest.raises(ConfigError):
            write_trace(tracer, str(tmp_path / "t.bin"), fmt="protobuf")


class TestMetricRegistry:
    def test_aggregate_sums_counters_maxes_gauges_merges_dists(self):
        root = MetricRegistry("sweep")
        for i, cycles in enumerate((100.0, 300.0)):
            child = root.child(f"run:{i}")
            child.count("sync.releases", 2)
            child.gauge("table.rows", 5 + i)
            child.observe("kernel.cycles", cycles)
        agg = root.aggregate()
        assert agg.counters["sync.releases"] == 4
        assert agg.gauges["table.rows"] == 6
        dist = agg.distributions["kernel.cycles"]
        assert (dist.count, dist.min, dist.max) == (2, 100.0, 300.0)
        assert dist.mean == 200.0

    def test_nested_aggregation_reaches_grandchildren(self):
        root = MetricRegistry("sweep")
        root.child("run:0").child("kernel:0").count("kernel.launches")
        assert root.aggregate().counters["kernel.launches"] == 1

    def test_to_dict_round_trip(self):
        root = MetricRegistry("sweep")
        child = root.child("run:0")
        child.count("a", 3)
        child.gauge("b", 7)
        child.observe("c", 1.5)
        rebuilt = MetricRegistry.from_dict(root.to_dict())
        assert rebuilt.to_dict() == root.to_dict()

    def test_empty_distribution_serializes_as_zeros(self):
        assert Distribution().to_dict() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}

    def test_aggregate_many(self):
        regs = []
        for _ in range(3):
            reg = MetricRegistry("run")
            reg.count("x")
            regs.append(reg)
        assert MetricRegistry.aggregate_many(regs).counters["x"] == 3


class TestSweepTracing:
    @staticmethod
    def check_sweep_records_cells_and_obs(config, **count):
        from repro.api import sweep

        tracer = EventTracer()
        res = sweep(workloads=("square",), protocols=("cpelide",),
                    configs=(config,), cache=False, tracer=tracer, **count)
        assert len(tracer.events_of("sweep", "begin")) == 1
        assert len(tracer.events_of("sweep", "cell-end")) == 1
        # In-process sweeps record full kernel-level detail inside the
        # cell, whichever name the process count goes by.
        assert tracer.events_of("kernel", "complete")
        counters = tracer.metrics.aggregate().counters
        assert counters["sweep.cells_executed"] == 1
        assert counters["kernel.launches"] == len(
            tracer.events_of("kernel", "launch"))
        assert not hasattr(res, "obs")

    def test_sweep_records_cells_and_obs(self, config):
        self.check_sweep_records_cells_and_obs(config, jobs=1)

    def test_sweep_records_cells_and_obs_given_workers(self, config):
        self.check_sweep_records_cells_and_obs(config, workers=1)

    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.sync_op(kind="release", chiplet=0, reason="",
                                   lines_flushed=0, lines_invalidated=0,
                                   boundary="launch") is None


class TestTraceCLI:
    def test_trace_chrome_export_to_file(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        rc = main(["--scale", str(TEST_SCALE), "trace", "square", "cpelide",
                   "--format", "chrome", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl", "csv", "text",
                                     "sync"])
    def test_trace_out_and_write_trace_bytes(self, traced, tmp_path, fmt):
        """``trace --out`` and :func:`write_trace` render each format
        alike, except that only the CLI ends Chrome JSON with a
        newline."""
        from repro.__main__ import main

        tracer, _, _ = traced
        expected = {
            "chrome": json.dumps(chrome_trace(tracer)),
            "jsonl": events_jsonl(tracer.events),
            "csv": distributions_csv(tracer.metrics.aggregate()),
            "text": text_summary(tracer) + "\n",
            "sync": sync_trace(tracer) + "\n",
        }[fmt]
        cli_out = tmp_path / f"cli.{fmt}"
        rc = main(["--scale", str(TEST_SCALE), "trace", "square", "cpelide",
                   "--format", fmt, "--out", str(cli_out)])
        assert rc == 0
        written = tmp_path / f"written.{fmt}"
        assert write_trace(tracer, str(written), fmt=fmt) == fmt
        cli_tail = "\n" if fmt == "chrome" else ""
        assert cli_out.read_bytes() == (expected + cli_tail).encode()
        assert written.read_bytes() == expected.encode()

    def test_trace_csv_to_stdout(self, capsys):
        from repro.__main__ import main

        rc = main(["--scale", str(TEST_SCALE), "trace", "square",
                   "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("scope,name,count,total,mean,min,max")


class TestSyncView:
    """``render_trace(..., "sync")`` refuses tracers it would misread."""

    def test_refuses_a_tracer_holding_no_run(self):
        with pytest.raises(ConfigError, match="holds 0"):
            render_trace(EventTracer(), "sync")

    def test_refuses_a_tracer_holding_several_runs(self):
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        tracer = EventTracer()
        workload = build_workload("square", config)
        for protocol in ("baseline", "cpelide"):
            Simulator(config, protocol, tracer=tracer).run(workload)
        with pytest.raises(ConfigError, match="holds 2"):
            render_trace(tracer, "sync")

    def test_refuses_a_memo_replay(self):
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        tracer = EventTracer()
        Simulator(config, "cpelide", trace_path="memo",
                  tracer=tracer).run(build_workload("hotspot", config))
        assert tracer.events_of("memo", "hit")
        with pytest.raises(ConfigError, match="replayed from the memo"):
            render_trace(tracer, "sync")
