"""Tests for the analysis tooling: occupancy, the sync view of a traced
run, charts."""

import re

import pytest

from repro.analysis.charts import bar_chart, grouped_bar_chart
from repro.analysis.occupancy import profile_table_occupancy
from repro.api import simulate
from repro.cp.packets import AccessMode
from repro.gpu.config import GPUConfig
from repro.memory.address import AddressSpace
from repro.obs import EventTracer
from repro.obs.export import render_trace
from repro.workloads.base import Kernel, KernelArg, Workload
from repro.workloads.suite import build_workload

from tests.conftest import TEST_SCALE

CONFIG = GPUConfig(num_chiplets=4, scale=TEST_SCALE)


def iterative_workload(iterations=6):
    space = AddressSpace()
    buf = space.alloc("A", 16 * 4096)
    kernels = [Kernel("step", args=(KernelArg(buf, AccessMode.RW),))
               for _ in range(iterations)]
    return Workload(name="iter", space=space, kernels=kernels)


class TestOccupancyProfile:
    def test_iterative_workload_single_entry(self):
        profile = profile_table_occupancy(iterative_workload(), CONFIG)
        assert profile.peak_entries == 1
        assert profile.never_overflows
        assert profile.elision_rate == 1.0
        assert len(profile.occupancy) == 6

    def test_real_workload_within_paper_bounds(self):
        profile = profile_table_occupancy(
            build_workload("rnn-lstm-large", CONFIG), CONFIG)
        assert profile.peak_entries <= 11
        assert profile.never_overflows

    def test_issued_ops_counted(self):
        space = AddressSpace()
        buf = space.alloc("A", 16 * 4096)
        kernels = [
            Kernel("produce", args=(KernelArg(buf, AccessMode.RW),)),
            Kernel("consume", args=(KernelArg(buf, AccessMode.R),),
                   num_wgs=1),
        ]
        workload = Workload(name="pc", space=space, kernels=kernels)
        profile = profile_table_occupancy(workload, CONFIG)
        assert profile.releases_issued > 0


def traced_sync_view(workload, protocol, limit=None):
    """``(sync view, result)`` of one traced run of ``workload``."""
    tracer = EventTracer()
    result = simulate(workload, protocol, config=CONFIG, tracer=tracer)
    return render_trace(tracer, "sync", limit=limit), result


def boundaries_and_silent_percent(view):
    match = re.search(r"over (\d+) boundaries \((\d+)% silent\)", view)
    return int(match.group(1)), int(match.group(2))


class TestSyncTrace:
    def test_cpelide_trace_mostly_silent_on_iterative(self):
        view, _ = traced_sync_view(iterative_workload(8), "cpelide")
        boundaries, silent = boundaries_and_silent_percent(view)
        assert boundaries == 8
        assert silent >= 90

    def test_baseline_trace_never_silent(self):
        view, _ = traced_sync_view(iterative_workload(4), "baseline")
        # One silent boundary of four would read 25%.
        assert boundaries_and_silent_percent(view) == (4, 0)
        ops = view.splitlines()[1:]
        verbs = {line.split()[3] for line in ops}
        assert verbs == {"invalidate", "flush"}

    def test_trace_carries_reasons(self):
        space = AddressSpace()
        buf = space.alloc("A", 16 * 4096)
        kernels = [
            Kernel("produce", args=(KernelArg(buf, AccessMode.RW),)),
            Kernel("consume", args=(KernelArg(buf, AccessMode.R),),
                   num_wgs=1),
        ]
        workload = Workload(name="pc", space=space, kernels=kernels)
        view, _ = traced_sync_view(workload, "cpelide")
        assert "[remote-consumer]" in view

    def test_render_truncation(self):
        full, _ = traced_sync_view(iterative_workload(4), "baseline")
        view, _ = traced_sync_view(iterative_workload(4), "baseline", limit=3)
        ops = len(full.splitlines()) - 1
        lines = view.splitlines()
        assert lines[:4] == full.splitlines()[:4]
        assert lines[4:] == [f"... {ops - 3} more"]

    def test_result_attached(self):
        _, result = traced_sync_view(iterative_workload(4), "cpelide")
        assert result.wall_cycles > 0


class TestCharts:
    def test_bar_chart_renders_all_labels(self):
        chart = bar_chart({"baseline": 1.0, "cpelide": 1.2}, title="t")
        assert "baseline" in chart and "cpelide" in chart
        assert "1.200" in chart

    def test_bar_lengths_monotone(self):
        chart = bar_chart({"small": 1.0, "big": 2.0})
        small_line, big_line = chart.splitlines()
        assert small_line.count("█") < big_line.count("█")

    def test_bar_chart_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"x": -1.0})

    def test_grouped_chart(self):
        chart = grouped_bar_chart(
            {"app1": {"C": 1.1, "H": 0.9}, "app2": {"C": 1.3, "H": 1.0}},
            title="fig8")
        assert "app1" in chart and "app2" in chart
        assert "ref" in chart  # reference line at 1.0

    def test_grouped_chart_rejects_empty(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})
