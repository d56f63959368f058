"""Smoke + behavioural tests for the experiment harnesses (tiny scale)."""

import pytest

from repro.engine.cache import SharedResultCache
from repro.experiments import capacity, fig2, fig8, fig9, fig10
from repro.experiments import hmg_writeback, multistream, range_flush, reuse
from repro.experiments import runner, scaling, table1, table3

from tests.conftest import TEST_SCALE

#: A fast, representative subset for harness tests.
SUBSET = ("square", "btree")


class TestRunner:
    def test_matrix_speedup_normalization(self):
        matrix = runner.run_matrix(workloads=SUBSET, scale=TEST_SCALE)
        assert matrix.speedup_over_baseline("square", "baseline", 4) \
            == pytest.approx(1.0)
        assert matrix.speedup_over_baseline("square", "cpelide", 4) > 0

    def test_matrix_workload_order(self):
        matrix = runner.run_matrix(workloads=SUBSET, scale=TEST_SCALE)
        assert matrix.workloads() == list(SUBSET)


class TestFig2:
    def test_chiplet_gpu_slower_than_monolithic(self):
        result = fig2.run(workloads=("square", "hotspot3d"),
                          scale=TEST_SCALE)
        assert all(s >= 0.95 for s in result.slowdowns.values())
        assert result.average_loss_percent > 0
        assert "Fig. 2" in fig2.report(result)


class TestFig8:
    def test_bars_and_geomeans(self):
        result = fig8.run(workloads=SUBSET, chiplet_counts=(2, 4),
                          scale=TEST_SCALE)
        for chiplets in (2, 4):
            for name in SUBSET:
                assert result.speedup(name, "cpelide", chiplets) > 0
            assert result.geomean_speedup("cpelide", chiplets) > 0
        report = fig8.report(result)
        assert "Fig. 8 (2 chiplets)" in report
        assert "GEOMEAN" in report

    def test_cpelide_headline_direction(self):
        result = fig8.run(workloads=("square",), chiplet_counts=(4,),
                          scale=TEST_SCALE)
        assert result.speedup("square", "cpelide", 4) > 1.0


class TestFig9:
    def test_breakdown_normalized(self):
        result = fig9.run(workloads=SUBSET, scale=TEST_SCALE)
        assert result.normalized_total("square", "baseline") \
            == pytest.approx(1.0)
        assert result.normalized_total("square", "cpelide") < 1.0
        assert "Fig. 9" in fig9.report(result)

    def test_l1_energy_protocol_independent(self):
        """Fig. 9: neither scheme changes L1/LDS energy."""
        result = fig9.run(workloads=("square",), scale=TEST_SCALE)
        per = result.breakdowns["square"]
        assert per["cpelide"]["l1d"] == pytest.approx(per["baseline"]["l1d"],
                                                      rel=0.01)


class TestFig10:
    def test_traffic_normalized(self):
        result = fig10.run(workloads=SUBSET, scale=TEST_SCALE)
        assert result.normalized_total("square", "baseline") \
            == pytest.approx(1.0)
        assert result.normalized_total("square", "cpelide") < 1.0
        assert "Fig. 10" in fig10.report(result)

    def test_cpelide_cuts_l2l3_vs_hmg(self):
        """Fig. 10 headline: CPElide moves far less L2-L3 traffic than
        write-through HMG."""
        result = fig10.run(workloads=("square",), scale=TEST_SCALE)
        assert result.component_ratio("l2_l3", "cpelide", "hmg") < 1.0


class TestTables:
    def test_table1_report(self):
        assert "1801 MHz" in table1.report(table1.run())

    def test_table3_cpelide_column(self):
        features = table3.run()
        assert all(per["CPElide"] for per in features.values())
        assert "CPElide" in table3.report(features)

    def test_reuse_classification(self):
        result = reuse.run(workloads=("square", "pathfinder"),
                           scale=TEST_SCALE)
        assert result.measured_class("square") == "high"
        assert result.reduction("square") > result.reduction("pathfinder")
        assert "Table II" in reuse.report(result)


class TestScaling:
    def test_mimicked_chiplets_add_small_overhead(self):
        result = scaling.run(workloads=("square",), scale=TEST_SCALE)
        for mimicked in (8, 16):
            slowdown = result.slowdowns["square"][mimicked]
            assert 1.0 <= slowdown < 1.5
        assert result.slowdowns["square"][16] \
            >= result.slowdowns["square"][8]
        assert "scaling" in scaling.report(result).lower()


class TestMultiStream:
    def test_two_stream_variant_builds(self):
        from repro.gpu.config import GPUConfig
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        workload = multistream.make_multistream("square", config, 2)
        streams = {k.stream_id for k in workload.kernels}
        assert streams == {0, 1}
        masks = {k.chiplet_mask for k in workload.kernels}
        assert masks == {(0, 1), (2, 3)}

    def test_invalid_stream_count(self):
        from repro.gpu.config import GPUConfig
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        with pytest.raises(ValueError):
            multistream.make_multistream("square", config, 5)

    def test_comparison_runs(self):
        result = multistream.run(workloads=("square",), scale=TEST_SCALE)
        assert result.speedup("square", "cpelide") > 0
        assert "multi-stream" in multistream.report(result)


class TestAblations:
    def test_hmg_writeback_worse_on_irregular(self):
        result = hmg_writeback.run(workloads=("btree", "lulesh"),
                                   scale=TEST_SCALE)
        assert result.geomean_slowdown_percent() > 0
        assert "write-back" in hmg_writeback.report(result)

    def test_range_flush_not_worse(self):
        result = range_flush.run(workloads=("hotspot3d",), scale=TEST_SCALE)
        assert result.range_speedup("hotspot3d") >= 0.95
        # The extension moves no more lines than whole-cache ops.
        lines = result.lines_moved["hotspot3d"]
        assert lines["cpelide-range"] <= lines["cpelide"]


class TestCapacityCrossover:
    def test_sweep_runs_and_peaks_inside_l2(self):
        result = capacity.run(workload="hotspot3d",
                              factors=(1.0, 4.0), scale=TEST_SCALE)
        assert result.benefit_shrinks_with_pressure()
        assert result.peak_factor() == 1.0
        assert "Capacity crossover" in capacity.report(result)

    def test_footprint_factor_scales_allocations(self):
        from repro.gpu.config import GPUConfig
        from repro.workloads.suite import build_workload
        base = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        doubled = base.with_footprint_factor(2.0)
        assert build_workload("hotspot3d", doubled).footprint_bytes() \
            > build_workload("hotspot3d", base).footprint_bytes()

    def test_invalid_factor_rejected(self):
        from repro.gpu.config import GPUConfig
        import pytest as _pytest
        with _pytest.raises(ValueError):
            GPUConfig().with_footprint_factor(0)


class TestDriverSyncExperiment:
    def test_driver_variant_always_slower(self):
        from repro.experiments import driver_sync
        result = driver_sync.run(workloads=("square",), scale=TEST_SCALE)
        assert result.driver_slowdown("square") > 1.0
        assert "host round" in driver_sync.report(result)


class TestSchedulerAblationExperiment:
    def test_locality_helps_producer_consumer(self):
        from repro.experiments import scheduler_ablation
        result = scheduler_ablation.run(scale=TEST_SCALE)
        assert result.locality_speedup("cpelide") >= 1.0


class TestOccupancyExperiment:
    def test_subset_never_overflows(self):
        from repro.experiments import occupancy
        profiles = occupancy.run(workloads=("square", "cnn"),
                                 scale=TEST_SCALE)
        assert all(p.never_overflows for p in profiles.values())
        assert "occupancy" in occupancy.report(profiles).lower()


#: table2, fig2 and capacity on two workloads each (capacity: one
#: workload at two footprints).
ENGINE_HARNESSES = {
    "table2": lambda cache: reuse.run(workloads=("square", "pathfinder"),
                                      scale=TEST_SCALE, cache=cache),
    "fig2": lambda cache: fig2.run(workloads=("square", "hotspot3d"),
                                   scale=TEST_SCALE, cache=cache),
    "capacity": lambda cache: capacity.run(workload="hotspot3d",
                                           factors=(1.0, 4.0),
                                           scale=TEST_SCALE, cache=cache),
}


class TestHarnessesOnTheEngine:
    @pytest.mark.parametrize("name", sorted(ENGINE_HARNESSES))
    def test_second_run_is_served_from_the_cache(self, tmp_path, name):
        cache = SharedResultCache(root=tmp_path / "c")
        first = ENGINE_HARNESSES[name](cache)
        stored = cache.stats.stores
        second = ENGINE_HARNESSES[name](cache)
        assert stored > 0
        assert cache.stats.stores == stored
        assert second == first

    def test_they_share_fig8_cells(self, tmp_path):
        """Table II's and Fig. 2's Baseline cells and capacity's 1.0x
        cells are Fig. 8's 4-chiplet cells."""
        cache = SharedResultCache(root=tmp_path / "c")
        fig8.run(workloads=("square",), chiplet_counts=(4,),
                 scale=TEST_SCALE, cache=cache)
        hits = cache.stats.hits
        reuse.run(workloads=("square",), scale=TEST_SCALE, cache=cache)
        fig2.run(workloads=("square",), scale=TEST_SCALE, cache=cache)
        capacity.run(workload="square", factors=(1.0,), scale=TEST_SCALE,
                     cache=cache)
        assert cache.stats.hits - hits == 1 + 1 + 2
