"""Pareto search driver: design points, dominance, successive halving."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.explore import (
    DesignPoint,
    PointScore,
    design_points,
    explore,
    pareto_frontier,
    seed_spec,
    _survivors,
)
from repro.gpu.config import MB

from tests.conftest import TEST_SCALE


def point(chiplets=4, window=8, l2=8):
    return DesignPoint(num_chiplets=chiplets, table_window=window,
                       l2_mb=l2)


def score(p, cycles, speedup=1.0, elided=0):
    return PointScore(point=p, cycles=cycles, speedup=speedup,
                      elided=elided)


class TestDesignPoint:
    def test_grid_is_deterministic_cartesian(self):
        points = design_points((2, 4), (4, 8), (4,))
        assert [p.label for p in points] == [
            "c2-w4-l2x4", "c2-w8-l2x4", "c4-w4-l2x4", "c4-w8-l2x4"]
        assert points == design_points((2, 4), (4, 8), (4,))

    def test_cost_monotone_in_every_axis(self):
        base = point()
        assert point(chiplets=8).cost > base.cost
        assert point(window=16).cost > base.cost
        assert point(l2=16).cost > base.cost

    def test_to_config_carries_the_axes(self):
        config = point(chiplets=2, window=16, l2=4).to_config(TEST_SCALE)
        assert config.num_chiplets == 2
        assert config.table_kernel_window == 16
        assert config.l2_size == 4 * MB
        assert config.scale == TEST_SCALE

    def test_to_dict_is_json_stable(self):
        payload = point().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["lease"] is None

    def test_lease_axis_crosses_the_grid(self):
        points = design_points((2,), (4,), (4,), leases=(2, 8))
        assert [p.label for p in points] == [
            "c2-w4-l2x4-ls2", "c2-w4-l2x4-ls8"]
        config = points[1].to_config(TEST_SCALE)
        assert config.lease_kernels == 8

    def test_lease_does_not_change_silicon_cost(self):
        short = DesignPoint(num_chiplets=4, table_window=8, l2_mb=8,
                            lease=2)
        long = DesignPoint(num_chiplets=4, table_window=8, l2_mb=8,
                           lease=16)
        assert short.cost == long.cost == point().cost


class TestDominance:
    def test_dominates_requires_no_worse_and_one_better(self):
        cheap_fast = score(point(chiplets=2), cycles=100.0)
        dear_slow = score(point(chiplets=8), cycles=200.0)
        assert cheap_fast.dominates(dear_slow)
        assert not dear_slow.dominates(cheap_fast)

    def test_tradeoffs_do_not_dominate(self):
        cheap_slow = score(point(chiplets=2), cycles=200.0)
        dear_fast = score(point(chiplets=8), cycles=100.0)
        assert not cheap_slow.dominates(dear_fast)
        assert not dear_fast.dominates(cheap_slow)

    def test_frontier_drops_dominated_points(self):
        scores = [
            score(point(chiplets=2), cycles=200.0),
            score(point(chiplets=4), cycles=100.0),
            score(point(chiplets=8), cycles=150.0),  # dominated by c4
        ]
        frontier = pareto_frontier(scores)
        labels = [s.point.label for s in frontier]
        assert labels == ["c2-w8-l2x8", "c4-w8-l2x8"]

    def test_survivors_keep_at_least_two(self):
        scores = [score(point(chiplets=2), cycles=100.0),
                  score(point(chiplets=4), cycles=200.0)]
        assert len(_survivors(scores)) == 2


class TestSeedSpec:
    def test_cell_count_is_points_x_workloads_x_protocols(self):
        points = design_points((2, 4), (8,), (8,))
        spec = seed_spec(points, TEST_SCALE, workloads=("square", "bfs"))
        assert len(spec.expand()) == len(points) * 2 * 2


class TestExplore:
    def test_rejects_empty_rungs_and_grid(self):
        with pytest.raises(ConfigError):
            explore(rungs=())
        with pytest.raises(ConfigError):
            explore(chiplet_counts=(), rungs=(TEST_SCALE,))

    def test_quick_exploration_produces_a_frontier(self, tmp_path):
        from repro.engine import SharedResultCache

        cache = SharedResultCache(root=tmp_path / "c")
        result = explore(chiplet_counts=(2, 4), table_windows=(4,),
                         l2_mb=(4,), workloads=("square",),
                         rungs=(TEST_SCALE,), workers=1, cache=cache)
        assert result.frontier
        assert len(result.rungs) == 1
        assert result.rungs[0].scores
        labels = {s.point.label for s in result.rungs[0].scores}
        assert labels == {"c2-w4-l2x4", "c4-w4-l2x4"}
        rendered = result.render()
        assert "frontier" in rendered
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_explore_rejects_unknown_protocol(self):
        with pytest.raises(ConfigError, match="no-such-proto"):
            explore(protocol="no-such-proto", rungs=(TEST_SCALE,))

    def test_explore_over_a_registry_protocol_with_leases(self, tmp_path):
        from repro.engine import SharedResultCache

        cache = SharedResultCache(root=tmp_path / "c")
        result = explore(chiplet_counts=(2,), table_windows=(4,),
                         l2_mb=(4,), workloads=("square",),
                         rungs=(TEST_SCALE,), workers=1, cache=cache,
                         protocol="cpelide-ts", leases=(2, 8))
        assert result.protocol == "cpelide-ts"
        labels = {s.point.label for s in result.rungs[0].scores}
        assert labels == {"c2-w4-l2x4-ls2", "c2-w4-l2x4-ls8"}
        assert "cpelide-ts cycles" in result.render()

    def test_exploration_reuses_the_shared_cache(self, tmp_path):
        from repro.engine import SharedResultCache

        cache = SharedResultCache(root=tmp_path / "c")
        explore(chiplet_counts=(2,), table_windows=(4,), l2_mb=(4,),
                workloads=("square",), rungs=(TEST_SCALE,), workers=1,
                cache=cache)
        rerun = explore(chiplet_counts=(2,), table_windows=(4,),
                        l2_mb=(4,), workloads=("square",),
                        rungs=(TEST_SCALE,), workers=1, cache=cache)
        assert rerun.rungs[0].report.executed == 0
        assert rerun.rungs[0].report.cache_hits == \
            rerun.rungs[0].report.total_jobs

    def test_uncached_exploration_leaves_tmpdir_unchanged(self, tmp_path,
                                                          monkeypatch):
        """``cache=False`` means no cache: no throwaway cache directory
        appears in ``$TMPDIR``."""
        import tempfile

        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        result = explore(chiplet_counts=(2,), table_windows=(4,),
                         l2_mb=(4,), workloads=("square",),
                         rungs=(TEST_SCALE,), workers=1, cache=False)
        report = result.rungs[0].report
        assert report.executed == report.total_jobs
        assert list(tmp.iterdir()) == []
