"""Unit tests for the L1 filter model and the LDS parameters."""

import pytest

from repro.gpu.config import GPUConfig
from repro.memory.l1 import L1Filter


class TestL1Filter:
    def test_single_touch_all_forwarded(self):
        res = L1Filter(0.9).filter(distinct_lines=100, touches_per_line=1.0)
        assert res.l1_accesses == 100
        assert res.l1_hits == 0
        assert res.l2_distinct == 100
        assert res.l2_repeats == 0

    def test_repeats_mostly_absorbed(self):
        res = L1Filter(0.9).filter(distinct_lines=100, touches_per_line=3.0)
        assert res.l1_accesses == 300
        assert res.l1_hits == 180          # 200 repeats * 0.9
        assert res.l2_repeats == 20

    def test_zero_hit_rate_forwards_everything(self):
        res = L1Filter(0.0).filter(100, 2.0)
        assert res.l1_hits == 0
        assert res.l2_repeats == 100

    def test_perfect_hit_rate(self):
        res = L1Filter(1.0).filter(50, 4.0)
        assert res.l1_hits == 150
        assert res.l2_repeats == 0

    def test_accounting_identity(self):
        res = L1Filter(0.7).filter(64, 2.5)
        assert res.l1_accesses == res.l2_distinct + res.l1_hits + res.l2_repeats

    def test_zero_lines(self):
        res = L1Filter(0.9).filter(0, 2.0)
        assert res.l1_accesses == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            L1Filter(1.5)
        with pytest.raises(ValueError):
            L1Filter(0.9).filter(-1, 1.0)
        with pytest.raises(ValueError):
            L1Filter(0.9).filter(10, 0.5)


class TestLDS:
    def test_table1_defaults(self):
        """The LDS keeps no state of its own: Table I's size and latency
        are the config fields the dispatcher and timing model read."""
        config = GPUConfig()
        assert config.lds_size == 64 * 1024
        assert config.lds_latency == 65
