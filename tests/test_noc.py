"""Unit tests for interconnect accounting: meters and crossbar."""

import pytest

from repro.interconnect.crossbar import CPCrossbar
from repro.interconnect.noc import FlitParams, TrafficMeter


class TestFlitParams:
    def test_defaults(self):
        params = FlitParams()
        assert params.control_flits == 1
        assert params.data_flits == 3  # header + 64B / 32B

    def test_custom_flit_size(self):
        params = FlitParams(flit_bytes=16, line_size=64)
        assert params.data_flits == 5


class TestTrafficMeter:
    def test_categories_accumulate_independently(self):
        meter = TrafficMeter()
        meter.l1_request(2)
        meter.l1_data()
        meter.l2_request()
        meter.l2_data(3)
        meter.remote_request()
        meter.remote_data(2)
        assert meter.l1_l2 == 2 + 3
        assert meter.l2_l3 == 1 + 9
        assert meter.remote == 1 + 6
        assert meter.total == meter.l1_l2 + meter.l2_l3 + meter.remote

    def test_as_dict_matches_fig10_components(self):
        meter = TrafficMeter()
        meter.l2_data()
        d = meter.as_dict()
        assert set(d) == {"l1_l2", "l2_l3", "remote", "total"}
        assert d["l2_l3"] == 3

    def test_merge(self):
        a, b = TrafficMeter(), TrafficMeter()
        a.l1_data()
        b.remote_data()
        a.merge(b)
        assert a.l1_l2 == 3
        assert a.remote == 3
        assert b.l1_l2 == 0

    def test_remote_bytes(self):
        meter = TrafficMeter()
        meter.remote_data()   # 3 flits * 32 B
        assert meter.remote_bytes == 96


class TestCPCrossbar:
    def test_unicast_latency_and_count(self):
        xbar = CPCrossbar()
        assert xbar.unicast(3) == 65
        assert xbar.messages_sent == 3

    def test_unicast_zero_targets(self):
        xbar = CPCrossbar()
        assert xbar.unicast(0) == 0
        assert xbar.messages_sent == 0

    def test_broadcast(self):
        xbar = CPCrossbar()
        assert xbar.broadcast() == 100
        assert xbar.messages_sent == 1

    def test_gather_acks(self):
        xbar = CPCrossbar()
        assert xbar.gather_acks([0, 1, 2]) == 65
        assert xbar.gather_acks([]) == 0
        assert xbar.messages_sent == 3

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError):
            CPCrossbar().unicast(-1)
