"""The ``repro.api`` facade and its top-level re-exports."""

from __future__ import annotations

import pytest

import repro
from repro.api import (
    ProtocolSpec,
    default_config,
    protocols,
    register_protocol,
    simulate,
    sweep,
    unregister_protocol,
)
from repro.coherence.registry import protocol_names
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.workloads.suite import WORKLOAD_NAMES, build_workload

from tests.conftest import TEST_SCALE


class TestDefaultConfig:
    def test_defaults(self):
        config = default_config()
        assert config.num_chiplets == 4
        assert config.scale == pytest.approx(1 / 32)

    def test_overrides_pass_through(self):
        config = default_config(num_chiplets=2, scale=TEST_SCALE,
                                l2_assoc=32)
        assert config.num_chiplets == 2
        assert config.l2_assoc == 32


class TestSimulate:
    def test_matches_direct_simulator_run(self, config):
        via_api = simulate("square", "cpelide", config=config)
        direct = Simulator(config, "cpelide").run(
            build_workload("square", config))
        assert via_api.to_dict() == direct.to_dict()

    def test_accepts_workload_instance(self, config):
        workload = build_workload("square", config)
        result = simulate(workload, "baseline", config=config)
        assert result.protocol == "baseline"
        assert result.wall_cycles > 0

    def test_scheduler_passes_through(self, config):
        static = simulate("square", "cpelide", config=config)
        locality = simulate("square", "cpelide", config=config,
                            scheduler="locality")
        assert static.wall_cycles > 0 and locality.wall_cycles > 0


class TestSweep:
    def test_grid_and_get(self, config2):
        result = sweep(workloads=("square", "babelstream"),
                       protocols=("baseline", "cpelide"),
                       configs=(config2,), cache=False)
        assert result.report.total_jobs == 4
        cell = result.get("square", "cpelide", num_chiplets=2)
        assert cell.protocol == "cpelide"
        with pytest.raises(KeyError):
            result.get("square", "hmg")

    def test_default_grid_covers_full_suite(self):
        # Expansion only — no simulation.
        from repro.engine.spec import SweepSpec
        spec = SweepSpec.grid(workloads=None, scale=TEST_SCALE)
        assert spec.num_jobs == len(WORKLOAD_NAMES) * 3

    def test_multistream_spec(self, config):
        result = sweep(workloads=(("multistream", "square", 2),),
                       protocols=("cpelide",), configs=(config,),
                       cache=False)
        assert result.outcomes[0].workload == "square-ms2"


class TestProtocolRegistry:
    def test_names_cover_the_paper_configurations(self):
        names = protocol_names()
        for expected in ("baseline", "cpelide", "cpelide-range",
                         "cpelide-driver", "cpelide-ts", "hmg", "hmg-wb",
                         "nosync", "monolithic", "timestamp"):
            assert expected in names
        assert list(names) == sorted(names)

    def test_every_name_constructs(self, config2):
        from repro.api import make_protocol, monolithic_equivalent
        from repro.gpu.device import Device
        for name in protocol_names():
            # The monolithic comparator models a single-chiplet GPU.
            config = (monolithic_equivalent(config2) if name == "monolithic"
                      else config2)
            protocol = make_protocol(name, config, Device(config))
            assert protocol is not None

    def test_protocols_returns_frozen_specs(self):
        specs = protocols()
        assert [s.name for s in specs] == list(protocol_names())
        for spec in specs:
            assert spec.description
            with pytest.raises(Exception):
                spec.name = "mutated"  # frozen dataclass

    def test_spec_to_dict_is_json_shaped(self):
        spec = next(s for s in protocols() if s.name == "timestamp")
        payload = spec.to_dict()
        assert payload["name"] == "timestamp"
        assert "lease_kernels" in payload["knobs"]

    def test_register_and_unregister_round_trip(self, config2):
        from repro.coherence.timestamp import TimestampProtocol

        class LongLease(TimestampProtocol):
            name = "test-long-lease"

        spec = ProtocolSpec(name="test-long-lease", factory=LongLease,
                            description="registration round-trip dummy")
        register_protocol(spec)
        try:
            assert "test-long-lease" in protocol_names()
            result = simulate("square", "test-long-lease", config=config2)
            assert result.protocol == "test-long-lease"
            # A ProtocolSpec may also be passed directly.
            again = simulate("square", spec, config=config2)
            assert again.to_dict() == result.to_dict()
        finally:
            unregister_protocol("test-long-lease")
        assert "test-long-lease" not in protocol_names()

    def test_duplicate_registration_requires_replace(self):
        existing = next(s for s in protocols() if s.name == "cpelide")
        with pytest.raises(repro.ConfigError):
            register_protocol(existing)
        register_protocol(existing, replace=True)  # idempotent

    def test_unknown_protocol_raises_config_error(self, config2):
        with pytest.raises(repro.ConfigError, match="no-such-proto"):
            simulate("square", "no-such-proto", config=config2)

    def test_protocol_names_is_not_in_the_api(self):
        import repro.api as api
        with pytest.raises(AttributeError):
            api.protocol_names


class TestTopLevelExports:
    def test_facade_reexported_from_package_root(self):
        assert repro.simulate is simulate
        assert repro.sweep is sweep
        assert repro.default_config is default_config
        assert repro.protocol_names is protocol_names
        assert repro.protocols is protocols
        assert repro.register_protocol is register_protocol
        assert repro.ProtocolSpec is ProtocolSpec
        for name in ("SweepRunner", "SweepSpec", "SweepResult",
                     "SweepReport", "ResultCache", "ProtocolSpec",
                     "protocols", "register_protocol",
                     "TimestampProtocol", "CPElideTimestampProtocol"):
            assert hasattr(repro, name)
            assert name in repro.__all__
