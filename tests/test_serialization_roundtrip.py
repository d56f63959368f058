"""Round-trip losslessness of every result dataclass.

Each result type's ``to_dict`` output, pushed through an actual JSON
encode/decode, must rebuild an equal object via ``from_dict``; a
``SimulationResult``'s positional ``to_record`` (what the engine's
worker transport and result cache carry) must do the same via
``from_record`` and give the same ``to_dict`` bytes. Fields deliberately
excluded from serialization are pinned by exact set equality, and every
record row is pinned to its class's field count, so adding a new field
without either serializing it or updating the exclusion list fails here
instead of silently dropping data in the result cache.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.analysis.occupancy import TableOccupancyProfile
from repro.gpu.config import GPUConfig
from repro.gpu.sim import SimulationResult, Simulator
from repro.interconnect.noc import FlitParams, TrafficMeter
from repro.metrics.stats import (
    AccessCounts,
    KernelMetrics,
    RunMetrics,
    SyncCounts,
)
from repro.workloads.suite import build_workload

from tests.conftest import TEST_SCALE

#: SimulationResult fields that are runtime diagnostics/provenance, not
#: result identity. Everything else must survive serialization.
SIM_RESULT_UNSERIALIZED = {"memo_hits", "memo_misses", "memo_bypasses",
                           "from_cache", "obs"}

counters = st.integers(min_value=0, max_value=2**40)
cycles = st.floats(min_value=0, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
names = st.text(min_size=0, max_size=12)


def roundtrip(obj):
    """from_dict(json-wire(to_dict(obj))) — the public dump's round trip."""
    return type(obj).from_dict(json.loads(json.dumps(obj.to_dict())))


def record_roundtrip(result):
    """from_record(json-wire(to_record(result))), written compactly as
    the result cache writes it — the engine's round trip."""
    wire = json.dumps(result.to_record(), separators=(",", ":"))
    return SimulationResult.from_record(json.loads(wire))


def canonical(payload) -> str:
    """Canonical JSON bytes (the benchmark digests hash these)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fill(cls, ints=(), floats=(), **fixed):
    """Strategy building ``cls`` with drawn counter/cycle fields."""
    strategies = {name: counters for name in ints}
    strategies.update({name: cycles for name in floats})
    return st.builds(cls, **strategies, **fixed)


def int_fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


access_counts = fill(AccessCounts, ints=int_fields(AccessCounts))
sync_counts = fill(SyncCounts, ints=int_fields(SyncCounts))
traffic_meters = st.builds(
    TrafficMeter,
    params=st.builds(FlitParams,
                     flit_bytes=st.integers(min_value=1, max_value=256),
                     line_size=st.integers(min_value=1, max_value=1024)),
    l1_l2=counters, l2_l3=counters, remote=counters)
kernel_metrics = st.builds(
    KernelMetrics,
    kernel_name=names, kernel_index=counters,
    cycles=cycles, compute_cycles=cycles, memory_cycles=cycles,
    sync_cycles=cycles, cp_overhead_cycles=cycles,
    accesses=access_counts, sync=sync_counts, traffic=traffic_meters,
    chiplets_used=st.integers(min_value=0, max_value=64))
run_metrics = st.builds(
    RunMetrics,
    workload=names, protocol=names,
    num_chiplets=st.integers(min_value=1, max_value=64),
    kernels=st.lists(kernel_metrics, max_size=3))
occupancy_profiles = st.builds(
    TableOccupancyProfile,
    workload=names, num_kernels=counters,
    occupancy=st.lists(counters, max_size=8),
    peak_entries=counters, capacity=counters,
    overflow_evictions=counters,
    acquires_issued=counters, releases_issued=counters,
    acquires_elided=counters, releases_elided=counters)
simulation_results = st.builds(
    SimulationResult,
    metrics=run_metrics,
    energy=st.dictionaries(names, cycles, max_size=4),
    wall_cycles=cycles, protocol=names,
    num_chiplets=st.integers(min_value=1, max_value=64))


class TestPropertyRoundTrips:
    @settings(max_examples=50)
    @given(access_counts)
    def test_access_counts(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=50)
    @given(sync_counts)
    def test_sync_counts(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=50)
    @given(traffic_meters)
    def test_traffic_meter(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=50)
    @given(kernel_metrics)
    def test_kernel_metrics(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=25)
    @given(run_metrics)
    def test_run_metrics(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=50)
    @given(occupancy_profiles)
    def test_occupancy_profile(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=25)
    @given(simulation_results)
    def test_simulation_result(self, obj):
        assert roundtrip(obj) == obj

    @settings(max_examples=50)
    @given(simulation_results)
    def test_simulation_result_record(self, obj):
        rebuilt = record_roundtrip(obj)
        assert rebuilt == obj
        assert canonical(rebuilt.to_dict()) == canonical(
            roundtrip(obj).to_dict())


class TestFieldCoverage:
    """New-field tripwires: every dataclass field is either in the
    ``to_dict`` payload or on an explicit exclusion list."""

    def test_counter_dataclasses_serialize_every_field(self):
        for cls in (AccessCounts, SyncCounts, TableOccupancyProfile):
            names_ = {f.name for f in dataclasses.fields(cls)}
            assert set(cls().to_dict() if cls is not TableOccupancyProfile
                       else cls(workload="w", num_kernels=0).to_dict()) \
                == names_

    def test_traffic_meter_payload_covers_state(self):
        payload = TrafficMeter().to_dict()
        assert set(payload) == {"l1_l2", "l2_l3", "remote",
                                "flit_bytes", "line_size"}

    def test_record_rows_cover_every_field(self):
        """A field added to a result class must get a slot in its row or
        record (or, on ``SimulationResult``, a name in
        ``SIM_RESULT_UNSERIALIZED``): positional constructors would
        otherwise rebuild it at its default."""
        def width(cls):
            return len(dataclasses.fields(cls))

        kernel = KernelMetrics(kernel_name="k", kernel_index=0)
        run = RunMetrics(workload="w", protocol="p", num_chiplets=1,
                         kernels=[kernel])
        result = SimulationResult(metrics=run, energy={}, wall_cycles=0.0,
                                  protocol="p", num_chiplets=1)
        assert len(AccessCounts().to_row()) == width(AccessCounts)
        assert len(SyncCounts().to_row()) == width(SyncCounts)
        # The meter's params field is flattened into FlitParams' fields.
        assert len(TrafficMeter().to_row()) == \
            width(TrafficMeter) - 1 + width(FlitParams)
        assert len(kernel.to_row()) == width(KernelMetrics)
        assert len(run.to_record()) == width(RunMetrics)
        assert len(result.to_record()) == \
            width(SimulationResult) - len(SIM_RESULT_UNSERIALIZED)

    def test_record_rebuilds_every_field_in_place(self):
        """Distinct values in every slot: a row that swaps two fields
        or drops one rebuilds a different object."""
        def distinct(cls, start):
            return cls(*range(start, start + len(dataclasses.fields(cls))))

        meter = TrafficMeter(FlitParams(16, 128), 7, 8, 9)
        kernels = [KernelMetrics("k0", 3, 1.5, 2.5, 3.5, 4.5, 5.5,
                                 distinct(AccessCounts, 10),
                                 distinct(SyncCounts, 40), meter, 2),
                   KernelMetrics("k1", 4, 6.5, 7.5, 8.5, 9.5, 0.5,
                                 distinct(AccessCounts, 70),
                                 distinct(SyncCounts, 90),
                                 TrafficMeter(FlitParams(16, 128), 1, 2, 3),
                                 3)]
        result = SimulationResult(
            metrics=RunMetrics(workload="w", protocol="m", num_chiplets=3,
                               kernels=kernels),
            energy={"l2": 0.25, "total": 1.75}, wall_cycles=11.5,
            protocol="p", num_chiplets=5)
        rebuilt = record_roundtrip(result)
        assert rebuilt == result
        assert rebuilt.to_dict() == result.to_dict()
        # The rebuilt meters share one FlitParams per distinct value.
        first, second = (k.traffic.params for k in rebuilt.metrics.kernels)
        assert first is second

    def test_simulation_result_exclusions_are_exact(self):
        field_names = {f.name for f in dataclasses.fields(SimulationResult)}
        result = SimulationResult(
            metrics=RunMetrics(workload="w", protocol="p", num_chiplets=1),
            energy={}, wall_cycles=0.0, protocol="p", num_chiplets=1)
        serialized = set(result.to_dict())
        assert field_names - serialized == SIM_RESULT_UNSERIALIZED
        assert serialized <= field_names


class TestRealRunRoundTrip:
    def test_simulation_result_from_real_run(self):
        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        result = Simulator(config, "cpelide").run(
            build_workload("square", config))
        for rebuilt in (roundtrip(result), record_roundtrip(result)):
            assert rebuilt == result
            assert rebuilt.to_dict() == result.to_dict()

    def test_occupancy_profile_from_real_run(self):
        from repro.analysis.occupancy import profile_table_occupancy

        config = GPUConfig(num_chiplets=4, scale=TEST_SCALE)
        profile = profile_table_occupancy(
            build_workload("square", config), config)
        assert roundtrip(profile) == profile
