"""Differential referee for the batched run-based trace path.

The batched path (``trace_path="run"``) must be *bit-identical* to the
per-line reference (``trace_path="line"``): same ``SimulationResult``
down to every counter, for every protocol, access-pattern kind, and
scheduler. These tests are the contract the bulk cache/protocol
fast paths are written against.
"""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.coherence.base import protocol_names
from repro.gpu.config import GPUConfig, monolithic_equivalent
from repro.gpu.device import Device
from repro.gpu.sim import Simulator
from repro.memory.cache import SetAssocCache
from repro.workloads.base import (
    AccessMode,
    KernelArg,
    PatternKind,
    lines_for_arg,
    runs_for_arg,
)
from repro.workloads.suite import WORKLOAD_NAMES, build_workload

SCALE = 1 / 64

#: Workloads chosen so that between them every PatternKind is exercised:
#: babelstream (PARTITIONED), hotspot (STENCIL), bfs (RANDOM + INDIRECT),
#: rnn-gru-small (SHARED).
KIND_COVERING_WORKLOADS = ["babelstream", "hotspot", "bfs", "rnn-gru-small"]


def _result_dict(workload: str, protocol: str, scheduler: str,
                 trace_path: str) -> dict:
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    if protocol == "monolithic":
        config = monolithic_equivalent(config)
    sim = Simulator(config, protocol=protocol, scheduler=scheduler,
                    trace_path=trace_path)
    return sim.run(build_workload(workload, config)).to_dict()


def test_workload_set_covers_every_pattern_kind():
    """Guard the differential sweep's coverage claim itself."""
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    seen = set()
    for name in KIND_COVERING_WORKLOADS:
        workload = build_workload(name, config)
        for kernel in workload.kernels:
            for arg in kernel.args:
                seen.add(arg.pattern)
    assert seen == set(PatternKind)


@pytest.mark.parametrize("scheduler", ["static", "locality"])
@pytest.mark.parametrize("workload", KIND_COVERING_WORKLOADS)
@pytest.mark.parametrize("protocol", protocol_names())
def test_run_path_bit_identical(protocol, workload, scheduler):
    line = _result_dict(workload, protocol, scheduler, "line")
    run = _result_dict(workload, protocol, scheduler, "run")
    assert line == run


# ---------------------------------------------------------------------------
# Memo trace path (kernel-outcome memoization, src/repro/gpu/memo.py)


@pytest.fixture(autouse=True)
def _fresh_memo_store():
    """Each test starts from a cold memo store — hits within a test are
    the test's own doing, never another test's leftovers."""
    from repro.gpu.memo import clear_memo_stores

    clear_memo_stores()
    yield
    clear_memo_stores()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("protocol", ["baseline", "hmg", "cpelide"])
def test_memo_path_bit_identical(protocol, workload):
    """Every Table II workload: the memo path's result dict must equal
    the run path's, both on a cold store (record) and on a warm one
    (pure replay)."""
    run = _result_dict(workload, protocol, "static", "run")
    cold = _result_dict(workload, protocol, "static", "memo")
    warm = _result_dict(workload, protocol, "static", "memo")
    assert run == cold
    assert run == warm


@pytest.mark.parametrize("workload", KIND_COVERING_WORKLOADS)
@pytest.mark.parametrize("protocol", ["cpelide", "hmg"])
def test_memo_path_bit_identical_locality_scheduler(protocol, workload):
    run = _result_dict(workload, protocol, "locality", "run")
    memo = _result_dict(workload, protocol, "locality", "memo")
    assert run == memo


def test_memo_counters_second_run_hits():
    """A warm store turns every memoizable kernel into a hit."""
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    first = Simulator(config, protocol="cpelide", trace_path="memo").run(
        build_workload("hotspot", config))
    second = Simulator(config, protocol="cpelide", trace_path="memo").run(
        build_workload("hotspot", config))
    total = len(build_workload("hotspot", config).kernels)
    assert first.memo_bypasses == 0
    assert first.memo_hits + first.memo_misses == total
    assert first.memo_misses > 0
    assert second.memo_hits == total
    assert second.memo_misses == 0


def test_memo_replays_roaming_kernels_at_their_launch_index():
    """bfs's frontier kernels roam (kernel-id-seeded sample), so their
    memo key carries the launch index: a second run launches each at the
    same index and replays all of them, byte for byte the run path's
    result."""
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    first = Simulator(config, protocol="cpelide", trace_path="memo").run(
        build_workload("bfs", config))
    second = Simulator(config, protocol="cpelide", trace_path="memo").run(
        build_workload("bfs", config))
    run = Simulator(config, protocol="cpelide", trace_path="run").run(
        build_workload("bfs", config))
    kernels = len(build_workload("bfs", config).kernels)
    assert kernels == 24
    assert first.memo_bypasses == second.memo_bypasses == 0
    assert first.memo_hits + first.memo_misses == kernels
    assert (second.memo_hits, second.memo_misses) == (kernels, 0)
    dump = json.dumps(run.to_dict(), sort_keys=True)
    assert json.dumps(first.to_dict(), sort_keys=True) == dump
    assert json.dumps(second.to_dict(), sort_keys=True) == dump


def test_roaming_kernel_never_replays_at_another_launch_index():
    """A transition recorded for a roaming kernel at one launch index is
    not found at another from the same state; an id-free kernel's key
    ignores the index."""
    from repro.coherence.base import make_protocol
    from repro.cp.driver import GPUDriver
    from repro.cp.global_cp import GlobalCP
    from repro.gpu.memo import KernelMemoizer, MemoStore, kernel_is_bypassed

    config = GPUConfig(num_chiplets=4, scale=SCALE)
    roam = next(k for k in build_workload("bfs", config).kernels
                if kernel_is_bypassed(k))
    steady = build_workload("hotspot", config).kernels[0]
    assert not kernel_is_bypassed(steady)
    device = Device(config)
    protocol = make_protocol("cpelide", config, device)
    driver = GPUDriver(config)
    memoizer = KernelMemoizer(MemoStore(), device, protocol,
                              GlobalCP(config, device, protocol), driver)
    memoizer.store.put(memoizer.lookup_key(roam), "recorded at 0")
    steady_key = memoizer.lookup_key(steady)
    assert memoizer.store.get(memoizer.lookup_key(roam)) == "recorded at 0"
    driver.enqueue_kernel(steady)  # the next launch gets kernel id 1
    assert memoizer.store.get(memoizer.lookup_key(roam)) is None
    assert memoizer.lookup_key(steady) == steady_key


@pytest.mark.parametrize("trace_path", ["line", "run", "memo"])
def test_every_trace_path_builds_dict_caches(trace_path):
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    sim = Simulator(config, protocol="hmg", trace_path=trace_path)
    sim.run(build_workload("square", config))
    device = sim.last_device
    assert {type(cache) for cache in device.l2s + [device.l3]} == {
        SetAssocCache}


def test_memo_counters_not_serialized():
    """to_dict() must stay bit-identical across trace paths, so the
    memo diagnostics are dataclass-only fields."""
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    result = Simulator(config, protocol="cpelide", trace_path="memo").run(
        build_workload("hotspot", config))
    assert result.memo_hits + result.memo_misses > 0
    dumped = result.to_dict()
    assert "memo_hits" not in repr(dumped)
    from repro.gpu.sim import SimulationResult
    rebuilt = SimulationResult.from_dict(dumped)
    # Reconstructed results must not fabricate counters: None means "not
    # memoized / unknown", which is distinct from zero memo activity.
    assert rebuilt.memo_hits is None
    assert rebuilt.memo_misses is None
    assert rebuilt.memo_bypasses is None


# ---------------------------------------------------------------------------
# runs_for_arg / lines_for_arg contract


def test_runs_flatten_to_lines_for_every_suite_arg():
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    for name in KIND_COVERING_WORKLOADS + ["pathfinder", "srad"]:
        workload = build_workload(name, config)
        for kernel_id, kernel in enumerate(workload.kernels):
            for arg in kernel.args:
                for logical in range(4):
                    lines = lines_for_arg(arg, logical, 4, kernel_id)
                    runs = runs_for_arg(arg, logical, 4, kernel_id)
                    flat = [ln for r in runs for ln in r.lines()]
                    assert flat == lines, (name, kernel_id, arg.pattern)


def _digest_cmd(pattern: str) -> list:
    code = (
        "import hashlib, sys;"
        "sys.path.insert(0, 'src');"
        "from repro.gpu.config import GPUConfig;"
        "from repro.workloads.base import lines_for_arg, runs_for_arg;"
        "from repro.workloads.suite import build_workload;"
        "cfg = GPUConfig(num_chiplets=4, scale=1/64);"
        f"wl = build_workload({pattern!r}, cfg);"
        "h = hashlib.sha256();"
        "[h.update(repr((kid, logical,"
        " lines_for_arg(arg, logical, 4, kid),"
        " runs_for_arg(arg, logical, 4, kid))).encode())"
        " for kid, k in enumerate(wl.kernels)"
        " for arg in k.args for logical in range(4)];"
        "print(h.hexdigest())"
    )
    return [sys.executable, "-c", code]


def test_traces_deterministic_across_calls_and_processes():
    """Seeded traces must not depend on interpreter state (e.g. hash
    randomization): identical across repeated calls and across fresh
    processes."""
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    workload = build_workload("bfs", config)
    arg = next(a for k in workload.kernels for a in k.args
               if a.pattern in (PatternKind.RANDOM, PatternKind.INDIRECT))
    assert lines_for_arg(arg, 1, 4, 3) == lines_for_arg(arg, 1, 4, 3)
    assert runs_for_arg(arg, 1, 4, 3) == runs_for_arg(arg, 1, 4, 3)

    digests = set()
    for seed in ("0", "1"):
        out = subprocess.run(
            _digest_cmd("bfs"), capture_output=True, text=True, check=True,
            cwd=__file__.rsplit("/tests/", 1)[0],
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_random_sample_varies_with_kernel_and_logical():
    """The seed must mix kernel id and logical chiplet, or resampling
    patterns would silently repeat the same trace."""
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    workload = build_workload("bfs", config)
    arg = next(a for k in workload.kernels for a in k.args
               if a.pattern is PatternKind.RANDOM and a.resample)
    base = lines_for_arg(arg, 0, 4, 0)
    assert lines_for_arg(arg, 0, 4, 1) != base
    assert lines_for_arg(arg, 1, 4, 0) != base


# ---------------------------------------------------------------------------
# STENCIL halo clamping and fraction/offset boundaries


def _buffer(num_lines: int):
    from repro.memory.address import AddressSpace, LINE_SIZE

    return AddressSpace().alloc("buf", num_lines * LINE_SIZE)


def test_stencil_halo_clamps_at_buffer_edges():
    buf = _buffer(64)
    arg = KernelArg(buffer=buf, mode=AccessMode.RW,
                    pattern=PatternKind.STENCIL, halo_lines=4)
    first, last = buf.line_range()
    for logical in range(4):
        runs = runs_for_arg(arg, logical, 4, 0)
        flat = [ln for r in runs for ln in r.lines()]
        assert flat == lines_for_arg(arg, logical, 4, 0)
        assert min(flat) >= first and max(flat) < last
    # Edge slices: the halo must not reach past the allocation.
    lo0 = [ln for r in runs_for_arg(arg, 0, 4, 0) for ln in r.lines()]
    assert min(lo0) == first
    hi3 = [ln for r in runs_for_arg(arg, 3, 4, 0) for ln in r.lines()]
    assert max(hi3) == last - 1


def test_fraction_offset_window_clamps_to_slice():
    buf = _buffer(64)
    # Offset near the end of the slice: the window must clamp at the
    # slice boundary, not spill into the neighbour's lines.
    arg = KernelArg(buffer=buf, mode=AccessMode.RW, fraction=0.5,
                    offset=0.75)
    for logical in range(4):
        lo, hi = buf.slice_lines(logical, 4)
        runs = runs_for_arg(arg, logical, 4, 0)
        flat = [ln for r in runs for ln in r.lines()]
        assert flat == lines_for_arg(arg, logical, 4, 0)
        assert flat and lo <= min(flat) and max(flat) < hi


def test_empty_slice_yields_no_runs():
    # More logical chiplets than lines: some slices are empty.
    buf = _buffer(2)
    arg = KernelArg(buffer=buf, mode=AccessMode.RW)
    for logical in range(4):
        lines = lines_for_arg(arg, logical, 4, 0)
        runs = runs_for_arg(arg, logical, 4, 0)
        assert [ln for r in runs for ln in r.lines()] == lines
        if not lines:
            assert runs == []


# ---------------------------------------------------------------------------
# Satellite regressions: zero-kernel guard and LDS apportionment


def test_zero_kernel_run_does_not_crash():
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    workload = build_workload("square", config)
    workload.kernels.clear()
    result = Simulator(config, protocol="cpelide").run(workload)
    assert result.wall_cycles == 0.0
    # The result must still serialize and round-trip.
    assert result.to_dict()["wall_cycles"] == 0.0


def test_record_lds_largest_remainder_sums_exactly():
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    sim = Simulator(config)
    device = Device(config)
    shares = {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}
    placement = SimpleNamespace(chiplets=[0, 1, 2, 3], num_chiplets=4,
                                share_of=lambda c: shares[c])
    kernel = SimpleNamespace(lds_per_line=0.7)
    sim._record_lds(kernel, device, placement, total_lines=101)
    total = int(round(0.7 * 101))
    amounts = [device.counts[c].lds_accesses for c in range(4)]
    assert sum(amounts) == total
    # Each chiplet within one access of its exact proportional share.
    for c in range(4):
        assert abs(amounts[c] - total * shares[c]) < 1.0


def test_record_lds_ties_break_to_lower_chiplet():
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    sim = Simulator(config)
    device = Device(config)
    placement = SimpleNamespace(chiplets=[0, 1, 2, 3], num_chiplets=4,
                                share_of=lambda c: 0.25)
    kernel = SimpleNamespace(lds_per_line=1.0)
    # 10 accesses over four equal shares: 2 each plus 2 leftovers, which
    # must go to chiplets 0 and 1.
    sim._record_lds(kernel, device, placement, total_lines=10)
    amounts = [device.counts[c].lds_accesses for c in range(4)]
    assert amounts == [3, 3, 2, 2]


# ---------------------------------------------------------------------------
# resident_lines bookkeeping invariant


def test_resident_lines_tracks_full_walk():
    cache = SetAssocCache(size_bytes=256 * 64, assoc=4, name="L2")

    def walk():
        return sum(len(s) for s in cache._sets.values())

    cache.bulk_access(start=0, count=200, load=True, store=True)
    assert cache.resident_lines == walk()
    cache.bulk_access(start=100, count=300, load=True, store=False)
    assert cache.resident_lines == walk()
    cache.bulk_invalidate(start=64, count=64)
    assert cache.resident_lines == walk()
    cache.flush_dirty()
    assert cache.resident_lines == walk()
    cache.bulk_fill(lines=range(500, 600), dirty=True)
    assert cache.resident_lines == walk()
    cache.bulk_serve(events=[(700, None, False), (701, 500, True)])
    assert cache.resident_lines == walk()
    cache.invalidate_line(700)
    assert cache.resident_lines == walk()
    cache.access(9999, is_write=True)
    assert cache.resident_lines == walk()
    cache.invalidate_all()
    assert cache.resident_lines == walk() == 0


def test_trace_path_env_switch(monkeypatch):
    config = GPUConfig(num_chiplets=4, scale=SCALE)
    monkeypatch.setenv("REPRO_TRACE_PATH", "line")
    assert Simulator(config).trace_path == "line"
    monkeypatch.setenv("REPRO_TRACE_PATH", "run")
    assert Simulator(config).trace_path == "run"
    monkeypatch.setenv("REPRO_TRACE_PATH", "memo")
    assert Simulator(config).trace_path == "memo"
    monkeypatch.setenv("REPRO_TRACE_PATH", "bogus")
    with pytest.raises(ValueError):
        Simulator(config)
    monkeypatch.delenv("REPRO_TRACE_PATH")
    assert Simulator(config, trace_path="line").trace_path == "line"
