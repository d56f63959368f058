"""Unit tests for the memoization layer's building blocks.

The end-to-end referee (memo path bit-identical to the run path) lives
in tests/test_batched_equivalence.py; these tests pin the component
contracts it rests on: digest stability, snapshot/restore round trips,
counter-delta replay, the home-map journal, memo-key invalidation, the
store's LRU bound, and run-trace interning.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cpelide import CPElideProtocol
from repro.coherence.hmg import HMGProtocol
from repro.cp.wg_scheduler import WGScheduler
from repro.gpu.config import GPUConfig
from repro.gpu.device import Device
from repro.gpu.memo import (
    MemoEntry,
    MemoStore,
    clear_memo_stores,
    kernel_is_bypassed,
    store_for,
)
from repro.gpu.sim import Simulator
from repro.memory.cache import SetAssocCache
from repro.workloads.base import (
    clear_trace_cache,
    interned_runs_for_arg,
    prewarm_workload_traces,
    runs_for_arg,
)
from repro.workloads.suite import build_workload

SCALE = 1 / 64


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_memo_stores()
    clear_trace_cache()
    yield
    clear_memo_stores()
    clear_trace_cache()


def _config(**kw) -> GPUConfig:
    kw.setdefault("num_chiplets", 4)
    kw.setdefault("scale", SCALE)
    return GPUConfig(**kw)


# ---------------------------------------------------------------------------
# Cache digest / snapshot / stats delta


def _touched_cache() -> SetAssocCache:
    cache = SetAssocCache(size_bytes=64 * 64, assoc=4, name="L2")
    cache.bulk_access(start=0, count=100, load=True, store=True)
    cache.bulk_access(start=50, count=30, load=True, store=False)
    return cache


def test_cache_digest_is_stable_and_state_sensitive():
    a = _touched_cache()
    b = _touched_cache()
    # Equal states digest equal, across instances and repeated calls.
    assert a.memo_digest() == b.memo_digest() == a.memo_digest()
    b.access(5000, is_write=True)
    assert a.memo_digest() != b.memo_digest()


def test_cache_snapshot_restore_round_trip():
    cache = _touched_cache()
    digest = cache.memo_digest()
    state = cache.memo_state()
    snapshot = cache.memo_snapshot()
    cache.bulk_access(start=200, count=150, load=True, store=True)
    cache.invalidate_all()
    assert cache.memo_digest() != digest
    cache.memo_restore(snapshot)
    assert cache.memo_digest() == digest
    assert cache.memo_state() == state
    # The restored cache must stay usable and the shared snapshot
    # untouched by further traffic.
    cache.bulk_access(start=0, count=10, load=True, store=False)
    cache.memo_restore(snapshot)
    assert cache.memo_digest() == digest


def _apply_cache_ops(cache: SetAssocCache, ops) -> None:
    for op in ops:
        if op[0] == "access":
            cache.access(op[1], is_write=op[2])
        elif op[0] == "fill":
            cache.fill(op[1], dirty=op[2])
        elif op[0] == "run":
            cache.bulk_access(start=op[1], count=op[2], load=op[3],
                              store=op[4] or not op[3])
        elif op[0] == "flush":
            cache.flush_dirty()
        else:
            cache.invalidate_line(op[1])


# Lines up to 1000 so most are not small-int singletons: the digest must
# not depend on which int objects the state happens to share.
_line = st.integers(0, 1000)
_cache_ops = st.lists(st.one_of(
    st.tuples(st.just("access"), _line, st.booleans()),
    st.tuples(st.just("fill"), _line, st.booleans()),
    st.tuples(st.just("run"), _line, st.integers(1, 40), st.booleans(),
              st.booleans()),
    st.tuples(st.just("flush")),
    st.tuples(st.just("invalidate"), _line),
), max_size=40)


def _rebuilt(cache: SetAssocCache, sets) -> SetAssocCache:
    """A cache of ``cache``'s geometry holding ``sets`` (set index ->
    ``(line, dirty)`` pairs, both in order), built from fresh ints."""
    twin = SetAssocCache(size_bytes=cache.capacity_lines * 64,
                         assoc=cache.assoc, name="twin")
    twin.memo_restore((
        {int(str(idx)): OrderedDict((int(str(line)), dirty)
                                    for line, dirty in pairs)
         for idx, pairs in sets},
        sum(len(pairs) for _, pairs in sets)))
    return twin


@settings(max_examples=200, deadline=None)
@given(before=_cache_ops, after=_cache_ops)
def test_dict_cache_memo_hooks(before, after):
    """Snapshot, then any operations, then restore reproduces the
    ordered state; equal states digest equal; swapping two lines' LRU
    order or two sets' creation order changes the digest."""
    cache = SetAssocCache(size_bytes=32 * 64, assoc=4, name="L2")
    _apply_cache_ops(cache, before)
    state = cache.memo_state()
    digest = cache.memo_digest()
    snapshot = cache.memo_snapshot()
    _apply_cache_ops(cache, after)
    cache.memo_restore(snapshot)
    assert cache.memo_state() == state
    assert cache.memo_digest() == digest
    # The snapshot is copied on restore, never installed.
    _apply_cache_ops(cache, after)
    cache.memo_restore(snapshot)
    assert cache.memo_state() == state

    sets = [(idx, list(pairs)) for idx, pairs in state[0]]
    twin = _rebuilt(cache, sets)
    assert twin.memo_state() == state
    assert twin.memo_digest() == digest
    for idx, pairs in sets:
        if len(pairs) >= 2:
            swapped = [(i, [p[1], p[0]] + p[2:] if i == idx else p)
                       for i, p in sets]
            assert _rebuilt(cache, swapped).memo_digest() != digest
            break
    if len(sets) >= 2:
        reordered = [sets[1], sets[0]] + sets[2:]
        assert _rebuilt(cache, reordered).memo_digest() != digest


def test_cache_stats_delta_round_trip():
    cache = _touched_cache()
    before = cache.stats.counter_tuple()
    cache.bulk_access(start=300, count=80, load=True, store=True)
    delta = cache.stats.delta_since(before)
    assert any(delta)
    fresh = _touched_cache()
    fresh.stats.apply_delta(delta)
    assert fresh.stats.counter_tuple() == cache.stats.counter_tuple()


# ---------------------------------------------------------------------------
# Protocol state round trips (CPElide table, HMG directories)


def _launch(protocol, workload, kernel_index, kernel_id):
    kernel = workload.kernels[kernel_index]
    packet = kernel.packet(kernel_id, 4)
    placement = WGScheduler(4).place(packet)
    protocol.on_kernel_launch(packet, placement)
    protocol.on_kernel_complete(packet, placement)


def test_cpelide_table_snapshot_restore_round_trip():
    config = _config()
    device = Device(config)
    protocol = CPElideProtocol(config, device)
    workload = build_workload("gaussian", config)
    empty = protocol.memo_digest()
    _launch(protocol, workload, 0, 0)
    digest = protocol.memo_digest()
    assert digest != empty
    snapshot = protocol.memo_snapshot()
    _launch(protocol, workload, 1, 1)
    protocol.memo_restore(snapshot)
    assert protocol.memo_digest() == digest


def test_cpelide_counter_delta_replays_peak_and_launches():
    config = _config()
    device = Device(config)
    protocol = CPElideProtocol(config, device)
    workload = build_workload("gaussian", config)
    _launch(protocol, workload, 0, 0)
    launches = protocol._launches
    token = protocol.memo_counters_begin()
    _launch(protocol, workload, 1, 1)
    delta = protocol.memo_counters_end(token)
    peak = protocol.table.peak_entries
    overflow = protocol.table.overflow_evictions
    # Applying the delta elsewhere advances the same counters (peak via
    # max-fold, launches by one).
    other = CPElideProtocol(_config(), Device(_config()))
    wl2 = build_workload("gaussian", _config())
    _launch(other, wl2, 0, 0)
    other.memo_counters_apply(delta)
    assert other.table.peak_entries == peak
    assert other.table.overflow_evictions == overflow
    assert other._launches == protocol._launches == launches + 1


def test_cpelide_first_launch_flag_in_memo_key():
    config = _config()
    protocol = CPElideProtocol(config, Device(config))
    assert protocol.memo_key_flags() == (True,)
    _launch(protocol, build_workload("gaussian", config), 0, 0)
    assert protocol.memo_key_flags() == (False,)


def test_hmg_directory_snapshot_restore_round_trip():
    config = _config()
    device = Device(config)
    protocol = HMGProtocol(config, device, write_back=False)
    for line in range(0, 4000, 7):
        protocol.access(line % 4, line, is_write=(line % 3 == 0))
    digest = protocol.memo_digest()
    snapshot = protocol.memo_snapshot()
    for line in range(0, 2000, 5):
        protocol.access((line + 1) % 4, line, is_write=True)
    assert protocol.memo_digest() != digest
    protocol.memo_restore(snapshot)
    assert protocol.memo_digest() == digest


# ---------------------------------------------------------------------------
# HomeMap journal


def test_home_map_journal_apply_reproduces_digest():
    config = _config()
    recorder, replayer = Device(config).home_map, Device(config).home_map
    recorder.memo_enable()
    replayer.memo_enable()
    assert recorder.memo_digest() == replayer.memo_digest()
    recorder.memo_begin_journal()
    for line in range(0, 5000, 11):
        recorder.home_of_line(line, line % 4)
    journal = recorder.memo_take_journal()
    assert journal
    replayer.memo_apply_journal(journal)
    assert recorder.memo_digest() == replayer.memo_digest()
    for line in range(0, 5000, 11):
        assert (replayer.peek_home_of_line(line)
                == recorder.peek_home_of_line(line))


# ---------------------------------------------------------------------------
# Store: context isolation, key invalidation, LRU bound


def test_store_contexts_are_isolated():
    a = store_for(("config-a", "cpelide", "static"))
    b = store_for(("config-b", "cpelide", "static"))
    c = store_for(("config-a", "hmg", "static"))
    assert a is not b and a is not c
    assert store_for(("config-a", "cpelide", "static")) is a


def test_config_or_protocol_change_misses_the_memo():
    """Changing the config or the protocol must invalidate memoized
    outcomes (fresh misses, no replay of the old context's entries)."""
    base = _config()
    first = Simulator(base, "cpelide", trace_path="memo").run(
        build_workload("hotspot", base))
    assert first.memo_hits > 0

    # A rebuilt simulator in the SAME context replays everything...
    warm = Simulator(_config(), "cpelide", trace_path="memo").run(
        build_workload("hotspot", _config()))
    assert warm.memo_misses == 0

    # ...but a different config or protocol keys a different store, so
    # the old entries must not replay: fresh misses again.
    other_scale = _config(scale=1 / 32)
    rescaled = Simulator(other_scale, "cpelide", trace_path="memo").run(
        build_workload("hotspot", other_scale))
    assert rescaled.memo_misses > 0

    reprotocoled = Simulator(_config(), "hmg", trace_path="memo").run(
        build_workload("hotspot", _config()))
    assert reprotocoled.memo_misses > 0


def test_store_lru_evicts_oldest_entry():
    store = MemoStore(max_entries=2)

    def entry():
        return MemoEntry(
            post_digests=(), cache_snapshots=(), cache_stat_deltas=(),
            dram_delta=None, home_journal=(), lds_delta=None,
            local_cp_delta=None, translations_delta=0,
            proto_snapshot=None, proto_counter_delta=None,
            sched_snapshot=None, metrics={}, trace_lines=0)

    store.put("a", entry())
    store.put("b", entry())
    assert store.get("a") is not None  # refresh "a"
    store.put("c", entry())  # evicts "b", the least recently used
    assert store.get("b") is None
    assert store.get("a") is not None and store.get("c") is not None


def test_snapshot_pool_dedups_by_digest():
    store = MemoStore()
    built = []

    def build():
        built.append(object())
        return built[-1]

    first = store.intern_snapshot(0, b"digest", build)
    second = store.intern_snapshot(0, b"digest", build)
    assert first is second and len(built) == 1
    # A different slot with the same digest is a different state space.
    store.intern_snapshot(1, b"digest", build)
    assert len(built) == 2


# ---------------------------------------------------------------------------
# Bypass predicate


def test_bypass_predicate_matches_roaming_args():
    config = _config()
    bfs = build_workload("bfs", config)
    assert any(kernel_is_bypassed(k) for k in bfs.kernels)
    hotspot = build_workload("hotspot", config)
    assert not any(kernel_is_bypassed(k) for k in hotspot.kernels)


# ---------------------------------------------------------------------------
# Run-trace interning


def test_interned_runs_match_direct_generation_for_every_suite_arg():
    """Drift referee: the interned accessor must return exactly the runs
    the direct generator produces, for every argument the differential
    workloads sweep."""
    config = _config()
    for name in ["bfs", "sssp", "color", "hotspot", "rnn-gru-small",
                 "babelstream"]:
        workload = build_workload(name, config)
        for kernel_id, kernel in enumerate(workload.kernels):
            for arg in kernel.args:
                for logical in range(4):
                    direct = runs_for_arg(arg, logical, 4, kernel_id)
                    interned = interned_runs_for_arg(arg, logical, 4,
                                                     kernel_id)
                    assert list(interned) == direct, (name, kernel_id)
                    # Second call serves the identical object.
                    again = interned_runs_for_arg(arg, logical, 4,
                                                  kernel_id)
                    assert again == interned


def _random_arg(resample: bool):
    from repro.cp.packets import AccessMode
    from repro.memory.address import LINE_SIZE, AddressSpace
    from repro.workloads.base import KernelArg, PatternKind

    buf = AddressSpace().alloc("buf", 4096 * LINE_SIZE)
    return KernelArg(buffer=buf, mode=AccessMode.R,
                     pattern=PatternKind.RANDOM, resample=resample)


def test_interning_shares_stable_traces_across_kernel_ids():
    stable = _random_arg(resample=False)  # fully stable sample
    first = interned_runs_for_arg(stable, 0, 4, 0)
    second = interned_runs_for_arg(stable, 0, 4, 7)
    assert first is second  # same interned tuple, not just equal
    assert list(first) == runs_for_arg(stable, 0, 4, 7)


def test_interning_keeps_roaming_traces_distinct_per_kernel():
    roaming = _random_arg(resample=True)  # kernel-id-seeded sample
    assert (interned_runs_for_arg(roaming, 0, 4, 0)
            != interned_runs_for_arg(roaming, 0, 4, 1))
    assert (list(interned_runs_for_arg(roaming, 0, 4, 1))
            == runs_for_arg(roaming, 0, 4, 1))


def test_prewarm_populates_the_trace_cache():
    config = _config()
    workload = build_workload("bfs", config)
    assert prewarm_workload_traces(workload, config.num_chiplets) > 0


# ---------------------------------------------------------------------------
# Sweep engine: memo counters stay out of engine payloads


def test_engine_payload_identical_across_trace_paths(monkeypatch):
    from repro.api import sweep

    monkeypatch.setenv("REPRO_TRACE_PATH", "run")
    run = sweep(workloads=("hotspot",), protocols=("cpelide",),
                configs=(_config(),), jobs=1, cache=False).to_dicts()
    monkeypatch.setenv("REPRO_TRACE_PATH", "memo")
    memo = sweep(workloads=("hotspot",), protocols=("cpelide",),
                 configs=(_config(),), jobs=1, cache=False).to_dicts()
    assert run == memo
