"""Differential tests: bulk run ops vs the per-line primitives.

`bulk_access` / `bulk_flush` / `bulk_invalidate` promise bit-exact
equivalence with issuing the per-line calls in ascending line order:
identical residency, set-creation order, LRU order, dirty flags,
`CacheStats`, and (for accesses) an identical ordered miss/victim event
stream. The differential tests drive each core's bulk ops — the dict
`SetAssocCache` (whose `bulk_access` inlines `access` into one loop) and
the vectorized `NumpyCacheCore` — and per-line calls on a second
`SetAssocCache` from the same randomized pre-state, and compare
everything, including the order a whole-cache flush writes lines back in
afterwards.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import SetAssocCache, WritePolicy
from repro.memory.npcache import NumpyCacheCore

#: The bulk implementations held to the per-line reference.
CORES = (SetAssocCache, NumpyCacheCore)


def make_cache(num_lines, assoc, policy=WritePolicy.WRITE_BACK,
               core=SetAssocCache):
    return core(size_bytes=num_lines * 64, assoc=assoc, policy=policy,
                name="t")


def snapshot(cache):
    """Full observable state: the sets in creation order, each set's
    (line, dirty) pairs in LRU order, plus the stats."""
    return cache.memo_state(), vars(cache.stats).copy()


def assert_same_flush(bulk, ref):
    """A whole-cache flush writes back the same lines in the same order
    (set-creation order, then LRU order) and leaves the same state."""
    assert bulk.flush_dirty() == ref.flush_dirty()
    assert snapshot(bulk) == snapshot(ref)


def reference_access_run(cache, start, count, do_load, do_store):
    """The per-line semantics bulk_access must reproduce."""
    hits = 0
    events = []
    for line in range(start, start + count):
        if do_load:
            hit, ev = cache.access(line, is_write=False)
            if do_store:
                cache.access(line, is_write=True)
        else:
            hit, ev = cache.access(line, is_write=True)
        if hit:
            hits += 1
        else:
            events.append((line, ev.line if ev else None,
                           ev.dirty if ev else False))
    return hits, events


def prepopulate(cache, ops):
    """Apply a warm-up access sequence (line, is_write) pairs."""
    for line, is_write in ops:
        cache.access(line, is_write)


kind_strategy = st.sampled_from([(True, False), (False, True), (True, True)])


@settings(max_examples=200, deadline=None)
@given(
    num_lines=st.sampled_from([8, 16, 32, 64]),
    assoc=st.sampled_from([1, 2, 4, 8]),
    policy=st.sampled_from(list(WritePolicy)),
    warmup=st.lists(st.tuples(st.integers(0, 127), st.booleans()),
                    max_size=60),
    start=st.integers(0, 127),
    count=st.integers(1, 90),
    kind=kind_strategy,
)
def test_access_run_matches_per_line(num_lines, assoc, policy, warmup,
                                     start, count, kind):
    do_load, do_store = kind
    for core in CORES:
        bulk = make_cache(num_lines, assoc, policy, core=core)
        ref = make_cache(num_lines, assoc, policy)
        prepopulate(bulk, warmup)
        prepopulate(ref, warmup)

        res = bulk.bulk_access(start=start, count=count,
                               load=do_load, store=do_store)
        ref_hits, ref_events = reference_access_run(ref, start, count,
                                                    do_load, do_store)

        assert snapshot(bulk) == snapshot(ref), core
        assert res.hits == ref_hits
        assert res.misses == count - ref_hits
        if res.uniform_miss:
            assert res.events is None
            assert ref_hits == 0
            assert ref_events == [(line, None, False)
                                  for line in range(start, start + count)]
        else:
            assert res.events == ref_events
        assert_same_flush(bulk, ref)


@settings(max_examples=150, deadline=None)
@given(
    num_lines=st.sampled_from([8, 32, 64]),
    assoc=st.sampled_from([2, 4, 16]),
    warmup=st.lists(st.tuples(st.integers(0, 127), st.booleans()),
                    max_size=60),
    start=st.integers(0, 127),
    count=st.integers(1, 90),
)
def test_flush_and_invalidate_run_match_per_line(num_lines, assoc, warmup,
                                                 start, count):
    for core in CORES:
        bulk = make_cache(num_lines, assoc, core=core)
        ref = make_cache(num_lines, assoc)
        prepopulate(bulk, warmup)
        prepopulate(ref, warmup)

        flushed = bulk.bulk_flush(start=start, count=count).lines
        ref_flushed = [line for line in range(start, start + count)
                       if ref.flush_line(line)]
        assert flushed == ref_flushed
        assert snapshot(bulk) == snapshot(ref), core

        inv = bulk.bulk_invalidate(start=start, count=count)
        dropped, dirty = inv.dropped, inv.lines
        ref_dropped = 0
        ref_dirty = []
        for line in range(start, start + count):
            present, was_dirty = ref.invalidate_line(line)
            if present:
                ref_dropped += 1
            if was_dirty:
                ref_dirty.append(line)
        assert (dropped, dirty) == (ref_dropped, ref_dirty)
        assert snapshot(bulk) == snapshot(ref), core
        assert_same_flush(bulk, ref)


def test_cold_access_run_creates_sets_in_first_touch_order():
    """On a cold cache, a run creates sets in the order its lines first
    touch them, as per-line accesses do (minimal case: set 1, then set
    0). That order is the order a whole-cache flush writes back in."""
    for core in CORES:
        bulk = make_cache(4, 2, core=core)
        ref = make_cache(4, 2)
        res = bulk.bulk_access(start=1, count=2, load=True, store=False)
        assert res.uniform_miss
        reference_access_run(ref, 1, 2, True, False)
        assert [idx for idx, _ in bulk.memo_state()[0]] == [1, 0]
        assert snapshot(bulk) == snapshot(ref)

        bulk = make_cache(16, 4, core=core)  # 4 sets
        bulk.bulk_access(start=1, count=8, load=True, store=True)
        assert bulk.flush_dirty() == [1, 5, 2, 6, 3, 7, 4, 8]


def test_access_run_uniform_miss_on_cold_cache():
    cache = make_cache(64, 4)
    res = cache.bulk_access(start=0, count=16, load=True, store=False)
    assert res.uniform_miss and res.misses == 16 and res.events is None
    assert cache.stats.read_misses == 16


def test_access_run_all_hit_refreshes_lru():
    cache = make_cache(64, 4)
    cache.bulk_access(start=0, count=16, load=True, store=False)
    res = cache.bulk_access(start=0, count=16, load=True, store=False)
    assert res.all_hit and res.hits == 16 and res.events == []
    assert cache.stats.read_hits == 16


def test_access_run_rejects_no_op_kind():
    cache = make_cache(64, 4)
    with pytest.raises(ValueError):
        cache.bulk_access(start=0, count=4, load=False, store=False)


def test_access_run_empty_run_is_noop():
    cache = make_cache(64, 4)
    before = snapshot(cache)
    res = cache.bulk_access(start=5, count=0, load=True, store=True)
    assert res.hits == 0 and res.misses == 0 and res.events == []
    assert snapshot(cache) == before


def test_load_store_run_marks_lines_dirty_under_write_back():
    cache = make_cache(64, 4)
    cache.bulk_access(start=0, count=8, load=True, store=True)
    assert cache.dirty_lines == 8
    # Write-through never dirties.
    wt = make_cache(64, 4, WritePolicy.WRITE_THROUGH)
    wt.bulk_access(start=0, count=8, load=True, store=True)
    assert wt.dirty_lines == 0
