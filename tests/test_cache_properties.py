"""Property-based tests for the cache model (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.memory.cache import SetAssocCache, WritePolicy

# Small parameter space keeps shrinking effective.
accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
    min_size=0, max_size=200)
shapes = st.tuples(st.integers(min_value=1, max_value=32),    # lines
                   st.integers(min_value=1, max_value=8))     # assoc
policies = st.sampled_from(list(WritePolicy))


def run_trace(cache, trace):
    """Issue every access; returns the ``(hit, eviction)`` results."""
    return [cache.access(line, is_write) for line, is_write in trace]


@given(shapes, policies, accesses)
@settings(max_examples=150, deadline=None)
def test_residency_never_exceeds_capacity(shape, policy, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc, policy=policy)
    run_trace(cache, trace)
    assert cache.resident_lines <= cache.capacity_lines


@given(shapes, accesses)
@settings(max_examples=150, deadline=None)
def test_flush_leaves_no_dirty_lines_and_keeps_residency(shape, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    run_trace(cache, trace)
    before = cache.resident_lines
    flushed = cache.flush_dirty()
    assert cache.dirty_lines == 0
    assert cache.resident_lines == before
    assert len(set(flushed)) == len(flushed)


@given(shapes, accesses)
@settings(max_examples=150, deadline=None)
def test_invalidate_empties_cache(shape, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    run_trace(cache, trace)
    dropped, dirty = cache.invalidate_all()
    assert cache.resident_lines == 0
    assert cache.dirty_lines == 0
    assert len(dirty) <= dropped


@given(shapes, accesses)
@settings(max_examples=150, deadline=None)
def test_write_through_never_holds_dirty(shape, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc,
                          policy=WritePolicy.WRITE_THROUGH)
    results = run_trace(cache, trace)
    assert cache.dirty_lines == 0
    assert not any(evicted.dirty for _, evicted in results if evicted)


@given(shapes, accesses)
@settings(max_examples=150, deadline=None)
def test_hits_plus_misses_equals_accesses(shape, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    results = run_trace(cache, trace)
    assert len(results) == len(trace)
    # A hit never evicts; every miss inserts a line and every eviction
    # makes room for one.
    assert all(not hit for hit, evicted in results if evicted)
    misses = sum(not hit for hit, _ in results)
    evictions = sum(evicted is not None for _, evicted in results)
    assert misses - evictions == cache.resident_lines


@given(shapes, accesses)
@settings(max_examples=100, deadline=None)
def test_immediate_reaccess_always_hits(shape, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    for line, is_write in trace:
        cache.access(line, is_write)
        hit, _ = cache.access(line, False)
        assert hit


@given(shapes, accesses)
@settings(max_examples=100, deadline=None)
def test_deterministic_replay(shape, trace):
    lines, assoc = shape
    a = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    b = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    assert run_trace(a, trace) == run_trace(b, trace)
    assert a.memo_state() == b.memo_state()
    assert a.resident_lines == b.resident_lines


@given(shapes, accesses)
@settings(max_examples=100, deadline=None)
def test_dirty_lines_only_from_writeback_writes(shape, trace):
    lines, assoc = shape
    cache = SetAssocCache(size_bytes=lines * 64, assoc=assoc)
    run_trace(cache, trace)
    written = {line for line, is_write in trace if is_write}
    for cset in cache._sets.values():
        for line, dirty in cset.items():
            if dirty:
                assert line in written
