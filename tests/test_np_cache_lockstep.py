"""Lockstep property tests: numpy cache core vs the dict reference.

The numpy core (:class:`repro.memory.npcache.NumpyCacheCore`) must be
*bit-identical* in behavior to the dict-backed
:class:`~repro.memory.cache.SetAssocCache` it subclasses, whose bulk
operations are loops over its per-line calls — same hits, same
evictions in the same order, same dirty sets, same LRU victim order,
same set-creation order, same canonical ``memo_state()``.
These tests drive random operation sequences through both cores in
lockstep (hypothesis shrinks any divergence to a minimal
counterexample) and also pin the unified bulk-op API surface:
``bulk_*`` returns :class:`BulkResult` without warning, and the five
legacy names are gone.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import (
    BulkResult,
    Eviction,
    SetAssocCache,
    WritePolicy,
)
from repro.memory.npcache import NumpyCacheCore

LINE_SPACE = 96  # larger than every generated capacity, to force spills

shapes = st.tuples(st.integers(min_value=1, max_value=32),   # capacity lines
                   st.integers(min_value=1, max_value=8))    # assoc
policies = st.sampled_from(list(WritePolicy))
lines = st.integers(min_value=0, max_value=LINE_SPACE - 1)
spans = st.tuples(st.integers(min_value=0, max_value=LINE_SPACE - 1),
                  st.integers(min_value=1, max_value=48))
load_store = st.sampled_from([(True, False), (False, True), (True, True)])

serve_events = st.lists(
    st.one_of(
        st.tuples(lines, st.none(), st.just(False)),
        st.tuples(lines, lines, st.booleans()),
    ),
    min_size=1, max_size=24)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), lines, st.booleans()),
        st.tuples(st.just("fill"), lines, st.booleans()),
        st.tuples(st.just("bulk_access"), spans, load_store),
        st.tuples(st.just("bulk_fill"),
                  st.lists(lines, min_size=1, max_size=40), st.booleans()),
        st.tuples(st.just("bulk_serve"), serve_events),
        st.tuples(st.just("bulk_flush"), st.one_of(st.none(), spans)),
        st.tuples(st.just("bulk_invalidate"), st.one_of(st.none(), spans)),
        st.tuples(st.just("flush_line"), lines),
        st.tuples(st.just("invalidate_line"), lines),
    ),
    min_size=0, max_size=30)


def make_pair(shape, policy=WritePolicy.WRITE_BACK):
    """One dict-backed reference and one numpy core, same geometry."""
    capacity, assoc = shape
    kwargs = dict(size_bytes=capacity * 64, assoc=assoc, policy=policy)
    return SetAssocCache(**kwargs), NumpyCacheCore(**kwargs)


def apply_op(cache, op):
    """Apply one generated operation; return its comparable outcome."""
    kind = op[0]
    if kind == "access":
        return cache.access(op[1], op[2])
    if kind == "fill":
        return cache.fill(op[1], dirty=op[2])
    if kind == "bulk_access":
        (start, count), (load, store) = op[1], op[2]
        return cache.bulk_access(start=start, count=count,
                                 load=load, store=store)
    if kind == "bulk_fill":
        return cache.bulk_fill(lines=list(op[1]), dirty=op[2])
    if kind == "bulk_serve":
        return cache.bulk_serve(events=list(op[1]))
    if kind == "bulk_flush":
        if op[1] is None:
            return cache.bulk_flush()
        return cache.bulk_flush(start=op[1][0], count=op[1][1])
    if kind == "bulk_invalidate":
        if op[1] is None:
            return cache.bulk_invalidate()
        return cache.bulk_invalidate(start=op[1][0], count=op[1][1])
    if kind == "flush_line":
        return cache.flush_line(op[1])
    if kind == "invalidate_line":
        return cache.invalidate_line(op[1])
    raise AssertionError(f"unknown op {kind!r}")


def assert_same_state(ref, got):
    """Full behavioral-state comparison of the two cores."""
    assert got.memo_state() == ref.memo_state()
    assert got.resident_lines == ref.resident_lines
    assert got.dirty_lines == ref.dirty_lines
    assert sorted(got.iter_lines()) == sorted(ref.iter_lines())


@given(shapes, policies, ops)
@settings(max_examples=120, deadline=None)
def test_lockstep_op_sequences(shape, policy, trace):
    """Every op returns the same result and leaves identical state."""
    ref, got = make_pair(shape, policy)
    for op in trace:
        expected = apply_op(ref, op)
        actual = apply_op(got, op)
        assert actual == expected, f"op {op}: {actual!r} != {expected!r}"
    assert_same_state(ref, got)


@given(shapes, ops, st.lists(lines, min_size=1, max_size=64), st.booleans())
@settings(max_examples=100, deadline=None)
def test_lockstep_eviction_victim_order(shape, warmup, fills, dirty):
    """After an arbitrary warmup, a bulk fill evicts the same victims in
    the same (LRU) order on both cores."""
    ref, got = make_pair(shape)
    for op in warmup:
        apply_op(ref, op)
        apply_op(got, op)
    expected = ref.bulk_fill(lines=list(fills), dirty=dirty)
    actual = got.bulk_fill(lines=list(fills), dirty=dirty)
    assert actual.evictions == expected.evictions
    assert_same_state(ref, got)


@given(shapes, ops)
@settings(max_examples=100, deadline=None)
def test_lockstep_flush_and_invalidate_walk_order(shape, trace):
    """Whole-cache flush and invalidate emit lines in the same order
    (creation order then LRU — behavioral state downstream consumers
    bit-compare)."""
    ref, got = make_pair(shape)
    for op in trace:
        apply_op(ref, op)
        apply_op(got, op)
    assert got.flush_dirty() == ref.flush_dirty()
    assert got.invalidate_all() == ref.invalidate_all()
    assert_same_state(ref, got)


@given(shapes, ops)
@settings(max_examples=80, deadline=None)
def test_numpy_snapshot_restore_roundtrip(shape, trace):
    """memo_restore(memo_snapshot()) is a perfect rewind on the numpy
    core: canonical state and digest both return to the captured point."""
    _, cache = make_pair(shape)
    for op in trace:
        apply_op(cache, op)
    snap = cache.memo_snapshot()
    state, digest = cache.memo_state(), cache.memo_digest()
    # Perturb: fills + a flush are enough to move every matrix.
    for line in range(0, LINE_SPACE, 3):
        cache.fill(line, dirty=True)
    cache.flush_dirty()
    cache.memo_restore(snap)
    assert cache.memo_state() == state
    assert cache.memo_digest() == digest


@given(shapes, ops)
@settings(max_examples=80, deadline=None)
def test_numpy_digest_is_behavioral(shape, trace):
    """Two numpy cores fed the same sequence digest identically, and the
    digest moves exactly when the canonical behavioral state does."""
    _, a = make_pair(shape)
    _, b = make_pair(shape)
    for op in trace:
        apply_op(a, op)
        apply_op(b, op)
    assert a.memo_digest() == b.memo_digest()
    before_state, before_digest = a.memo_state(), a.memo_digest()
    a.fill(0, dirty=True)
    if a.memo_state() != before_state:
        assert a.memo_digest() != before_digest
    else:
        assert a.memo_digest() == before_digest


def test_legacy_bulk_names_are_gone():
    """The five pre-BulkResult names no longer exist; the keyword-only
    ``bulk_*`` API never warns."""
    twin, _ = make_pair((16, 4))
    for name in ("access_run", "fill_many", "serve_miss_seq", "flush_run",
                 "invalidate_run"):
        assert not hasattr(twin, name)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = twin.bulk_access(start=0, count=8, load=True, store=True)
        assert isinstance(res, BulkResult)
        twin.bulk_fill(lines=[1, 2, 3], dirty=True)
        twin.bulk_serve(events=[(5, None, False)])
        assert twin.bulk_flush().writebacks > 0
        assert twin.bulk_invalidate().dropped > 0


def test_bulk_range_argument_validation():
    _, cache = make_pair((8, 2))
    with pytest.raises(ValueError):
        cache.bulk_flush(count=4)
    with pytest.raises(ValueError):
        cache.bulk_flush(start=0)
    with pytest.raises(ValueError):
        cache.bulk_invalidate(count=4)
    with pytest.raises(ValueError):
        cache.bulk_invalidate(start=0)


def test_eviction_dataclass_shape():
    """BulkResult.evictions carries (line, dirty) evictions — the shape
    both cores and the device attribute traffic from."""
    _, cache = make_pair((4, 1))
    res = cache.bulk_fill(lines=[0, 1, 2], dirty=True)  # 3 of 4 sets
    assert res.evictions == []
    res = cache.bulk_fill(lines=[4], dirty=False)  # set 0 again: evicts 0
    assert res.evictions == [Eviction(line=0, dirty=True)]
