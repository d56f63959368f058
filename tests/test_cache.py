"""Unit tests for the set-associative cache model."""

import pytest

from repro.memory.cache import Eviction, SetAssocCache, WritePolicy


def make_cache(lines=16, assoc=4, policy=WritePolicy.WRITE_BACK):
    return SetAssocCache(size_bytes=lines * 64, assoc=assoc, policy=policy,
                         name="test")


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        hit, _ = cache.access(10, is_write=False)
        assert not hit
        hit, _ = cache.access(10, is_write=False)
        assert hit

    def test_read_write_stat_split(self):
        """A store hits a line a load placed; a store to an absent line
        misses, and neither evicts from a cache with room."""
        cache = make_cache()
        assert cache.access(1, is_write=False) == (False, None)
        assert cache.access(1, is_write=True) == (True, None)
        assert cache.access(2, is_write=True) == (False, None)
        assert cache.resident_lines == 2

    def test_capacity_and_sets(self):
        cache = make_cache(lines=16, assoc=4)
        assert cache.capacity_lines == 16
        assert cache.num_sets == 4

    def test_tiny_cache_assoc_clamped(self):
        cache = SetAssocCache(size_bytes=2 * 64, assoc=32)
        assert cache.assoc == 2
        assert cache.capacity_lines == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SetAssocCache(size_bytes=0, assoc=4)
        with pytest.raises(ValueError):
            SetAssocCache(size_bytes=64, assoc=0)


class TestLRU:
    def test_lru_eviction_order(self):
        # Direct-mapped set behaviour via one set: lines 0,4,8,12 map to
        # set 0 of a 4-set, 1-way cache.
        cache = SetAssocCache(size_bytes=4 * 64, assoc=1, name="dm")
        cache.access(0, False)
        _, evicted = cache.access(4, False)
        assert evicted == Eviction(0, False)

    def test_lru_refresh_on_hit(self):
        cache = SetAssocCache(size_bytes=2 * 64, assoc=2)
        # Both lines land in the same set of a fully-assoc 2-entry cache.
        cache.access(0, False)
        cache.access(2, False)
        cache.access(0, False)           # refresh 0
        _, evicted = cache.access(4, False)
        assert evicted is not None and evicted.line == 2

    def test_dirty_eviction_flagged(self):
        cache = SetAssocCache(size_bytes=64, assoc=1)
        cache.access(0, is_write=True)
        _, evicted = cache.access(1, is_write=False)
        assert evicted == Eviction(0, True)
        assert not cache.lookup(0)


class TestWritePolicies:
    def test_write_back_marks_dirty(self):
        cache = make_cache()
        cache.access(3, is_write=True)
        assert cache.is_dirty(3)
        assert cache.dirty_lines == 1

    def test_write_through_stays_clean(self):
        cache = make_cache(policy=WritePolicy.WRITE_THROUGH)
        cache.access(3, is_write=True)
        assert not cache.is_dirty(3)
        assert cache.dirty_lines == 0

    def test_read_does_not_clear_dirty(self):
        cache = make_cache()
        cache.access(3, is_write=True)
        cache.access(3, is_write=False)
        assert cache.is_dirty(3)


class TestFill:
    def test_fill_does_not_count_demand(self):
        """A fill inserts the line clean without a demand access; the
        next demand access hits it."""
        cache = make_cache()
        assert cache.fill(7, dirty=False) is None
        assert cache.lookup(7) and not cache.is_dirty(7)
        assert cache.access(7, is_write=False) == (True, None)

    def test_fill_preserves_existing_dirty(self):
        cache = make_cache()
        cache.access(7, is_write=True)
        cache.fill(7, dirty=False)
        assert cache.is_dirty(7)

    def test_fill_evicts_when_full(self):
        cache = SetAssocCache(size_bytes=64, assoc=1)
        cache.fill(0, dirty=True)
        evicted = cache.fill(1)
        assert evicted == Eviction(0, True)


class TestSyncOperations:
    def test_flush_retains_clean_copies(self):
        """Sec. III-B: a written-back line stays resident, clean."""
        cache = make_cache()
        cache.access(1, True)
        cache.access(2, True)
        cache.access(3, False)
        flushed = cache.flush_dirty()
        assert sorted(flushed) == [1, 2]
        assert cache.resident_lines == 3
        assert cache.dirty_lines == 0
        assert cache.flush_dirty() == []

    def test_invalidate_all_reports_dirty(self):
        cache = make_cache()
        cache.access(1, True)
        cache.access(2, False)
        dropped, dirty = cache.invalidate_all()
        assert dropped == 2
        assert dirty == [1]
        assert cache.resident_lines == 0
        assert cache.invalidate_all() == (0, [])

    def test_invalidate_line(self):
        cache = make_cache()
        cache.access(5, True)
        present, dirty = cache.invalidate_line(5)
        assert present and dirty
        present, dirty = cache.invalidate_line(5)
        assert not present and not dirty

    def test_flush_line(self):
        cache = make_cache()
        cache.access(5, True)
        assert cache.flush_line(5)
        assert not cache.is_dirty(5)
        assert cache.lookup(5)
        assert not cache.flush_line(5)      # already clean
        assert not cache.flush_line(99)     # absent

    def test_flush_empty_cache(self):
        cache = make_cache()
        assert cache.flush_dirty() == []

    def test_invalidate_then_reaccess_misses(self):
        cache = make_cache()
        cache.access(1, False)
        cache.invalidate_all()
        hit, _ = cache.access(1, False)
        assert not hit
