"""Vectorized numpy cache core, bit-identical to the dict reference.

:class:`NumpyCacheCore` re-implements :class:`~repro.memory.cache.
SetAssocCache` storage on flat tag/dirty/stamp matrices so the bulk
operations the run and memo trace paths live on become array sweeps
instead of per-line dict work. The dict-backed base class is the
per-line reference: its bulk operations are plain loops over its
per-line calls, and it backs the per-line ``line`` trace path. The
cross-path differential oracle (``python -m repro check``, which
compares ordered cache state) and the lockstep property tests
(tests/test_np_cache_lockstep.py, tests/test_cache_runs.py) hold this
core to that reference.

Layout
------

Per cache, with ``ns = num_sets`` and ``A = assoc``:

* ``_tags``  — ``int64[ns, A]``, resident line index per way, ``-1`` when
  the way is invalid.
* ``_dirty`` — ``bool[ns, A]``, dirty flag per way (always ``False`` on
  invalid ways).
* ``_stamp`` — ``int64[ns, A]``, LRU stamp per way drawn from a global
  monotone counter ``_tick``; within a set, ascending stamp == LRU order
  (least recent first). Invalid ways hold the ``_FREE`` sentinel, which
  sorts after every live stamp, so a full set's victim is simply the
  row's ``argmin``.
* ``_occ``   — ``int64[ns]``, valid ways per set (incremental occupancy).
* ``_created`` — ``int64[ns]``, set-creation rank mirroring the dict
  core's ``_sets`` insertion order (``-1`` = never touched). Whole-cache
  flush/invalidate walk sets in creation order, which fixes writeback
  order and hence downstream L3 fill/LRU state, so the rank is
  behavioral state and must match the dict core exactly.

Bulk sweeps classify each touched set by its pre-state into all-hit
(vector stamp refresh), cold-fit (vector scatter into free ways), spill
(no hit, fill overflows the free ways: closed-form victim sequence), or
mixed (scalar per-line replay), each handled by whole-array operations
across sets.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as _np

from repro.memory.cache import (
    BulkResult,
    Eviction,
    SetAssocCache,
    WritePolicy,
)

#: Stamp sentinel for invalid ways — larger than any live stamp so free
#: ways sort after every resident line and never win a victim ``argmin``.
_FREE = 1 << 62


def make_cache_core(backend: str, *, size_bytes: int, assoc: int,
                    line_size: int = 64,
                    policy: WritePolicy = WritePolicy.WRITE_BACK,
                    name: str = "cache") -> SetAssocCache:
    """Build a cache with the requested storage backend.

    ``"dict"`` is the per-line reference :class:`SetAssocCache` (the
    ``line`` trace path); ``"numpy"`` the vectorized
    :class:`NumpyCacheCore` (the run and memo paths).
    """
    cores = {"dict": SetAssocCache, "numpy": NumpyCacheCore}
    if backend not in cores:
        raise ValueError(f"unknown cache core {backend!r} "
                         "(expected 'dict' or 'numpy')")
    return cores[backend](size_bytes=size_bytes, assoc=assoc,
                          line_size=line_size, policy=policy, name=name)


class NumpyCacheCore(SetAssocCache):
    """Array-native :class:`SetAssocCache` with identical behavior.

    Implements the same public protocol (unified ``bulk_*`` API,
    per-line primitives, sync ops, ``memo_state``) on numpy matrices,
    plus the memo path's digest and snapshot/restore hooks. Every
    observable — residency, LRU victim order, dirty flags,
    :class:`~repro.memory.cache.CacheStats`, event streams, writeback
    order — is bit-identical to the dict reference.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int = 64,
                 policy: WritePolicy = WritePolicy.WRITE_BACK,
                 name: str = "cache") -> None:
        super().__init__(size_bytes, assoc, line_size, policy, name)
        del self._sets  # storage lives in the arrays; fail fast on leaks
        ns, assoc = self.num_sets, self.assoc
        self._tags = _np.full((ns, assoc), -1, dtype=_np.int64)
        self._dirty = _np.zeros((ns, assoc), dtype=bool)
        self._stamp = _np.full((ns, assoc), _FREE, dtype=_np.int64)
        self._occ = _np.zeros(ns, dtype=_np.int64)
        self._created = _np.full(ns, -1, dtype=_np.int64)
        self._tick = 0
        self._next_rank = 0

    # ------------------------------------------------------------------
    # Scalar helpers
    # ------------------------------------------------------------------

    def _way_of(self, idx: int, line: int) -> int:
        """Way holding ``line`` in set ``idx``, or ``-1``."""
        row = self._tags[idx]
        eq = row == line
        w = int(eq.argmax())
        return w if row[w] == line else -1

    def _ensure_created(self, idx: int) -> None:
        if self._created[idx] < 0:
            self._created[idx] = self._next_rank
            self._next_rank += 1

    def _evict_slot(self, idx: int) -> Tuple[int, Eviction]:
        """Pick and clear the LRU victim of a full set ``idx``."""
        v = int(self._stamp[idx].argmin())
        ev = Eviction(int(self._tags[idx, v]), bool(self._dirty[idx, v]))
        self.stats.evictions += 1
        if ev.dirty:
            self.stats.dirty_evictions += 1
        return v, ev

    # ------------------------------------------------------------------
    # Per-line primitives
    # ------------------------------------------------------------------

    def lookup(self, line: int) -> bool:
        return self._way_of(line % self.num_sets, line) >= 0

    def run_fully_resident(self, start: int, count: int) -> bool:
        if count <= 0:
            return True
        if self._resident < count:
            return False
        lines = _np.arange(start, start + count, dtype=_np.int64)
        rows = self._tags[lines % self.num_sets]
        return bool((rows == lines[:, None]).any(axis=1).all())

    def access(self, line: int, is_write: bool
               ) -> Tuple[bool, Optional[Eviction]]:
        idx = line % self.num_sets
        self._ensure_created(idx)
        stats = self.stats
        w = self._way_of(idx, line)
        evicted = None
        if w >= 0:
            hit = True
            if is_write and self.policy is WritePolicy.WRITE_BACK:
                self._dirty[idx, w] = True
        else:
            hit = False
            if self._occ[idx] >= self.assoc:
                w, evicted = self._evict_slot(idx)
            else:
                w = int((self._tags[idx] == -1).argmax())
                self._occ[idx] += 1
                self._resident += 1
            self._tags[idx, w] = line
            self._dirty[idx, w] = (is_write
                                   and self.policy is WritePolicy.WRITE_BACK)
        self._stamp[idx, w] = self._tick
        self._tick += 1
        if hit:
            stats.hits += 1
            if is_write:
                stats.write_hits += 1
            else:
                stats.read_hits += 1
        else:
            stats.misses += 1
            if is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
        return hit, evicted

    def fill(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        idx = line % self.num_sets
        self._ensure_created(idx)
        w = self._way_of(idx, line)
        evicted = None
        if w >= 0:
            if dirty:
                self._dirty[idx, w] = True
        else:
            if self._occ[idx] >= self.assoc:
                w, evicted = self._evict_slot(idx)
            else:
                w = int((self._tags[idx] == -1).argmax())
                self._occ[idx] += 1
                self._resident += 1
            self._tags[idx, w] = line
            self._dirty[idx, w] = dirty
        self._stamp[idx, w] = self._tick
        self._tick += 1
        return evicted

    def invalidate_line(self, line: int) -> Tuple[bool, bool]:
        idx = line % self.num_sets
        w = self._way_of(idx, line)
        if w < 0:
            return False, False
        dirty = bool(self._dirty[idx, w])
        self._drop_way(idx, w)
        self.stats.lines_invalidated += 1
        return True, dirty

    def _drop_way(self, idx: int, w: int) -> None:
        self._tags[idx, w] = -1
        self._dirty[idx, w] = False
        self._stamp[idx, w] = _FREE
        self._occ[idx] -= 1
        self._resident -= 1

    def flush_line(self, line: int) -> bool:
        idx = line % self.num_sets
        w = self._way_of(idx, line)
        if w < 0 or not self._dirty[idx, w]:
            return False
        self._dirty[idx, w] = False
        self.stats.lines_flushed += 1
        return True

    # ------------------------------------------------------------------
    # Classified bulk demand sweep (shared by access/serve/fill bulk ops)
    # ------------------------------------------------------------------

    def _demand_sweep(self, lines, store_dirty: bool):
        """Apply a demand/fill sweep of distinct ``lines`` (input order).

        Semantics per line: LRU refresh (plus ``dirty |= store_dirty``)
        on hit; insert with ``dirty = store_dirty`` on miss, evicting the
        set's LRU victim when full — i.e. exactly an ``access``/``fill``
        walk in input order, minus the stats (callers account those).

        Returns ``(hits, evictions, dirty_evictions, chunks)`` where each
        chunk is ``(pos, line, victim, victim_dirty)`` arrays describing
        the misses (victim ``-1`` == no eviction); ``pos`` is the line's
        input position, so sorting the concatenated chunks by ``pos``
        reproduces per-line occurrence order. ``self._resident`` is left
        untouched (callers adjust by ``misses - evictions``); ``_occ`` is
        maintained here.
        """
        ns = self.num_sets
        assoc = self.assoc
        tags = self._tags
        n = int(lines.size)
        base = self._tick
        self._tick += n
        sidx = lines % ns
        eq = tags[sidx] == lines[:, None]
        present = eq.any(axis=1)
        way = eq.argmax(axis=1)
        pos = _np.arange(n, dtype=_np.int64)

        # Group lines by set, preserving input order within each group.
        order = _np.argsort(sidx, kind="stable")
        gsets = sidx[order]
        uniq, gstart = _np.unique(gsets, return_index=True)
        kk = _np.diff(_np.append(gstart, n))
        hit_per = _np.bincount(sidx[present], minlength=ns)[uniq]
        free_per = assoc - self._occ[uniq]

        allhit_g = hit_per == kk
        cold_g = (hit_per == 0) & (kk <= free_per)
        spill_g = (hit_per == 0) & (kk > free_per)
        mixed_g = ~(allhit_g | cold_g | spill_g)

        # Set creation follows the per-line walk: rank every newly
        # touched set by the input position of its first line.
        uncreated = self._created[uniq] < 0
        if uncreated.any():
            first_pos = order[gstart[uncreated]]
            new_sets = uniq[uncreated][_np.argsort(first_pos)]
            self._created[new_sets] = (self._next_rank
                                       + _np.arange(new_sets.size))
            self._next_rank += int(new_sets.size)

        g_of_line = _np.searchsorted(uniq, sidx)
        seq_in_set = _np.empty(n, dtype=_np.int64)
        seq_in_set[order] = pos - _np.repeat(gstart, kk)

        hits = 0
        evictions = 0
        dirty_evictions = 0
        chunks: List[tuple] = []

        m = allhit_g[g_of_line]
        if m.any():
            r, w = sidx[m], way[m]
            self._stamp[r, w] = base + pos[m]
            if store_dirty:
                self._dirty[r, w] = True
            hits += int(m.sum())

        m = cold_g[g_of_line]
        if m.any():
            cold_sets = uniq[cold_g]
            # Free ways first (stable on way order); the j-th line of a
            # set lands in its j-th free way.
            freepos = _np.argsort(tags[cold_sets] != -1, axis=1,
                                  kind="stable")
            crow = _np.searchsorted(cold_sets, sidx[m])
            cw = freepos[crow, seq_in_set[m]]
            r = sidx[m]
            cl = lines[m]
            self._tags[r, cw] = cl
            self._dirty[r, cw] = store_dirty
            self._stamp[r, cw] = base + pos[m]
            self._occ[cold_sets] += kk[cold_g]
            chunks.append((pos[m], cl,
                           _np.full(cl.size, -1, dtype=_np.int64),
                           _np.zeros(cl.size, dtype=bool)))

        if spill_g.any():
            sp = self._sweep_spill_sets(lines, pos, order, gstart, kk, uniq,
                                        spill_g, store_dirty, base)
            ev, dev, chunk = sp
            evictions += ev
            dirty_evictions += dev
            chunks.append(chunk)

        if mixed_g.any():
            h, ev, dev, chunk = self._sweep_mixed_sets(
                lines, pos, order, gstart, kk, uniq, mixed_g, store_dirty,
                base)
            hits += h
            evictions += ev
            dirty_evictions += dev
            chunks.append(chunk)

        return hits, evictions, dirty_evictions, chunks

    def _sweep_spill_sets(self, lines, pos, order, gstart, kk, uniq,
                          spill_g, store_dirty: bool, base: int):
        """Vectorized spill handling across all spill-classified sets.

        In a spill set no line is resident and the fill overflows the
        free ways, so the victim sequence is closed-form: the first
        ``free`` inserts fill empty ways, the next displace the initial
        residents in LRU order, and once the set is run-only each insert
        displaces the set's own line ``assoc`` insertions back. Slots are
        therefore reused cyclically through ``seq`` = (free ways, then
        residents in LRU order), and only the last ``min(k, assoc)``
        inserts survive into the final state.
        """
        A = self.assoc
        sets = uniq[spill_g]
        S = int(sets.size)
        k_s = kk[spill_g]
        occ_s = self._occ[sets]
        free_s = A - occ_s
        kmax = int(k_s.max())

        rows_t = self._tags[sets]
        rows_d = self._dirty[sets]
        rows_s = self._stamp[sets]
        lru = _np.argsort(rows_s, axis=1, kind="stable")
        ar = _np.arange(A)
        seq = _np.take_along_axis(lru, (ar[None, :] + occ_s[:, None]) % A,
                                  axis=1)
        pre_t = _np.take_along_axis(rows_t, seq, axis=1)
        pre_d = _np.take_along_axis(rows_d, seq, axis=1)

        # Per-set padded matrices of the inserted lines and their input
        # positions, in insertion order.
        srow_of_set = _np.full(self.num_sets, -1, dtype=_np.int64)
        srow_of_set[sets] = _np.arange(S)
        sel = _np.concatenate([
            order[gstart[i]:gstart[i] + kk[i]]
            for i in _np.nonzero(spill_g)[0]
        ])
        ln_sel = lines[sel]
        pos_sel = pos[sel]
        row_sel = srow_of_set[ln_sel % self.num_sets]
        col_sel = _np.concatenate([_np.arange(k) for k in k_s.tolist()])
        L = _np.full((S, kmax), -1, dtype=_np.int64)
        P = _np.full((S, kmax), -1, dtype=_np.int64)
        L[row_sel, col_sel] = ln_sel
        P[row_sel, col_sel] = pos_sel

        jj = _np.arange(kmax)
        kmat = k_s[:, None]
        ins_mask = jj[None, :] < kmat
        # Victims per insertion index j.
        vict = _np.full((S, kmax), -1, dtype=_np.int64)
        vdirty = _np.zeros((S, kmax), dtype=bool)
        mid = ins_mask & (jj[None, :] >= free_s[:, None]) & (jj[None, :] < A)
        if mid.any():
            jcap = _np.minimum(jj[None, :], A - 1)
            vict[mid] = _np.take_along_axis(pre_t, jcap, axis=1)[mid]
            vdirty[mid] = _np.take_along_axis(pre_d, jcap, axis=1)[mid]
        tail = ins_mask & (jj[None, :] >= A)
        if tail.any():
            shifted = _np.roll(L, A, axis=1)
            vict[tail] = shifted[tail]
            vdirty[tail] = store_dirty

        # Final state: insertion j lands in slot seq[j % A]; the last
        # min(k, assoc) insertions are the survivors.
        lastn = _np.minimum(k_s, A)
        p = _np.arange(A)
        surv = p[None, :] < lastn[:, None]
        jf = (k_s[:, None] - lastn[:, None]) + p[None, :]
        jf_c = _np.minimum(jf, kmax - 1)
        f_lines = _np.take_along_axis(L, jf_c, axis=1)
        f_pos = _np.take_along_axis(P, jf_c, axis=1)
        slot = _np.take_along_axis(seq, jf_c % A, axis=1)
        rr = _np.broadcast_to(sets[:, None], (S, A))
        self._tags[rr[surv], slot[surv]] = f_lines[surv]
        self._dirty[rr[surv], slot[surv]] = store_dirty
        self._stamp[rr[surv], slot[surv]] = base + f_pos[surv]
        self._occ[sets] = A

        ev_mask = ins_mask & (jj[None, :] >= free_s[:, None])
        evictions = int(ev_mask.sum())
        dirty_evictions = int((vdirty & ev_mask).sum())
        chunk = (P[ins_mask], L[ins_mask], vict[ins_mask],
                 vdirty[ins_mask])
        return evictions, dirty_evictions, chunk

    def _sweep_mixed_sets(self, lines, pos, order, gstart, kk, uniq,
                          mixed_g, store_dirty: bool, base: int):
        """Scalar per-line replay for mixed-residency sets: an earlier
        miss may displace a later swept line before its access, so there
        is no closed form."""
        tags = self._tags
        dirty = self._dirty
        stamp = self._stamp
        occ = self._occ
        assoc = self.assoc
        hits = 0
        evictions = 0
        dirty_evictions = 0
        c_pos: List[int] = []
        c_line: List[int] = []
        c_vict: List[int] = []
        c_vd: List[bool] = []
        for gi in _np.nonzero(mixed_g)[0].tolist():
            idx = int(uniq[gi])
            row_t = tags[idx]
            row_d = dirty[idx]
            row_s = stamp[idx]
            for j in order[gstart[gi]:gstart[gi] + kk[gi]].tolist():
                line = int(lines[j])
                eqr = row_t == line
                w = int(eqr.argmax())
                if row_t[w] == line:
                    hits += 1
                    row_s[w] = base + int(pos[j])
                    if store_dirty:
                        row_d[w] = True
                    continue
                if occ[idx] >= assoc:
                    w = int(row_s.argmin())
                    vt = int(row_t[w])
                    vd = bool(row_d[w])
                    evictions += 1
                    if vd:
                        dirty_evictions += 1
                    c_vict.append(vt)
                    c_vd.append(vd)
                else:
                    w = int((row_t == -1).argmax())
                    occ[idx] += 1
                    c_vict.append(-1)
                    c_vd.append(False)
                c_pos.append(int(pos[j]))
                c_line.append(line)
                row_t[w] = line
                row_d[w] = store_dirty
                row_s[w] = base + int(pos[j])
        chunk = (_np.asarray(c_pos, dtype=_np.int64),
                 _np.asarray(c_line, dtype=_np.int64),
                 _np.asarray(c_vict, dtype=_np.int64),
                 _np.asarray(c_vd, dtype=bool))
        return hits, evictions, dirty_evictions, chunk

    @staticmethod
    def _merge_chunks(chunks) -> Tuple:
        """Concatenate miss chunks and order them by input position."""
        ps = _np.concatenate([c[0] for c in chunks])
        ls = _np.concatenate([c[1] for c in chunks])
        vs = _np.concatenate([c[2] for c in chunks])
        ds = _np.concatenate([c[3] for c in chunks])
        o = _np.argsort(ps, kind="stable")
        return ls[o], vs[o], ds[o]

    # ------------------------------------------------------------------
    # Bulk (run) operations
    # ------------------------------------------------------------------

    def _access_run(self, start: int, count: int, do_load: bool,
                    do_store: bool) -> BulkResult:
        ns = self.num_sets
        assoc = self.assoc
        end = start + count
        store_dirty = do_store and self.policy is WritePolicy.WRITE_BACK
        if (self._resident == 0 and count >= ns
                and (count + ns - 1) // ns <= assoc):
            # Totally cold cache — whole-array fill, uniform miss by
            # construction.
            idxs = _np.arange(ns, dtype=_np.int64)
            first = start + ((idxs - start) % ns)
            k = 1 + (end - 1 - first) // ns
            ways = _np.arange(assoc, dtype=_np.int64)
            mask = ways[None, :] < k[:, None]
            self._tags[...] = _np.where(
                mask, first[:, None] + ways[None, :] * ns, -1)
            self._dirty[...] = mask if store_dirty else False
            self._stamp[...] = _np.where(
                mask, self._tick + ways[None, :], _FREE)
            self._tick += assoc
            self._occ[...] = k
            fresh = self._created < 0
            if fresh.any():
                # Rank new sets in first-touch order, as the per-line
                # walk creates them: set ``start % ns`` first.
                touched = (start + idxs) % ns
                new = touched[fresh[touched]]
                self._created[new] = self._next_rank + _np.arange(new.size)
                self._next_rank += int(new.size)
            self._resident = count
            self._run_stats(0, count, 0, 0, do_load, do_store, count)
            return BulkResult(misses=count, uniform_miss=True)
        lines = _np.arange(start, end, dtype=_np.int64)
        hits, evictions, dirty_evictions, chunks = self._demand_sweep(
            lines, store_dirty)
        misses = count - hits
        self._resident += misses - evictions
        self._run_stats(hits, misses, evictions, dirty_evictions,
                        do_load, do_store, count)
        if hits == 0 and evictions == 0:
            return BulkResult(misses=misses, uniform_miss=True)
        events: List[Tuple[int, Optional[int], bool]] = []
        if chunks:
            ls, vs, ds = self._merge_chunks(chunks)
            events = [(l, None if v < 0 else v, d) for l, v, d in
                      zip(ls.tolist(), vs.tolist(), ds.tolist())]
        return BulkResult(hits=hits, misses=misses, events=events)

    def _run_stats(self, hits: int, misses: int, evictions: int,
                   dirty_evictions: int, do_load: bool, do_store: bool,
                   count: int) -> None:
        """Fold one run's aggregate outcome into :attr:`stats`."""
        stats = self.stats
        if do_load:
            stats.read_hits += hits
            stats.read_misses += misses
        else:
            stats.write_hits += hits
            stats.write_misses += misses
        total_hits = hits
        if do_load and do_store:
            # The store after each load hits the just-filled line.
            stats.write_hits += count
            total_hits += count
        stats.hits += total_hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions

    def _fill_many(self, lines, dirty: bool) -> List[Eviction]:
        arr = _np.fromiter(lines, dtype=_np.int64)
        if arr.size == 0:
            return []
        if _np.unique(arr).size != arr.size:
            # Duplicate lines (possible via the public bulk_fill): the
            # sweep classifies on pre-state only, so replay per line.
            return [ev for line in arr.tolist()
                    for ev in (self.fill(int(line), dirty),) if ev]
        hits, evictions, dirty_evictions, chunks = self._demand_sweep(
            arr, dirty)
        self._resident += (arr.size - hits) - evictions
        self.stats.evictions += evictions
        self.stats.dirty_evictions += dirty_evictions
        out: List[Eviction] = []
        if evictions and chunks:
            _, vs, ds = self._merge_chunks(chunks)
            out = [Eviction(int(v), bool(d))
                   for v, d in zip(vs.tolist(), ds.tolist()) if v >= 0]
        return out

    def _serve_miss_seq(self, events) -> Tuple[List[int], List[int],
                                               List[int], int]:
        if not events:
            return [], [], [], 0
        if any(e[2] for e in events):
            # Dirty L2 victims interleave fills with the accesses — the
            # rare general case; replay exactly, per event.
            return self._serve_events_scalar(events)
        arr = _np.array([e[0] for e in events], dtype=_np.int64)
        if arr.size > 1 and not bool((arr[1:] > arr[:-1]).all()):
            return self._serve_events_scalar(events)
        hits, evictions, dirty_evictions, chunks = self._demand_sweep(
            arr, False)
        n_miss = int(arr.size) - hits
        self._resident += n_miss - evictions
        stats = self.stats
        stats.hits += hits
        stats.read_hits += hits
        stats.misses += n_miss
        stats.read_misses += n_miss
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        missed: List[int] = []
        access_devs: List[int] = []
        if chunks:
            ls, vs, ds = self._merge_chunks(chunks)
            missed = ls.tolist()
            if dirty_evictions:
                access_devs = vs[ds].tolist()
        return missed, access_devs, [], 0

    def _serve_events_scalar(self, events) -> Tuple[List[int], List[int],
                                                    List[int], int]:
        """Exact per-event replay of a miss/victim stream (per-line
        semantics: read access, then a dirty fill of any dirty victim)."""
        ns = self.num_sets
        assoc = self.assoc
        tags = self._tags
        dirty = self._dirty
        stamp = self._stamp
        occ = self._occ
        hits = 0
        evictions = 0
        dirty_evictions = 0
        writebacks = 0
        missed: List[int] = []
        access_devs: List[int] = []
        fill_devs: List[int] = []
        for line, victim, victim_dirty in events:
            idx = line % ns
            self._ensure_created(idx)
            w = self._way_of(idx, line)
            if w >= 0:
                hits += 1
            else:
                missed.append(line)
                if occ[idx] >= assoc:
                    w = int(stamp[idx].argmin())
                    if dirty[idx, w]:
                        dirty_evictions += 1
                        access_devs.append(int(tags[idx, w]))
                    evictions += 1
                else:
                    w = int((tags[idx] == -1).argmax())
                    occ[idx] += 1
                    self._resident += 1
                tags[idx, w] = line
                dirty[idx, w] = False
            stamp[idx, w] = self._tick
            self._tick += 1
            if victim_dirty:
                writebacks += 1
                vidx = victim % ns
                self._ensure_created(vidx)
                vw = self._way_of(vidx, victim)
                if vw < 0:
                    if occ[vidx] >= assoc:
                        vw = int(stamp[vidx].argmin())
                        if dirty[vidx, vw]:
                            dirty_evictions += 1
                            fill_devs.append(int(tags[vidx, vw]))
                        evictions += 1
                    else:
                        vw = int((tags[vidx] == -1).argmax())
                        occ[vidx] += 1
                        self._resident += 1
                    tags[vidx, vw] = victim
                dirty[vidx, vw] = True
                stamp[vidx, vw] = self._tick
                self._tick += 1
        stats = self.stats
        n_miss = len(missed)
        stats.hits += hits
        stats.read_hits += hits
        stats.misses += n_miss
        stats.read_misses += n_miss
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        return missed, access_devs, fill_devs, writebacks

    def _flush_run(self, start: int, count: int) -> List[int]:
        end = start + count
        if count < self.num_sets:
            # Narrow range: probe only the touched sets.
            lines = _np.arange(start, end, dtype=_np.int64)
            rows = lines % self.num_sets
            eq = self._tags[rows] == lines[:, None]
            hit = eq.any(axis=1)
            if not hit.any():
                return []
            way = eq.argmax(axis=1)
            r, w = rows[hit], way[hit]
            d = self._dirty[r, w]
            r, w = r[d], w[d]
            flushed = _np.sort(self._tags[r, w]).tolist()
            self._dirty[r, w] = False
        else:
            m = (self._tags >= start) & (self._tags < end) & self._dirty
            if not m.any():
                return []
            r, w = _np.nonzero(m)
            flushed = _np.sort(self._tags[r, w]).tolist()
            self._dirty[r, w] = False
        self.stats.lines_flushed += len(flushed)
        return flushed

    def _invalidate_run(self, start: int, count: int
                        ) -> Tuple[int, List[int]]:
        end = start + count
        m = (self._tags >= start) & (self._tags < end)
        if not m.any():
            return 0, []
        r, w = _np.nonzero(m)
        dropped = int(r.size)
        d = self._dirty[r, w]
        dirty_lines = _np.sort(self._tags[r, w][d]).tolist()
        self._tags[r, w] = -1
        self._dirty[r, w] = False
        self._stamp[r, w] = _FREE
        _np.subtract.at(self._occ, r, 1)
        self._resident -= dropped
        self.stats.lines_invalidated += dropped
        return dropped, dirty_lines

    # ------------------------------------------------------------------
    # Synchronization operations
    # ------------------------------------------------------------------

    def _walk_order(self, r, w):
        """Order selected ways the way the dict core walks them: set
        creation order first, then within-set LRU order."""
        return _np.lexsort((self._stamp[r, w], self._created[r]))

    def flush_dirty(self) -> List[int]:
        r, w = _np.nonzero(self._dirty)
        flushed: List[int] = []
        if r.size:
            o = self._walk_order(r, w)
            flushed = self._tags[r, w][o].tolist()
            self._dirty[r, w] = False
        self.stats.flush_ops += 1
        self.stats.lines_flushed += len(flushed)
        return flushed

    def invalidate_all(self) -> Tuple[int, List[int]]:
        r, w = _np.nonzero(self._dirty)
        dirty_lines: List[int] = []
        if r.size:
            o = self._walk_order(r, w)
            dirty_lines = self._tags[r, w][o].tolist()
        dropped = self._resident
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._stamp.fill(_FREE)
        self._occ.fill(0)
        self._resident = 0
        self.stats.invalidate_ops += 1
        self.stats.lines_invalidated += dropped
        return dropped, dirty_lines

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dirty_lines(self) -> int:
        return int(self._dirty.sum())

    def is_dirty(self, line: int) -> bool:
        idx = line % self.num_sets
        w = self._way_of(idx, line)
        return w >= 0 and bool(self._dirty[idx, w])

    def iter_lines(self):
        r, w = _np.nonzero(self._tags >= 0)
        if r.size:
            o = self._walk_order(r, w)
            yield from zip(self._tags[r, w][o].tolist(),
                           self._dirty[r, w][o].tolist())

    # ------------------------------------------------------------------
    # Memoization support
    # ------------------------------------------------------------------

    def memo_state(self) -> tuple:
        """Dict-core-shaped canonical behavioral state (for tests and
        debugging; :meth:`memo_digest` hashes the arrays directly)."""
        created = _np.nonzero(self._created >= 0)[0]
        created = created[_np.argsort(self._created[created])]
        out = []
        for idx in created.tolist():
            o = _np.argsort(self._stamp[idx], kind="stable")
            o = o[: int(self._occ[idx])]
            out.append((idx, tuple(zip(self._tags[idx][o].tolist(),
                                       self._dirty[idx][o].tolist()))))
        return tuple(out), self._resident

    def memo_digest(self) -> bytes:
        """Digest of the behavioral state, straight off the arrays.

        Stamps are normalized to per-set LRU *order* and creation ranks
        to a dense sequence before hashing, so states that behave the
        same hash the same regardless of absolute counter values. The
        digests are never compared across cache cores — each trace path
        keys its own memo store contexts.
        """
        o = _np.argsort(self._stamp, axis=1, kind="stable")
        t = _np.take_along_axis(self._tags, o, axis=1)
        d = _np.take_along_axis(self._dirty, o, axis=1)
        created = self._created
        active = created >= 0
        norm = _np.full(created.size, -1, dtype=_np.int64)
        if active.any():
            ranks = _np.empty(int(active.sum()), dtype=_np.int64)
            ranks[_np.argsort(created[active])] = _np.arange(ranks.size)
            norm[active] = ranks
        h = hashlib.blake2b(digest_size=16)
        h.update(norm.tobytes())
        h.update(t.tobytes())
        h.update(d.tobytes())
        return h.digest()

    def memo_snapshot(self) -> tuple:
        """Array copies — a handful of C-level memcpys, which is what
        makes memo snapshot/restore cheap enough to never lose to the
        run path (the dict core's per-set ``OrderedDict.copy`` walk was
        the bfs/sssp memo regression)."""
        return (self._tags.copy(), self._dirty.copy(), self._stamp.copy(),
                self._occ.copy(), self._created.copy(), self._tick,
                self._next_rank, self._resident)

    def memo_restore(self, snapshot: tuple) -> None:
        tags, dirty, stamp, occ, created, tick, next_rank, resident = snapshot
        _np.copyto(self._tags, tags)
        _np.copyto(self._dirty, dirty)
        _np.copyto(self._stamp, stamp)
        _np.copyto(self._occ, occ)
        _np.copyto(self._created, created)
        self._tick = tick
        self._next_rank = next_rank
        self._resident = resident

    def __repr__(self) -> str:
        return (f"NumpyCacheCore({self.name}, {self.capacity_lines} lines, "
                f"{self.assoc}-way, {self.policy.value})")
