"""Virtual address space, page-aligned buffers, and first-touch placement.

The paper models a unified shared virtual address space (Sec. IV-A) with
page-aligned allocations (Sec. IV-D, to avoid unintentional false sharing)
and a first-touch page placement policy (Sec. IV-C1): the first chiplet to
touch a page becomes that page's *home node*, i.e. the chiplet whose L2/L3
bank and HBM stack back the page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Cache line size in bytes (Table I: 64B lines at every level).
LINE_SIZE = 64

#: Page size in bytes. GPU vendors use page-aligned array allocations
#: (Sec. VI, "Fine-grained Hardware Range Based Flush").
PAGE_SIZE = 4096

#: Lines per page (used to map a line to its page's home chiplet).
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE


def line_of(addr: int) -> int:
    """Return the line-aligned address containing byte address ``addr``."""
    return addr & ~(LINE_SIZE - 1)


def line_index(addr: int) -> int:
    """Return the global line index of byte address ``addr``."""
    return addr // LINE_SIZE


def page_of(addr: int) -> int:
    """Return the page index containing byte address ``addr``."""
    return addr // PAGE_SIZE


def lines_in_range(start: int, end: int) -> Iterator[int]:
    """Yield line indices covering the byte range ``[start, end)``."""
    if end <= start:
        return
    first = start // LINE_SIZE
    last = (end - 1) // LINE_SIZE
    for idx in range(first, last + 1):
        yield idx


@dataclass(frozen=True)
class Buffer:
    """A page-aligned global-memory allocation (a *data structure*).

    CPElide tracks coherence at this granularity: each row of the Chiplet
    Coherence Table corresponds to one buffer (Sec. III-A).

    Attributes:
        name: Human-readable identifier (e.g. ``"A"`` or ``"weights"``).
        base: Byte base address; always page-aligned.
        size: Size in bytes; rounded up to a whole number of pages.
        buffer_id: Dense id assigned by the :class:`AddressSpace`.
    """

    name: str
    base: int
    size: int
    buffer_id: int

    @property
    def end(self) -> int:
        """One past the last byte of the allocation."""
        return self.base + self.size

    @property
    def num_lines(self) -> int:
        """Number of cache lines the buffer spans."""
        return (self.size + LINE_SIZE - 1) // LINE_SIZE

    @property
    def first_line(self) -> int:
        """Global index of the buffer's first cache line."""
        return self.base // LINE_SIZE

    def line_range(self) -> Tuple[int, int]:
        """Return ``(first_line, last_line_exclusive)`` global line indices."""
        return self.first_line, self.first_line + self.num_lines

    def slice_lines(self, part: int, num_parts: int) -> Tuple[int, int]:
        """Contiguously partition the buffer's lines into ``num_parts``.

        Returns the ``(first, last_exclusive)`` global line indices of
        partition ``part``. This mirrors static kernel-wide WG partitioning
        (Sec. IV-C1) where chiplet *i* works on the *i*-th contiguous slice.
        """
        if not 0 <= part < num_parts:
            raise ValueError(f"part {part} out of range for {num_parts} parts")
        n = self.num_lines
        lo = self.first_line + (n * part) // num_parts
        hi = self.first_line + (n * (part + 1)) // num_parts
        return lo, hi

    def byte_range_of_slice(self, part: int, num_parts: int) -> Tuple[int, int]:
        """Byte-address range of partition ``part`` (for range annotations)."""
        lo, hi = self.slice_lines(part, num_parts)
        return lo * LINE_SIZE, hi * LINE_SIZE

    def contains_line(self, line: int) -> bool:
        """Whether global line index ``line`` falls inside this buffer."""
        first, last = self.line_range()
        return first <= line < last


class AddressSpace:
    """Page-aligned bump allocator for the unified virtual address space.

    All workload buffers are allocated through this class so that they are
    page-aligned (avoiding unintentional false sharing, Sec. IV-D) and so
    that buffer ids are dense and stable.
    """

    #: Allocations start above the null page.
    _BASE = PAGE_SIZE

    def __init__(self) -> None:
        self._next = self._BASE
        self._buffers: List[Buffer] = []

    def alloc(self, name: str, size: int) -> Buffer:
        """Allocate ``size`` bytes (rounded up to whole pages)."""
        if size <= 0:
            raise ValueError(f"buffer {name!r} must have positive size, got {size}")
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        buf = Buffer(name=name, base=self._next, size=pages * PAGE_SIZE,
                     buffer_id=len(self._buffers))
        self._next += pages * PAGE_SIZE
        self._buffers.append(buf)
        return buf

    @property
    def buffers(self) -> List[Buffer]:
        """All allocations, in allocation order."""
        return list(self._buffers)

    def buffer_of_line(self, line: int) -> Optional[Buffer]:
        """Return the buffer containing global line index ``line``, if any."""
        addr = line * LINE_SIZE
        # Buffers are allocated in increasing address order; binary search.
        lo, hi = 0, len(self._buffers)
        while lo < hi:
            mid = (lo + hi) // 2
            buf = self._buffers[mid]
            if addr < buf.base:
                hi = mid
            elif addr >= buf.end:
                lo = mid + 1
            else:
                return buf
        return None

    def footprint_bytes(self) -> int:
        """Total bytes allocated so far."""
        return self._next - self._BASE


@dataclass
class HomeMap:
    """First-touch page placement policy (Sec. IV-C1).

    Maps each page to its home chiplet: the first chiplet to touch a page
    becomes its home. The home chiplet's L3 bank and HBM stack back the
    page, and in the Baseline/CPElide protocols the home chiplet's L2 is
    where remote requests are forwarded.

    ``lines_per_page`` is configurable so that placement granularity can
    scale with the simulator's cache-scale knob: at paper scale a 4 KB
    page is tiny next to multi-MB arrays, and a scaled-down run must keep
    that ratio or false page sharing at slice boundaries dominates.
    """

    num_chiplets: int
    lines_per_page: int = LINES_PER_PAGE
    _homes: Dict[int, int] = field(default_factory=dict)
    _segments_cache: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = (
        field(default_factory=dict))
    # Memoization support: a running 128-bit hash over the assignment
    # stream (placements are permanent, so an order-sensitive rolling
    # hash is a digest of the whole map) and an optional journal of the
    # assignments made during one kernel, replayable as a delta.
    _memo_hash: Optional[object] = field(default=None, repr=False,
                                         compare=False)
    _journal: Optional[List[Tuple[int, int]]] = field(default=None,
                                                      repr=False,
                                                      compare=False)

    def __post_init__(self) -> None:
        if self.lines_per_page <= 0:
            raise ValueError(
                f"lines_per_page must be positive, got {self.lines_per_page}")

    def home_of_line(self, line: int, toucher: int) -> int:
        """Return the home chiplet of ``line``, assigning it on first touch."""
        page = line // self.lines_per_page
        home = self._homes.get(page)
        if home is None:
            if not 0 <= toucher < self.num_chiplets:
                raise ValueError(f"chiplet {toucher} out of range")
            self._homes[page] = toucher
            if self._memo_hash is not None:
                self._memo_note(page, toucher)
            return toucher
        return home

    def peek_home_of_line(self, line: int) -> Optional[int]:
        """Return the home chiplet of ``line`` without assigning one."""
        return self._homes.get(line // self.lines_per_page)

    def home_segments(self, start: int, end: int,
                      toucher: int) -> List[Tuple[int, int, int]]:
        """Split ``[start, end)`` into maximal same-home segments.

        Returns ``(seg_start, seg_end, home)`` pieces in ascending order,
        assigning unplaced pages to ``toucher`` — exactly the homes an
        ascending per-line :meth:`home_of_line` walk would produce, with
        one dictionary probe per page instead of one per line.

        Page homes are permanent once assigned, so a range whose pages
        were all already placed has a permanent answer; those are
        memoized, making the common repeat query (kernels re-touch the
        same slices every iteration) a single dictionary probe.
        """
        if start >= end:
            return []
        if not 0 <= toucher < self.num_chiplets:
            raise ValueError(f"chiplet {toucher} out of range")
        cached = self._segments_cache.get((start, end))
        if cached is not None:
            return cached
        lpp = self.lines_per_page
        homes = self._homes
        first_page = start // lpp
        last_page = (end - 1) // lpp
        segs: List[Tuple[int, int, int]] = []
        assigned = False
        seg_start = start
        cur = homes.get(first_page)
        if cur is None:
            homes[first_page] = cur = toucher
            if self._memo_hash is not None:
                self._memo_note(first_page, toucher)
            assigned = True
        for page in range(first_page + 1, last_page + 1):
            home = homes.get(page)
            if home is None:
                homes[page] = home = toucher
                if self._memo_hash is not None:
                    self._memo_note(page, toucher)
                assigned = True
            if home != cur:
                boundary = page * lpp
                segs.append((seg_start, boundary, cur))
                seg_start = boundary
                cur = home
        segs.append((seg_start, end, cur))
        if not assigned:
            self._segments_cache[(start, end)] = segs
        return segs

    # ------------------------------------------------------------------
    # Memoization support (incremental digest + assignment journal)
    # ------------------------------------------------------------------
    #
    # Placements are permanent, so the map's whole history is the stream
    # of `(page, home)` assignments: a rolling hash over that stream is a
    # digest of the current state, updated in O(1) per first touch, and a
    # journal of one kernel's assignments is a complete, replayable
    # delta. `_segments_cache` is excluded: it only memoizes permanent
    # fully-placed answers, so stale entries are still correct.

    def _memo_note(self, page: int, home: int) -> None:
        """Fold one assignment into the rolling hash (and journal)."""
        self._memo_hash.update(b"%d:%d;" % (page, home))
        if self._journal is not None:
            self._journal.append((page, home))

    def memo_enable(self) -> None:
        """Start maintaining the rolling digest (idempotent).

        Seeds the hash with the assignments made so far so that enabling
        late is equivalent to having tracked from the start.
        """
        if self._memo_hash is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            for page, home in self._homes.items():
                h.update(b"%d:%d;" % (page, home))
            self._memo_hash = h

    def memo_digest(self) -> bytes:
        """The current 128-bit digest (requires :meth:`memo_enable`)."""
        return self._memo_hash.copy().digest()

    def memo_begin_journal(self) -> None:
        """Start recording assignments into a fresh journal."""
        self._journal = []

    def memo_take_journal(self) -> Tuple[Tuple[int, int], ...]:
        """Stop recording and return the journal since the last begin."""
        journal = tuple(self._journal)
        self._journal = None
        return journal

    def memo_apply_journal(self, journal) -> None:
        """Replay a recorded assignment journal (and keep the digest in
        step), exactly reproducing the placements the recorded kernel
        made."""
        homes = self._homes
        h = self._memo_hash
        for page, home in journal:
            homes[page] = home
            h.update(b"%d:%d;" % (page, home))

    @property
    def num_placed_pages(self) -> int:
        """Number of pages that have been placed so far."""
        return len(self._homes)

    def placement_histogram(self) -> List[int]:
        """Pages homed per chiplet (diagnostic for placement skew)."""
        hist = [0] * self.num_chiplets
        for home in self._homes.values():
            hist[home] += 1
        return hist

    def page_homes(self) -> Tuple[Tuple[int, int], ...]:
        """Every ``(page, home)`` assignment, sorted by page.

        A pure read for end-of-run state comparison (the differential
        oracle fingerprints the placement with it); sorting makes the
        fingerprint independent of first-touch order.
        """
        return tuple(sorted(self._homes.items()))
