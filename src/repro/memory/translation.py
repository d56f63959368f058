"""Virtual-to-physical address translation for range operations.

Sec. VI, *Fine-grained Hardware Range Based Flush*: CPElide's software
hints carry virtual addresses but GPU L2 caches are physically addressed,
so targeted range flushes need translation support. Since GPU vendors use
page-aligned array allocations, a range flush can be broken into
page-wise requests, each translated into its physical page and then
walked at the L2.

The simulator's caches are indexed by the virtual line id (a flat UVM
space with an identity mapping), so this module's job is the
*mechanism*: chunking ranges into page requests, one translated span
per page. It charges no cost: the timing model adds nothing for the
page walks, so the ``cpelide-range`` extension runs without translation
cost, and its measured gain is an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.memory.address import LINE_SIZE, PAGE_SIZE


@dataclass(frozen=True)
class PageSpan:
    """One translated, physically-contiguous page's line range."""

    virtual_page: int
    physical_page: int
    first_line: int
    last_line: int  # exclusive

    def lines(self) -> Iterator[int]:
        """Line ids covered by the page span."""
        return iter(range(self.first_line, self.last_line))


@dataclass
class AddressTranslator:
    """Page-table walker for range-based flush/invalidate requests.

    Attributes:
        page_size: Translation granularity (4 KB, page-aligned arrays).
    """

    page_size: int = PAGE_SIZE

    def translate_range(self, start: int, end: int) -> List[PageSpan]:
        """Break byte range ``[start, end)`` into translated page spans."""
        if end <= start:
            return []
        spans: List[PageSpan] = []
        first_page = start // self.page_size
        last_page = (end - 1) // self.page_size
        for page in range(first_page, last_page + 1):
            page_start = max(start, page * self.page_size)
            page_end = min(end, (page + 1) * self.page_size)
            spans.append(PageSpan(
                virtual_page=page,
                physical_page=page,  # flat UVM identity mapping
                first_line=page_start // LINE_SIZE,
                last_line=(page_end + LINE_SIZE - 1) // LINE_SIZE,
            ))
        return spans

    def translate_ranges(self, ranges: Sequence[Tuple[int, int]]
                         ) -> List[PageSpan]:
        """Translate several byte ranges."""
        spans: List[PageSpan] = []
        for start, end in ranges:
            spans.extend(self.translate_range(start, end))
        return spans
