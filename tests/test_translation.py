"""Unit tests for the address-translation layer (Sec. VI range flush)."""

from repro.memory.address import LINE_SIZE, PAGE_SIZE
from repro.memory.translation import AddressTranslator


class TestTranslateRange:
    def test_single_page(self):
        tr = AddressTranslator()
        spans = tr.translate_range(0, 100)
        assert len(spans) == 1
        assert spans[0].virtual_page == 0
        assert spans[0].first_line == 0
        assert spans[0].last_line == 2  # 100 bytes -> 2 lines

    def test_page_straddling_range(self):
        tr = AddressTranslator()
        spans = tr.translate_range(PAGE_SIZE - 64, PAGE_SIZE + 64)
        assert len(spans) == 2
        assert spans[0].virtual_page == 0
        assert spans[1].virtual_page == 1
        # Each span covers exactly one line.
        assert spans[0].last_line - spans[0].first_line == 1
        assert spans[1].last_line - spans[1].first_line == 1

    def test_spans_cover_exactly_the_lines(self):
        tr = AddressTranslator()
        start, end = 3 * PAGE_SIZE + 128, 5 * PAGE_SIZE - 64
        lines = [l for span in tr.translate_range(start, end)
                 for l in span.lines()]
        expected = list(range(start // LINE_SIZE, end // LINE_SIZE))
        assert lines == expected

    def test_empty_range(self):
        tr = AddressTranslator()
        assert tr.translate_range(100, 100) == []

    def test_multiple_ranges(self):
        tr = AddressTranslator()
        spans = tr.translate_ranges([(0, 64), (PAGE_SIZE, PAGE_SIZE + 64)])
        assert len(spans) == 2
        assert [span.virtual_page for span in spans] == [0, 1]


class TestDeviceIntegration:
    def test_range_flush_writes_back_the_page(self):
        from repro.gpu.config import GPUConfig
        from repro.gpu.device import Device
        device = Device(GPUConfig(num_chiplets=2, scale=1 / 64))
        device.l2s[0].access(0, True)
        device.l2s[0].access(PAGE_SIZE // LINE_SIZE, True)
        assert device.flush_l2_ranges(0, [(0, PAGE_SIZE)]) == 1
        assert not device.l2s[0].is_dirty(0)
        assert device.l2s[0].is_dirty(PAGE_SIZE // LINE_SIZE)
