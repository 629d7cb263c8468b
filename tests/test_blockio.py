import pytest
from hypothesis import given
from hypothesis import strategies as st

from era_st.blockio import (
    PHASE_HORIZONTAL,
    PHASE_VERTICAL,
    BlockReader,
    IoStats,
    blocks_spanned,
    charge_write,
    stats_csv,
    total_counters,
)
from era_st.errors import RangeError
from era_st.text import from_str, generate_random_text


def reader_for(text, block_size, phase=PHASE_VERTICAL, worker=0):
    return BlockReader(text, block_size, IoStats(phase, worker))


class TestScan:
    @pytest.mark.parametrize("n,b,expected", [(7, 4, 2), (12, 12, 1)])
    def test_blocks_charged_per_scan(self, n, b, expected):
        text = generate_random_text(n, 2, 0)
        r = reader_for(text, b)
        r.charge_full_scan()
        assert r.stats.full_scans == 1
        assert r.stats.blocks_read == expected

    def test_unit_blocks_charge_one_per_symbol(self):
        text = generate_random_text(1024, 4, 1)
        r = reader_for(text, 1)
        r.charge_full_scan()
        assert r.stats.blocks_read == 1024

    def test_repeated_scans_accumulate(self):
        text = generate_random_text(10, 2, 0)
        r = reader_for(text, 4)
        r.charge_full_scan()
        r.charge_full_scan()
        assert r.stats.full_scans == 2
        assert r.stats.blocks_read == 2 * blocks_spanned(10, 4)


class TestReadRange:
    def test_substring(self):
        r = reader_for(from_str("banana$"), 4)
        assert r.read_range(2, 3) == b"\x01\x03\x01"  # "ana"

    def test_truncated_at_text_end(self):
        r = reader_for(from_str("banana$"), 4)
        assert r.read_range(6, 5) == b"\x01\x00"  # "a$"

    @pytest.mark.parametrize("start", [0, -1, 8])
    def test_out_of_bounds_start(self, start):
        r = reader_for(from_str("banana$"), 4)
        with pytest.raises(RangeError):
            r.read_range(start, 2)

    def test_nonpositive_length(self):
        r = reader_for(from_str("banana$"), 4)
        with pytest.raises(RangeError):
            r.read_range(1, 0)

    def test_blocks_touched_and_resident_block(self):
        text = generate_random_text(20, 2, 0)
        r = reader_for(text, 4)
        r.read_range(1, 8)  # blocks 0,1
        assert (r.stats.blocks_read, r.stats.range_reads) == (2, 1)
        r.read_range(6, 2)  # block 1 resident -> free
        assert (r.stats.blocks_read, r.stats.range_reads) == (2, 2)
        r.read_range(9, 1)  # block 2
        assert r.stats.blocks_read == 3

    @pytest.mark.parametrize("starts", [[0, 3], [3, 21], [-1]])
    def test_batch_start_out_of_bounds(self, starts):
        r = reader_for(generate_random_text(20, 2, 0), 4)
        with pytest.raises(RangeError):
            r.charge_ranges(starts, 2)
        assert (r.stats.blocks_read, r.stats.range_reads) == (0, 0)

    def test_batch_length_below_one_rejected(self):
        r = reader_for(generate_random_text(20, 2, 0), 4)
        with pytest.raises(RangeError):
            r.charge_ranges([1, 5], [3, 0])
        assert (r.stats.blocks_read, r.stats.range_reads) == (0, 0)

    def test_batch_lengths_per_read(self):
        # reads 1..6 (blocks 0-1), 5..5 (block 1, resident), 9..20 (blocks 2-4)
        r = reader_for(generate_random_text(20, 2, 0), 4)
        r.charge_ranges([1, 5, 9], [6, 1, 40])
        assert (r.stats.blocks_read, r.stats.range_reads) == (5, 3)

    def test_scan_invariant_lower_bound(self):
        text = generate_random_text(50, 2, 0)
        r = reader_for(text, 8)
        r.read_range(3, 10)
        r.charge_full_scan()
        r.read_range(1, 2)
        assert r.stats.full_scans == 1
        assert r.stats.blocks_read >= r.stats.full_scans * blocks_spanned(50, 8)


class TraceOracle:
    """Independent per-symbol replay of the one-resident-block model."""

    def __init__(self, n, block):
        self.n = n
        self.block = block
        self.resident = None
        self.misses = 0

    def access(self, pos):
        b = (pos - 1) // self.block
        if b != self.resident:
            self.misses += 1
            self.resident = b

    def scan(self):
        self.resident = None
        for pos in range(1, self.n + 1):
            self.access(pos)

    def read(self, start, length):
        end = min(self.n, start + length - 1)
        for pos in range(start, end + 1):
            self.access(pos)


@given(
    n=st.integers(1, 120),
    block=st.integers(1, 16),
    ops=st.lists(
        st.one_of(
            st.none(),
            st.tuples(st.integers(1, 120), st.integers(1, 40)),
            # a batch: charge_ranges over ascending starts
            st.tuples(st.lists(st.integers(1, 120), max_size=12).map(sorted), st.integers(1, 40)),
            # a batch with one length per read, starts in any order
            st.lists(st.tuples(st.integers(1, 120), st.integers(1, 40)), max_size=12),
        ),
        max_size=30,
    ),
)
def test_counter_exactness_against_replay(n, block, ops):
    text = generate_random_text(n, 2, 0)
    r = reader_for(text, block)
    oracle = TraceOracle(n, block)
    reads = 0
    for op in ops:
        if op is None:
            r.charge_full_scan()
            oracle.scan()
        elif isinstance(op, list):
            batch = [(start, length) for start, length in op if start <= n]
            r.charge_ranges([start for start, _ in batch], [length for _, length in batch])
            for start, length in batch:
                oracle.read(start, length)
            reads += len(batch)
        elif isinstance(op[0], list):
            starts = [s for s in op[0] if s <= n]
            r.charge_ranges(starts, op[1])
            for start in starts:
                oracle.read(start, op[1])
            reads += len(starts)
        else:
            start, length = op
            if start > n:
                continue
            r.read_range(start, length)
            oracle.read(start, length)
            reads += 1
    assert r.stats.blocks_read == oracle.misses
    assert r.stats.range_reads == reads


class TestStatsPlumbing:
    def test_aggregation_equals_sum(self):
        parts = [
            IoStats(PHASE_HORIZONTAL, 0, blocks_read=3, full_scans=1),
            IoStats(PHASE_HORIZONTAL, 1, blocks_read=5, range_reads=7),
        ]
        totals = total_counters(parts)
        assert totals["blocks_read"] == 8
        assert totals["full_scans"] == 1
        assert totals["range_reads"] == 7

    def test_write_charges_ceiling(self):
        s = IoStats(PHASE_VERTICAL, 0)
        charge_write(s, 9, 4)
        charge_write(s, 1, 4)
        assert s.blocks_written == 3 + 1

    def test_phase_tag_validated(self):
        with pytest.raises(ValueError):
            IoStats("sideways", 0)

    def test_csv_shape(self):
        rows = stats_csv([IoStats(PHASE_VERTICAL, 0, blocks_read=2, full_scans=1)])
        lines = rows.strip().splitlines()
        assert lines[0] == "phase,worker,blocks_read,blocks_written,full_scans,range_reads"
        assert lines[1] == "vertical,0,2,0,1,0"
