import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from era_st.blockio import PHASE_VERTICAL, BlockReader, IoStats
from era_st.errors import SkewedInputError
from era_st.text import BuildConfig, Text, from_str, generate_random_text
from era_st.vertical import (
    TRIE_MAGIC,
    TRIE_VERSION,
    PrefixEntry,
    TopTrie,
    TrieLeaf,
    VirtualTree,
    build_top_trie,
    count_frequencies,
    pack_virtual_trees,
    partition_prefixes,
    subtree_file_name,
)
from helpers import classic_first_fit_decreasing, substring_count


def cfg(m, b, **kw):
    return BuildConfig(memory_budget_m=m, block_size_b=b, **kw)


def fresh_reader(text, block=1):
    return BlockReader(text, block, IoStats(PHASE_VERTICAL, 0))


def sym(text, s):
    return bytes(text.byte_map[ord(c)] for c in s)


class TestCountFrequencies:
    def test_banana_single_symbols(self):
        t = from_str("banana$")
        got = count_frequencies(t, [sym(t, c) for c in "abn"], fresh_reader(t))
        assert got == {sym(t, "a"): 3, sym(t, "b"): 1, sym(t, "n"): 2}

    def test_banana_pair(self):
        t = from_str("banana$")
        assert count_frequencies(t, [sym(t, "an")], fresh_reader(t)) == {sym(t, "an"): 2}

    def test_absent_symbol_counts_zero(self):
        t = from_str("aaaa$", sigma=2)
        assert count_frequencies(t, [b"\x02"], fresh_reader(t)) == {b"\x02": 0}

    def test_exactly_one_scan_charged(self):
        t = generate_random_text(64, 4, 0)
        r = fresh_reader(t, block=8)
        count_frequencies(t, [b"\x01", b"\x02"], r)
        assert r.stats.full_scans == 1
        assert r.stats.blocks_read == 8

    def test_mixed_lengths_rejected(self):
        t = from_str("banana$")
        with pytest.raises(ValueError):
            count_frequencies(t, [b"\x01", b"\x01\x02"], fresh_reader(t))

    @given(
        body=st.binary(min_size=0, max_size=80),
        sigma=st.integers(2, 4),
        length=st.integers(1, 4),
        pick=st.integers(0, 200),
    )
    def test_matches_naive_counter(self, body, sigma, length, pick):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        import itertools

        pool = [bytes(c) for c in itertools.product(range(1, sigma + 1), repeat=length)]
        candidates = pool[: max(1, pick % len(pool))]
        got = count_frequencies(text, candidates, fresh_reader(text))
        assert got == {c: substring_count(text.data, c) for c in candidates}

    def test_vectorized_and_find_paths_agree(self):
        t = generate_random_text(512, 4, 3)
        import itertools

        many = [bytes(c) for c in itertools.product(range(1, 5), repeat=2)]  # 16 cands
        few = many[:3]
        got_many = count_frequencies(t, many, fresh_reader(t))
        got_few = count_frequencies(t, few, fresh_reader(t))
        for c in few:
            assert got_many[c] == got_few[c] == substring_count(t.data, c)


class TestPartition:
    def test_banana_example(self):
        t = from_str("banana$")
        part = partition_prefixes(t, cfg(2, 1))
        entries = {(e.prefix, e.frequency) for e in part.entries}
        assert entries == {(sym(t, "b"), 1), (sym(t, "n"), 2), (sym(t, "an"), 2)}
        direct = {(d.prefix, d.frequency) for d in part.direct_leaves}
        assert direct == {(b"\x00", 1), (sym(t, "a") + b"\x00", 1)}
        assert part.iterations == 2
        assert part.stats.full_scans == 2

    def test_everything_fits_at_depth_one(self):
        t = generate_random_text(4096, 4, 0)
        part = partition_prefixes(t, cfg(4096, 1))
        assert sorted(e.prefix for e in part.entries) == [b"\x01", b"\x02", b"\x03", b"\x04"]
        assert part.iterations == 1

    def test_unary_text_trips_the_guard(self):
        t = Text(b"\x01" * 999 + b"\x00", 2)
        with pytest.raises(SkewedInputError) as exc:
            partition_prefixes(t, cfg(4, 1, max_prefix_len=16))
        assert exc.value.prefix == b"\x01" * 16
        assert exc.value.phase == "vertical"
        assert exc.value.frequency == 999 - 15

    def test_zero_frequency_candidates_dropped(self):
        t = from_str("abc$", sigma=26)
        part = partition_prefixes(t, cfg(64, 1))
        assert all(e.frequency > 0 for e in part.entries)
        assert len(part.entries) == 3

    def test_scans_equal_iterations(self):
        t = generate_random_text(512, 2, 7)
        part = partition_prefixes(t, cfg(8, 1))
        assert part.stats.full_scans == part.iterations

    @settings(max_examples=60)
    @given(
        body=st.binary(min_size=0, max_size=40),
        sigma=st.integers(2, 3),
        mb=st.integers(2, 8),
    )
    def test_coverage_partition(self, body, sigma, mb):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        part = partition_prefixes(text, cfg(mb, 1))
        prefixes = [e.prefix for e in part.entries] + [d.prefix for d in part.direct_leaves]
        for start in range(1, text.n + 1):
            suffix = text.data[start - 1 :]
            owners = [p for p in prefixes if suffix.startswith(p)]
            assert len(owners) == 1, (text.data, start, owners)

    @settings(max_examples=60)
    @given(
        body=st.binary(min_size=0, max_size=40),
        sigma=st.integers(2, 3),
        mb=st.integers(2, 8),
    )
    def test_entries_respect_budget_and_prefix_freeness(self, body, sigma, mb):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        part = partition_prefixes(text, cfg(mb, 1))
        for e in part.entries:
            assert 0 < e.frequency <= mb
            assert e.frequency == substring_count(text.data, e.prefix)
        ps = [e.prefix for e in part.entries]
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a)


class TestScanCountLaw:
    @pytest.mark.parametrize("sigma,ratio", [(2, 2**6), (4, 2**6), (16, 2**6)])
    def test_iterations_track_log_sigma(self, sigma, ratio):
        import math

        n = 2**14
        t = generate_random_text(n, sigma, 13)
        part = partition_prefixes(t, cfg(ratio, 1))
        expected = math.ceil(math.log(n * 1 / ratio, sigma))
        assert abs(part.stats.full_scans - expected) <= 1


class TestPack:
    def entries(self, freqs):
        return [PrefixEntry(bytes([i + 1]), f) for i, f in enumerate(freqs)]

    def test_hand_traced_bins(self):
        bins = pack_virtual_trees(self.entries([5, 4, 3, 2, 1]), cfg(7, 1))
        assert [[e.frequency for e in b.members] for b in bins] == [[5, 2], [4, 3], [1]]

    def test_singleton(self):
        bins = pack_virtual_trees(self.entries([3]), cfg(8, 1))
        assert len(bins) == 1 and bins[0].load == 3

    def test_full_bins_never_copack(self):
        bins = pack_virtual_trees(self.entries([4, 4, 4]), cfg(4, 1))
        assert [b.load for b in bins] == [4, 4, 4]

    def test_oversized_entry_rejected(self):
        with pytest.raises(ValueError):
            pack_virtual_trees(self.entries([9]), cfg(8, 1))

    def test_deterministic_tie_break_by_prefix(self):
        entries = [PrefixEntry(b"\x03", 2), PrefixEntry(b"\x01", 2), PrefixEntry(b"\x02", 2)]
        bins = pack_virtual_trees(entries, cfg(2, 1))
        assert [b.members[0].prefix for b in bins] == [b"\x01", b"\x02", b"\x03"]

    @given(st.lists(st.integers(1, 32), max_size=40), st.integers(32, 64))
    def test_safety_and_multiset_preservation(self, freqs, capacity):
        entries = self.entries(freqs)
        bins = pack_virtual_trees(entries, cfg(capacity, 1))
        assert all(b.load <= capacity for b in bins)
        packed = sorted(e.frequency for b in bins for e in b.members)
        assert packed == sorted(freqs)
        assert all(b.load == sum(e.frequency for e in b.members) for b in bins)

    @given(st.lists(st.integers(1, 16), min_size=1, max_size=24), st.integers(16, 32))
    def test_agrees_with_classic_ffd(self, freqs, capacity):
        bins = pack_virtual_trees(self.entries(freqs), cfg(capacity, 1))
        reference = classic_first_fit_decreasing(freqs, capacity)
        got = sorted(sorted(e.frequency for e in b.members) for b in bins)
        assert got == sorted(sorted(b) for b in reference)


class TestVirtualTree:
    def test_prefix_of_another_member_rejected(self):
        with pytest.raises(ValueError):
            VirtualTree([PrefixEntry(b"\x01", 2), PrefixEntry(b"\x01\x03", 2)])

    def test_prefix_free_members_accepted(self):
        # "an" and "n" index disjoint suffix sets and may share a bin
        vt = VirtualTree([PrefixEntry(b"\x01\x03", 2), PrefixEntry(b"\x03", 2)])
        assert vt.load == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VirtualTree([])


class TestTopTrie:
    def banana_trie(self):
        t = from_str("banana$")
        entries = [
            PrefixEntry(sym(t, "b"), 1),
            PrefixEntry(sym(t, "n"), 2),
            PrefixEntry(sym(t, "an"), 2),
        ]
        return t, build_top_trie(entries, [sym(t, "a") + b"\x00"], sigma=t.sigma)

    def test_structure_matches_hand_construction(self):
        t, trie = self.banana_trie()
        root_children = [s for s, _ in trie.root.ordered_children()]
        assert root_children == [1, 2, 3]  # a, b, n
        a_node = trie.root.children[1]
        assert [s for s, _ in a_node.ordered_children()] == [0, 3]  # $, n

    def test_lookup_membership(self):
        t, trie = self.banana_trie()
        leaf = trie.lookup(sym(t, "an"))
        assert leaf is not None and leaf.file_name == subtree_file_name(sym(t, "an"))
        assert trie.lookup(b"\x01\x02") is None

    def test_lookup_single_entry(self):
        trie = build_top_trie([PrefixEntry(b"\x05", 1)], [], sigma=8)
        assert trie.lookup(b"\x05").file_name == "st_05"

    def test_duplicate_prefix_aborts(self):
        with pytest.raises(ValueError):
            build_top_trie([PrefixEntry(b"\x01", 1), PrefixEntry(b"\x01", 2)], [], sigma=2)

    def test_direct_leaf_position(self):
        leaf = TrieLeaf(b"\x01\x00", None)
        assert leaf.is_direct
        assert leaf.position(7) == 6

    def test_leaves_iterate_in_symbol_order(self):
        t, trie = self.banana_trie()
        assert [l.prefix for l in trie.iter_leaves()] == [
            sym(t, "a") + b"\x00",
            sym(t, "an"),
            sym(t, "b"),
            sym(t, "n"),
        ]


class TestTrieSerialization:
    def test_round_trip(self):
        _, trie = TestTopTrie().banana_trie()
        back = TopTrie.from_bytes(trie.to_bytes())
        assert [(l.prefix, l.file_name) for l in back.iter_leaves()] == [
            (l.prefix, l.file_name) for l in trie.iter_leaves()
        ]
        assert back.sigma == trie.sigma

    def test_exact_layout(self):
        trie = build_top_trie([PrefixEntry(b"\x02", 1)], [b"\x00"], sigma=3)
        expected = struct.pack("<4sHHQ", TRIE_MAGIC, TRIE_VERSION, 3, 2)
        expected += struct.pack("<H", 1) + b"\x00" + struct.pack("<H", 0)
        expected += struct.pack("<H", 1) + b"\x02" + struct.pack("<H", 5) + b"st_02"
        assert trie.to_bytes() == expected

    def test_truncation_detected(self):
        from era_st.errors import IndexCorruptError

        _, trie = TestTopTrie().banana_trie()
        blob = trie.to_bytes()
        with pytest.raises(IndexCorruptError):
            TopTrie.from_bytes(blob[:-3])
        with pytest.raises(IndexCorruptError):
            TopTrie.from_bytes(b"XXXX" + blob[4:])

    def test_bad_entries_rejected(self):
        from era_st.errors import IndexCorruptError

        trie = build_top_trie([PrefixEntry(b"\x02", 1)], [b"\x00"], sigma=3)
        blob = trie.to_bytes()
        entry = struct.pack("<H", 1) + b"\x02" + struct.pack("<H", 5) + b"st_02"
        duplicated = blob[:8] + struct.pack("<Q", 3) + blob[16:] + entry
        with pytest.raises(IndexCorruptError, match="duplicate"):
            TopTrie.from_bytes(duplicated)
        not_utf8 = blob.replace(b"st_02", b"st_\xff2")
        with pytest.raises(IndexCorruptError):
            TopTrie.from_bytes(not_utf8)


def find_count(data: bytes, pattern: bytes) -> int:
    count, i = 0, data.find(pattern)
    while i != -1:
        count, i = count + 1, data.find(pattern, i + 1)
    return count


@pytest.mark.parametrize("sigma", [2, 4, 16])
@pytest.mark.parametrize("how_many", range(1, 9))
def test_few_candidates_counted_like_find(sigma, how_many):
    text = generate_random_text(700, sigma, how_many)
    for length in (1, 3):
        pool = sorted({text.data[i : i + length] for i in range(0, text.n - length, 7)})
        candidates = pool[:how_many]
        if how_many > 1:
            candidates[-1] = candidates[0]  # a repeated candidate gets the same count
        got = count_frequencies(text, candidates, fresh_reader(text))
        assert got == {c: find_count(text.data, c) for c in candidates}
