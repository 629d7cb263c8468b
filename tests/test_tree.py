import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from era_st.blockio import PHASE_HORIZONTAL, PHASE_SERIALIZE, BlockReader, IoStats
from era_st.errors import CorruptArraysError, IndexCorruptError
from era_st.horizontal import SubtreeArrays, subtree_prepare
from era_st.text import BuildConfig, Text, from_str
from era_st.tree import (
    SUBTREE_MAGIC,
    SUBTREE_VERSION,
    build_subtree,
    deserialize_subtree,
    serialize_subtree,
    subtree_to_bytes,
)
from helpers import brute_arrays, child_nodes, reference_subtree, substring_positions


def sym(text, s):
    return bytes(text.byte_map[ord(c)] for c in s)


def arrays_for(text, prefix):
    sa, lcp = brute_arrays(text, prefix)
    return SubtreeArrays(prefix, sa, lcp)


def first_edge_symbols(tree, text, i):
    """First symbol of the edge into each child of node i."""
    return [text.data[tree.pos[c] + tree.depth[i] - 1] for c in child_nodes(tree.end.tolist(), i)]


def is_leaf(tree, i):
    return tree.end[i] == i + 1


class TestBuildSubtree:
    def test_banana_a_shape(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "a"))], t)
        assert tree.leaf_positions() == [6, 4, 2]
        # preorder: root at depth 1, leaf "a$", internal "ana", leaves "ana$", "anana$"
        assert tree.pos.tolist() == [6, 6, 4, 4, 2]
        assert tree.depth.tolist() == [1, 2, 3, 4, 6]
        assert tree.end.tolist() == [5, 2, 5, 4, 5]
        assert child_nodes(tree.end.tolist(), 0) == [1, 2]
        assert first_edge_symbols(tree, t, 0) == [0, sym(t, "n")[0]]
        assert child_nodes(tree.end.tolist(), 2) == [3, 4]

    def test_single_leaf_spans_to_text_end(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "b"))], t)
        assert len(tree.pos) == 1 and is_leaf(tree, 0)
        assert tree.pos[0] == 1 and tree.depth[0] == 7
        # the edge below the prefix "b" runs to the text end: "anana$"
        assert t.data[tree.pos[0] + 1 - 1 : tree.pos[0] + tree.depth[0] - 1] == sym(t, "anana") + b"\x00"

    def test_mississippi_i_shape(self):
        t = from_str("mississippi$")
        [tree] = build_subtree([arrays_for(t, sym(t, "i"))], t)
        assert tree.leaf_positions() == [11, 8, 5, 2]
        internals = [i for i in range(len(tree.pos)) if not is_leaf(tree, i)]
        # string depths of the internal nodes: the root at |pi|=1, a branch at 4 ("issi")
        assert internals == [0, 3]
        assert tree.depth[0] == 1 and tree.depth[3] == 4

    def test_root_may_have_single_child(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "an"))], t)
        assert len(child_nodes(tree.end.tolist(), 0)) == 1
        assert tree.leaf_positions() == [4, 2]

    def test_internal_degree_at_least_two_below_root(self):
        t = from_str("mississippi$")
        for c in "imps":
            [tree] = build_subtree([arrays_for(t, sym(t, c))], t)
            for i in range(1, len(tree.pos)):
                if not is_leaf(tree, i):
                    assert len(child_nodes(tree.end.tolist(), i)) >= 2

    def test_children_ordered_by_first_symbol(self):
        t = from_str("mississippi$")
        [tree] = build_subtree([arrays_for(t, sym(t, "s"))], t)
        for i in range(len(tree.pos)):
            symbols = first_edge_symbols(tree, t, i)
            assert symbols == sorted(symbols)
            assert len(set(symbols)) == len(symbols)

    def test_depth_below_prefix_rejected(self):
        t = from_str("banana$")
        bad = SubtreeArrays(sym(t, "an"), [4, 2], [(0, 3, 1)])
        with pytest.raises(CorruptArraysError):
            build_subtree([bad], t)

    def test_unordered_branch_symbols_rejected(self):
        t = from_str("banana$")
        bad = SubtreeArrays(sym(t, "a"), [6, 4, 2], [(3, 0, 1), (0, 3, 3)])
        with pytest.raises(CorruptArraysError):
            build_subtree([bad], t)

    def test_depth_beyond_suffix_rejected(self):
        t = from_str("banana$")
        bad = SubtreeArrays(sym(t, "a"), [6, 4], [(0, 3, 9)])
        with pytest.raises(CorruptArraysError):
            build_subtree([bad], t)

    def test_node_budget(self):
        t = from_str("abracadabra$")
        for c in "abcdr":
            prefix = sym(t, c)
            [tree] = build_subtree([arrays_for(t, prefix)], t)
            f = len(substring_positions(t.data, prefix))
            assert len(tree.leaf_positions()) == f
            assert len(tree.pos) <= 2 * f


class TestBuildBatch:
    @settings(max_examples=60)
    @given(
        body=st.binary(min_size=1, max_size=60),
        sigma=st.integers(2, 4),
        plen=st.integers(1, 3),
    )
    def test_every_member_matches_the_stack_sweep(self, body, sigma, plen):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        prefixes = sorted({text.data[i : i + plen] for i in range(text.n - plen)} - {b""})
        prefixes = [p for p in prefixes if b"\x00" not in p]
        if not prefixes:
            return
        batch = [arrays_for(text, p) for p in prefixes]
        trees = build_subtree(batch, text)
        assert [tree.prefix for tree in trees] == prefixes
        for arrays, tree in zip(batch, trees):
            want = reference_subtree(
                arrays.sa.tolist(), arrays.lcp[:, 2].tolist(), len(arrays.prefix), text.n
            )
            assert (tree.pos.tolist(), tree.depth.tolist(), tree.end.tolist()) == want

    def test_empty_batch(self):
        assert build_subtree([], from_str("banana$")) == []

    def test_bad_member_rejects_the_batch(self):
        t = from_str("banana$")
        good = arrays_for(t, sym(t, "n"))
        bad = SubtreeArrays(sym(t, "an"), [4, 2], [(0, 3, 1)])
        with pytest.raises(CorruptArraysError, match="above the prefix depth"):
            build_subtree([good, bad], t)


def v2_layout(prefix, pos, depth, end):
    k = len(pos)
    return (
        struct.pack("<4sHH", SUBTREE_MAGIC, 2, len(prefix))
        + prefix
        + struct.pack(f"<Q{k}Q{k}Q{k}I", k, *pos, *depth, *end)
    )


class TestSerialization:
    def test_round_trip_classics(self):
        for s in ("banana$", "mississippi$", "aaaa$"):
            t = from_str(s)
            for c in sorted(set(s) - {"$"}):
                [tree] = build_subtree([arrays_for(t, sym(t, c))], t)
                assert deserialize_subtree(subtree_to_bytes(tree), t.n) == tree

    def test_single_leaf_is_header_plus_one_record(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "b"))], t)
        blob = subtree_to_bytes(tree)
        header = struct.calcsize("<4sHH") + 1 + struct.calcsize("<Q")
        record = struct.calcsize("<QQI")
        assert len(blob) == header + record

    def test_exact_little_endian_layout(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "a"))], t)
        assert SUBTREE_VERSION == 2
        expected = v2_layout(sym(t, "a"), [6, 6, 4, 4, 2], [1, 2, 3, 4, 6], [5, 2, 5, 4, 5])
        assert subtree_to_bytes(tree) == expected

    def test_banana_a_record_count(self):
        # oracle shape: root, delimiter leaf, depth-3 internal, two leaves
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "a"))], t)
        blob = subtree_to_bytes(tree)
        back = deserialize_subtree(blob, t.n)
        assert len(back.pos) == 5

    def test_bytes_written_and_charge(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "a"))], t)
        sink = io.BytesIO()
        stats = IoStats(PHASE_SERIALIZE, 0)
        n = serialize_subtree(tree, sink, stats=stats, block_size=16)
        assert n == len(sink.getvalue())
        assert stats.blocks_written == -(-n // 16)

    def test_truncation_and_corruption_detected(self):
        t = from_str("banana$")
        [tree] = build_subtree([arrays_for(t, sym(t, "a"))], t)
        blob = subtree_to_bytes(tree)
        with pytest.raises(IndexCorruptError):
            deserialize_subtree(blob[:-4], t.n)
        with pytest.raises(IndexCorruptError):
            deserialize_subtree(b"NOPE" + blob[4:], t.n)
        with pytest.raises(IndexCorruptError):
            deserialize_subtree(blob + b"\x00", t.n)
        with pytest.raises(IndexCorruptError, match="unsupported version 1"):
            deserialize_subtree(blob[:4] + struct.pack("<H", 1) + blob[6:], t.n)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pos", 0),  # positions are 1-based
            ("pos", 8),  # past n = 7
            ("depth", 5),  # suffix 4 has only 4 symbols
            ("end", 3),  # end[3] must exceed 3
            ("end", 6),  # past the node count
            ("end0", 4),  # the root spans every node
            ("count", 6),  # node count disagrees with the payload
        ],
    )
    def test_out_of_range_fields_rejected(self, field, value):
        t = from_str("banana$")
        pos, depth, end = [6, 6, 4, 4, 2], [1, 2, 3, 4, 6], [5, 2, 5, 4, 5]
        assert deserialize_subtree(v2_layout(sym(t, "a"), pos, depth, end), t.n)
        if field == "pos":
            pos[3] = value
        elif field == "depth":
            depth[3] = value
        elif field == "end":
            end[3] = value
        elif field == "end0":
            end[0] = value
        blob = v2_layout(sym(t, "a"), pos, depth, end)
        if field == "count":
            blob = blob[:9] + struct.pack("<Q", value) + blob[17:]
        with pytest.raises(IndexCorruptError):
            deserialize_subtree(blob, t.n)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexCorruptError):
            deserialize_subtree(tmp_path / "st_none", 7)

    @settings(max_examples=40)
    @given(
        body=st.binary(min_size=2, max_size=40),
        sigma=st.integers(2, 4),
        plen=st.integers(1, 2),
    )
    def test_round_trip_random(self, body, sigma, plen):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        prefix = text.data[:plen]
        if b"\x00" in prefix:
            return
        if not substring_positions(text.data, prefix):
            return
        [tree] = build_subtree([arrays_for(text, prefix)], text)
        assert deserialize_subtree(subtree_to_bytes(tree), text.n) == tree


class TestLeafOrderEqualsPreparedSa:
    @settings(max_examples=40)
    @given(
        body=st.binary(min_size=1, max_size=48),
        sigma=st.integers(2, 4),
    )
    def test_inorder_traversal_reproduces_sa(self, body, sigma):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        prefix = text.data[:1]
        positions = substring_positions(text.data, prefix)
        if not positions:
            return
        config = BuildConfig(memory_budget_m=4, block_size_b=1)
        [arrays] = subtree_prepare(
            text, [prefix], [positions], config,
            BlockReader(text, 1, IoStats(PHASE_HORIZONTAL, 0)),
        )
        [tree] = build_subtree([arrays], text)
        assert tree.leaf_positions() == arrays.sa.tolist()
