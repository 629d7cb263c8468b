"""Suffix subtree construction, binary serialization, and the query engine.

A subtree is the lcp-interval tree of one prefix's suffixes (Abouelhoda,
Kurtz & Ohlebusch, *Replacing suffix trees with enhanced suffix arrays*,
JDA 2004), held as three arrays indexed by depth-first preorder:

    pos[i]    1-based text position of the leftmost leaf below node i
    depth[i]  string depth at the node's lower end; a leaf's depth is its
              suffix length n - pos[i] + 1
    end[i]    preorder index one past the last node of i's subtree

Node i is a leaf iff end[i] == i + 1.  Its children are i + 1, end[i + 1],
and so on while below end[i].  The edge into child c of a node at depth d
spells text symbols pos[c] + d through pos[c] + depth[c] - 1 (1-based), the
slice data[pos[c] + d - 1 : pos[c] + depth[c] - 1], so edge labels are never
stored.  The root sits at depth len(prefix); a
prefix that occurs once gives a one-leaf subtree whose edge runs from there
to the text end.

Queries descend the top trie one symbol at a time, load at most one subtree
file on the way down, and compare whole edge labels against the text.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .blockio import IoStats, charge_write
from .errors import CorruptArraysError, IndexCorruptError
from .horizontal import SubtreeArrays
from .text import Text
from .vertical import TopTrie, TrieLeaf, TrieNode

SUBTREE_MAGIC = b"ERST"
SUBTREE_VERSION = 2

_HEADER = struct.Struct("<4sHH")
_COUNT = struct.Struct("<Q")
_NODE_BYTES = 8 + 8 + 4  # pos u64, depth u64, end u32


@dataclass(eq=False)
class SuffixSubtree:
    """All suffixes sharing one prefix, as the preorder arrays ``pos``,
    ``depth`` and ``end`` described in the module docstring.

    Node 0 is the root; the leaves in preorder reproduce the relative suffix
    array.
    """

    prefix: bytes
    pos: np.ndarray
    depth: np.ndarray
    end: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuffixSubtree):
            return NotImplemented
        return self.prefix == other.prefix and all(
            np.array_equal(a, b)
            for a, b in ((self.pos, other.pos), (self.depth, other.depth), (self.end, other.end))
        )

    def leaf_positions(self) -> list[int]:
        return list(self.iter_leaves(0))

    def iter_leaves(self, node_index: int) -> Iterator[int]:
        """Leaf positions below a node, left to right: the leaves of the
        preorder slice [node_index, end[node_index])."""
        stop = int(self.end[node_index])
        is_leaf = self.end[node_index:stop] == np.arange(node_index + 1, stop + 1)
        yield from self.pos[node_index:stop][is_leaf].tolist()


def build_subtree(arrays: SubtreeArrays, text: Text) -> SuffixSubtree:
    """Preorder arrays from (sa, lcp).

    One stack sweep over the branch depths lists the lcp intervals as (left
    boundary, right boundary, depth): the root at len(prefix), plus one
    interval per distinct deeper branch depth.  Leaf k is the interval (k, k)
    at its suffix length.  Sorting all of them by (left boundary, depth)
    gives preorder, and a node's subtree ends at the first node whose left
    boundary lies past its right boundary.
    """
    sa, lcp, prefix = arrays.sa, arrays.lcp, arrays.prefix
    m = len(sa)
    if m == 0:
        raise CorruptArraysError("empty suffix array")
    if len(lcp) != m - 1:
        raise CorruptArraysError(f"expected {m - 1} lcp triples, got {len(lcp)}")
    depth0 = len(prefix)
    lengths = [text.n - p + 1 for p in sa]
    if depth0 >= lengths[0]:
        raise CorruptArraysError(f"suffix {sa[0]} has no symbols below depth {depth0}")

    # a one-leaf subtree has no root interval: the leaf is the root
    lefts, rights, depths = ([0], [m - 1], [depth0]) if m > 1 else ([], [], [])
    stack = [(depth0, 0)]  # open intervals on the rightmost path: (depth, left boundary)
    for k, (left_sym, right_sym, depth) in enumerate(lcp, 1):
        if depth < depth0:
            raise CorruptArraysError(f"branch depth {depth} above the prefix depth {depth0}")
        if left_sym >= right_sym:
            raise CorruptArraysError(f"branch symbols out of order ({left_sym} >= {right_sym})")
        if depth >= lengths[k - 1] or depth >= lengths[k]:
            raise CorruptArraysError(
                f"branch depth {depth} reaches the end of suffix {sa[k - 1]} or {sa[k]}"
            )
        lb = k - 1
        while depth < stack[-1][0]:
            closed, lb = stack.pop()
            lefts.append(lb)
            rights.append(k - 1)
            depths.append(closed)
        if depth > stack[-1][0]:
            stack.append((depth, lb))
    for open_depth, lb in stack[1:]:
        lefts.append(lb)
        rights.append(m - 1)
        depths.append(open_depth)

    ranks = np.arange(m, dtype=np.int64)
    left = np.concatenate((np.array(lefts, dtype=np.int64), ranks))
    right = np.concatenate((np.array(rights, dtype=np.int64), ranks))
    depth = np.concatenate((np.array(depths, dtype=np.int64), np.array(lengths, dtype=np.int64)))
    order = np.lexsort((depth, left))
    left, right, depth = left[order], right[order], depth[order]
    end = np.searchsorted(left, right + 1).astype(np.int64)
    pos = np.array(sa, dtype=np.int64)[left]
    return SuffixSubtree(prefix, pos, depth, end)


def subtree_to_bytes(tree: SuffixSubtree) -> bytes:
    """Header, prefix, node count, then pos u64[k], depth u64[k] and
    end u32[k], all little-endian."""
    return b"".join(
        (
            _HEADER.pack(SUBTREE_MAGIC, SUBTREE_VERSION, len(tree.prefix)),
            tree.prefix,
            _COUNT.pack(len(tree.pos)),
            tree.pos.astype("<u8").tobytes(),
            tree.depth.astype("<u8").tobytes(),
            tree.end.astype("<u4").tobytes(),
        )
    )


def serialize_subtree(
    tree: SuffixSubtree,
    sink,
    stats: IoStats | None = None,
    block_size: int | None = None,
) -> int:
    """Write the preorder array layout; returns bytes written."""
    payload = subtree_to_bytes(tree)
    sink.write(payload)
    if stats is not None and block_size:
        charge_write(stats, len(payload), block_size)
    return len(payload)


def deserialize_subtree(
    source: bytes | str | Path, n: int, name: str = "subtree"
) -> SuffixSubtree:
    """Read a subtree over a text of ``n`` symbols.

    Every field a query indexes with is range-checked here, so a corrupt
    file raises IndexCorruptError instead of sending a query out of the text
    or out of the arrays.
    """
    if not isinstance(source, bytes):
        name = str(source)
        path = Path(source)
        if not path.exists():
            raise IndexCorruptError(f"{name}: missing subtree file")
        data = path.read_bytes()
    else:
        data = source
    try:
        magic, version, plen = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise IndexCorruptError(f"{name}: truncated header") from exc
    if magic != SUBTREE_MAGIC:
        raise IndexCorruptError(f"{name}: bad magic {magic!r}")
    if version != SUBTREE_VERSION:
        raise IndexCorruptError(f"{name}: unsupported version {version}")
    off = _HEADER.size
    prefix = data[off : off + plen]
    if len(prefix) != plen:
        raise IndexCorruptError(f"{name}: truncated prefix")
    off += plen
    try:
        (count,) = _COUNT.unpack_from(data, off)
    except struct.error as exc:
        raise IndexCorruptError(f"{name}: truncated node count") from exc
    off += _COUNT.size
    if count == 0 or len(data) - off != count * _NODE_BYTES:
        raise IndexCorruptError(f"{name}: {count} nodes do not fill {len(data) - off} payload bytes")
    pos = np.frombuffer(data, "<u8", count, off)
    depth = np.frombuffer(data, "<u8", count, off + 8 * count)
    end = np.frombuffer(data, "<u4", count, off + 16 * count)
    if pos.min() < 1 or pos.max() > n:
        raise IndexCorruptError(f"{name}: leaf position outside 1..{n}")
    if (depth > n + 1 - pos).any():
        raise IndexCorruptError(f"{name}: node depth beyond the end of its suffix")
    if end[0] != count or (end <= np.arange(count)).any() or end.max() > count:
        raise IndexCorruptError(f"{name}: subtree end outside the node range")
    return SuffixSubtree(prefix, pos.astype(np.int64), depth.astype(np.int64), end.astype(np.int64))


def iter_index_leaves(
    trie: TopTrie,
    load_subtree: Callable[[TrieLeaf], SuffixSubtree],
    n: int,
) -> Iterator[int]:
    """All suffix positions in lexicographic order: walk the trie leaves in
    symbol order and expand each subtree's in-order leaves inline."""
    for leaf in trie.iter_leaves():
        if leaf.is_direct:
            yield leaf.position(n)
        else:
            yield from load_subtree(leaf).leaf_positions()


@dataclass
class _Match:
    """Where a pattern walk stopped."""

    depth: int
    complete: bool
    trie_node: TrieNode | None = None
    subtree: SuffixSubtree | None = None
    node_index: int | None = None  # node at/under which all matches live


class SuffixIndex:
    """A built index: top trie, subtree files, and the text they point into."""

    def __init__(self, root_dir: str | Path, trie: TopTrie, text: Text, n: int):
        self.root_dir = Path(root_dir)
        self.trie = trie
        self.text = text
        self.n = n

    def load_subtree(self, leaf: TrieLeaf) -> SuffixSubtree:
        subtree = deserialize_subtree(self.root_dir / leaf.file_name, self.n)
        if subtree.prefix != leaf.prefix:
            raise IndexCorruptError(
                f"{leaf.file_name}: holds prefix {subtree.prefix.hex()}, not {leaf.prefix.hex()}"
            )
        return subtree

    def encode_pattern(self, pattern: str | bytes) -> bytes | None:
        """Strings are human representation and go through the text's byte
        map; bytes are taken as canonical symbols verbatim."""
        if isinstance(pattern, str):
            from .text import encode_pattern

            return encode_pattern(pattern, self.text.byte_map)
        return bytes(pattern)

    def iter_leaf_positions(self) -> Iterator[int]:
        return iter_index_leaves(self.trie, self.load_subtree, self.n)

    # -- pattern walk ------------------------------------------------------

    def _walk(self, pattern: bytes) -> _Match:
        node = self.trie.root
        depth = 0
        while depth < len(pattern):
            if node.leaf is not None:
                break
            child = node.children.get(pattern[depth])
            if child is None:
                return _Match(depth, False, trie_node=node)
            node = child
            depth += 1
        if node.leaf is None:
            return _Match(depth, depth == len(pattern), trie_node=node)
        leaf = node.leaf
        if leaf.is_direct:
            # the suffix is exactly the leaf prefix; nothing follows it
            return _Match(depth, depth == len(pattern), trie_node=node)
        subtree = self.load_subtree(leaf)
        return self._walk_subtree(pattern, depth, subtree)

    def _walk_subtree(self, pattern: bytes, depth: int, subtree: SuffixSubtree) -> _Match:
        """Match the pattern edge by edge from the subtree root, whose edge
        starts at the trie depth ``depth``."""
        data = self.text.data
        pos, lower, end = subtree.pos, subtree.depth, subtree.end
        node = 0
        if lower[node] < depth:
            raise IndexCorruptError(f"subtree {subtree.prefix.hex()}: root above its prefix")
        while True:
            start = int(pos[node]) - 1
            bottom = int(lower[node])
            edge = data[start + depth : start + bottom]
            want = pattern[depth:bottom]
            if edge[: len(want)] != want:
                k = next(k for k, (a, b) in enumerate(zip(edge, want)) if a != b)
                return _Match(depth + k, False, subtree=subtree, node_index=node)
            depth += len(want)
            if depth == len(pattern):
                return _Match(depth, True, subtree=subtree, node_index=node)
            child, stop = node + 1, int(end[node])
            while True:
                if child >= stop:
                    return _Match(depth, False, subtree=subtree, node_index=node)
                if lower[child] <= depth:
                    raise IndexCorruptError(
                        f"subtree {subtree.prefix.hex()}: node {child} is not below its parent"
                    )
                if data[int(pos[child]) + depth - 1] == pattern[depth]:
                    break
                child = int(end[child])
            node = child

    # -- collection helpers -------------------------------------------------

    def _trie_positions(self, node: TrieNode) -> Iterator[int]:
        if node.leaf is not None:
            if node.leaf.is_direct:
                yield node.leaf.position(self.n)
            else:
                yield from self.load_subtree(node.leaf).leaf_positions()
            return
        for _, child in node.ordered_children():
            yield from self._trie_positions(child)

    def _first_witness(self, match: _Match) -> int | None:
        if match.subtree is not None:
            return int(match.subtree.pos[match.node_index])
        if match.trie_node is not None:
            return next(self._trie_positions(match.trie_node), None)
        return None

    # -- queries -------------------------------------------------------------

    def exists(self, pattern: str | bytes) -> bool:
        """True iff the pattern occurs in the text; loads at most one subtree."""
        encoded = self.encode_pattern(pattern)
        if encoded is None:
            return False
        if not encoded:
            return True
        return self._walk(encoded).complete

    def locate(self, pattern: str | bytes) -> list[int]:
        """All occurrence positions, ascending."""
        encoded = self.encode_pattern(pattern)
        if encoded is None:
            return []
        if not encoded:
            return list(range(1, self.n + 1))
        match = self._walk(encoded)
        if not match.complete:
            return []
        if match.subtree is not None:
            hits = list(match.subtree.iter_leaves(match.node_index))
        else:
            hits = list(self._trie_positions(match.trie_node))
        return sorted(hits)

    def longest_prefix(self, pattern: str | bytes) -> tuple[int, int | None]:
        """Longest pattern prefix occurring in the text, with one witness."""
        encoded = self.encode_pattern(pattern)
        if encoded is None:
            # an unmappable symbol bounds the match; retry its mappable prefix
            assert isinstance(pattern, str)
            encoded = b""
            for cut in range(len(pattern) - 1, 0, -1):
                enc = self.encode_pattern(pattern[:cut])
                if enc is not None:
                    encoded = enc
                    break
        if not encoded:
            return (0, None)
        match = self._walk(encoded)
        if match.depth == 0:
            return (0, None)
        return (match.depth, self._first_witness(match))

