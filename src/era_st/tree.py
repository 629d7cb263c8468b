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
stored.  The root sits at depth len(prefix); a prefix that occurs once
gives a one-leaf subtree whose edge runs from there to the text end.

The subtrees of all members of one virtual tree are built in one array pass
over their concatenated branch depths: nearest-smaller-depth searches over a
sparse table of minima find every lcp interval, and one sort puts all of
them in preorder.

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


def _min_table(values: np.ndarray, span: int) -> list[np.ndarray]:
    """Sparse table: level j holds the minimum of values[i : i + 2**j], for
    every 2**j <= span."""
    levels = [values]
    while 1 << len(levels) <= span:
        half = 1 << (len(levels) - 1)
        levels.append(np.minimum(levels[-1][:-half], levels[-1][half:]))
    return levels


def _previous_not_greater(levels: list[np.ndarray], at: np.ndarray) -> np.ndarray:
    """For each index in ``at``, the nearest index to its left holding a
    value <= its own.  One must lie within the table's span, and index 0
    must hold a value <= every target: a window clipped at 0 then fails."""
    target = levels[0][at]
    cur = at  # every index in [cur, at) holds a greater value
    for j in range(len(levels) - 1, -1, -1):
        cand = cur - (1 << j)
        cur = np.where(levels[j][np.maximum(cand, 0)] > target, cand, cur)
    return cur - 1


def _next_smaller(levels: list[np.ndarray], at: np.ndarray) -> np.ndarray:
    """For each index in ``at``, the nearest index to its right holding a
    value < its own.  One must lie within the table's span, and the last
    index must hold a value < every target: a window clipped there fails."""
    target = levels[0][at]
    cur = at + 1  # every index in (at, cur) holds a value >= its own
    for j in range(len(levels) - 1, -1, -1):
        level = levels[j]
        ok = level[np.minimum(cur, len(level) - 1)] >= target
        cur = cur + (ok << j)
    return cur


def build_subtree(batch: list[SubtreeArrays], text: Text) -> list[SuffixSubtree]:
    """Preorder arrays from (sa, lcp) for all members of one virtual tree.

    The members' slots are laid end to end; pair k, between slots k-1 and
    k, carries that branch depth, and a -1 sentinel stands before every
    member and after the last.  Each member's root is the interval over all
    its slots at depth len(prefix).  A deeper pair opens an lcp interval iff
    the nearest pair on its left at a depth <= its own is strictly shallower
    (it is the interval's first pair at that depth); the interval runs from
    there to the pair before the nearest strictly shallower pair on its
    right.  Leaf k is the interval (k, k) at its suffix length.  Sorting all
    intervals by the unique key (left boundary, depth) gives preorder, and a
    node's subtree ends at the first node whose left boundary lies past its
    right boundary.  Both nearest-smaller searches descend one sparse table
    of minima, so no step loops over pairs.
    """
    sizes = np.array([len(a.sa) for a in batch], dtype=np.int64)
    for a, m in zip(batch, sizes.tolist()):
        if m == 0:
            raise CorruptArraysError("empty suffix array")
        if len(a.lcp) != m - 1:
            raise CorruptArraysError(f"expected {m - 1} lcp triples, got {len(a.lcp)}")
    if not batch:
        return []
    first = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    sa = np.concatenate([a.sa for a in batch])
    lengths = text.n + 1 - sa
    depth0 = np.array([len(a.prefix) for a in batch], dtype=np.int64)
    if (depth0 >= lengths[first]).any():
        j = int(np.argmax(depth0 >= lengths[first]))
        raise CorruptArraysError(f"suffix {sa[first[j]]} has no symbols below depth {depth0[j]}")

    pairs = np.full((total + 1, 3), -1, dtype=np.int64)
    inner = np.ones(total + 1, dtype=bool)
    inner[first] = inner[total] = False
    inner = np.flatnonzero(inner)
    pairs[inner] = np.concatenate([a.lcp for a in batch])
    left_sym, right_sym, depth = pairs[inner].T
    floor = depth0[np.repeat(np.arange(len(batch)), sizes - 1)]
    for bad, message in (
        (depth < floor, lambda i: f"branch depth {depth[i]} above the prefix depth {floor[i]}"),
        (left_sym >= right_sym, lambda i: f"branch symbols out of order ({left_sym[i]} >= {right_sym[i]})"),
        (
            (depth >= lengths[inner - 1]) | (depth >= lengths[inner]),
            lambda i: f"branch depth {depth[i]} reaches the end of suffix {sa[inner[i] - 1]} or {sa[inner[i]]}",
        ),
    ):
        if bad.any():
            raise CorruptArraysError(message(int(np.argmax(bad))))

    depth = pairs[:, 2]
    levels = _min_table(depth, int(sizes.max()))
    deeper = inner[depth[inner] > floor]
    before = _previous_not_greater(levels, deeper)
    opens = depth[before] < depth[deeper]
    deeper, before = deeper[opens], before[opens]
    multi = sizes > 1
    slots = np.arange(total)
    left = np.concatenate((first[multi], before, slots))
    right = np.concatenate((first[multi] + sizes[multi] - 1, _next_smaller(levels, deeper) - 1, slots))
    node_depth = np.concatenate((depth0[multi], depth[deeper], lengths))
    order = np.argsort(left * (int(lengths.max()) + 1) + node_depth)
    left, right, node_depth = left[order], right[order], node_depth[order]
    # every slot has its leaf: first_node[k] is the first node whose left boundary is k
    first_node = np.append(np.flatnonzero(np.diff(left, prepend=-1)), len(left))
    end = first_node[right + 1]
    pos = sa[left]
    bounds = first_node[np.append(first, total)]
    return [
        SuffixSubtree(a.prefix, pos[lo:hi], node_depth[lo:hi], end[lo:hi] - lo)
        for a, lo, hi in zip(batch, bounds[:-1].tolist(), bounds[1:].tolist())
    ]


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

