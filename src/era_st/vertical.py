"""Vertical partitioning: split the suffix tree into prefix-indexed subtrees
that fit the memory budget, then pack them into virtual trees.

The phase runs sequentially.  Starting from the single-symbol candidates, it
repeatedly scans the text, counts every candidate's frequency, keeps those
whose estimated subtree (two nodes per occurrence, B symbols each) fits M,
and extends the rest by one symbol.  Candidates whose only continuation is
the terminal delimiter become direct leaves: their subtree is a single leaf
and never enters a virtual tree.  The surviving prefixes are packed
first-fit-decreasing into bins of combined frequency at most floor(M/B).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _codes
from .blockio import PHASE_VERTICAL, BlockReader, IoStats
from .errors import IndexCorruptError, SkewedInputError
from .text import BuildConfig, Text

TRIE_MAGIC = b"ERTT"
TRIE_VERSION = 1

@dataclass(frozen=True)
class PrefixEntry:
    """A prefix and its substring frequency in the text."""

    prefix: bytes
    frequency: int


@dataclass
class VirtualTree:
    """One first-fit bin of prefixes; the unit of parallel work.

    Combined frequency is bounded by floor(M/B) so all member subtrees can be
    constructed within one memory budget.  Members never overlap: no member
    is a prefix of another.
    """

    members: list[PrefixEntry]
    load: int = 0

    def __post_init__(self):
        if not self.members:
            raise ValueError("virtual tree must have at least one member")
        self.load = sum(e.frequency for e in self.members)
        ps = [e.prefix for e in self.members]
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                if a.startswith(b) or b.startswith(a):
                    raise ValueError(f"overlapping members {a.hex()} / {b.hex()}")


@dataclass
class PartitionResult:
    """Output of the partitioning loop.

    ``entries`` covers every suffix whose continuation stays inside the
    alphabet; ``direct_leaves`` holds the delimiter-terminated prefixes
    (including the bare delimiter) whose subtree is a single leaf.
    """

    entries: list[PrefixEntry]
    direct_leaves: list[PrefixEntry]
    iterations: int
    stats: IoStats


def subtree_file_name(prefix: bytes) -> str:
    return "st_" + prefix.hex()


def count_frequencies(text: Text, candidates, reader: BlockReader) -> dict[bytes, int]:
    """Substring frequency of every candidate, in one charged scan.

    All candidates must share one length L; occurrences are counted at every
    start position 1..N-L+1, overlaps included.
    """
    cands = [bytes(c) for c in candidates]
    if not cands:
        raise ValueError("candidate set must be non-empty")
    length = len(cands[0])
    if length < 1 or any(len(c) != length for c in cands):
        raise ValueError("candidates must all share one length >= 1")
    reader.charge_full_scan()
    return _count_windows(text.data, cands, length, text.sigma)


def _count_windows(data: bytes, cands: list[bytes], length: int, sigma: int) -> dict[bytes, int]:
    if len(data) - length + 1 <= 0:
        return {c: 0 for c in cands}
    if length > _codes.max_code_len(sigma):
        # no 64-bit window code holds the candidates: one substring search each
        out = {}
        for c in cands:
            cnt = 0
            i = data.find(c)
            while i != -1:
                cnt += 1
                i = data.find(c, i + 1)
            out[c] = cnt
        return out

    base = sigma + 1
    cand_codes = np.array([_codes.pattern_code(c, base) for c in cands], dtype=np.int64)
    sorted_codes = np.sort(cand_codes)
    codes = _codes.window_codes(data, length, base)
    idx = np.minimum(np.searchsorted(sorted_codes, codes), len(cands) - 1)
    counts = np.bincount(idx[sorted_codes[idx] == codes], minlength=len(cands))
    return dict(zip(cands, counts[np.searchsorted(sorted_codes, cand_codes)].tolist()))


def partition_prefixes(
    text: Text, config: BuildConfig, reader: BlockReader | None = None
) -> PartitionResult:
    """Grow prefixes until every kept prefix satisfies 0 < B*f(pi) <= M.

    One full scan is charged per round; the returned prefixes are prefix-free
    and, together with the delimiter-terminated direct leaves, cover every
    suffix of the text exactly once.  A candidate still over budget at the
    guard length raises SkewedInputError.
    """
    if reader is None:
        reader = BlockReader(text, config.block_size_b, IoStats(PHASE_VERTICAL, 0))
    cap_freq = config.bin_capacity
    cap_len = config.prefix_len_cap(text)
    data = text.data
    n = text.n

    entries: list[PrefixEntry] = []
    direct: list[PrefixEntry] = [PrefixEntry(bytes([text.delimiter]), 1)]
    candidates = [bytes([s]) for s in range(1, text.sigma + 1)]
    iterations = 0
    while candidates:
        iterations += 1
        length = len(candidates[0])
        counts = count_frequencies(text, candidates, reader)
        # the only window that can precede the delimiter; an extended
        # candidate equal to it owns the suffix that ends in the delimiter
        tail = data[n - 1 - length : n - 1] if n - 1 >= length else None
        grown: list[bytes] = []
        for pi in candidates:
            f = counts[pi]
            if f == 0:
                continue
            if f <= cap_freq:
                entries.append(PrefixEntry(pi, f))
                continue
            if len(pi) >= cap_len:
                raise SkewedInputError(pi, f, PHASE_VERTICAL)
            for s in range(1, text.sigma + 1):
                grown.append(pi + bytes([s]))
            if tail == pi:
                direct.append(PrefixEntry(pi + bytes([text.delimiter]), 1))
        candidates = grown
    return PartitionResult(entries, direct, iterations, reader.stats)


def pack_virtual_trees(entries, config: BuildConfig) -> list[VirtualTree]:
    """First-fit-decreasing packing of prefixes into virtual trees.

    Entries are sorted by descending frequency (ties: ascending prefix), then
    bins are formed one at a time: open a bin with the current head and make
    a single pass over the remainder, taking everything that still fits.
    """
    cap = config.bin_capacity
    items = sorted(entries, key=lambda e: (-e.frequency, e.prefix))
    for e in items:
        if e.frequency > cap:
            raise ValueError(
                f"entry {e.prefix.hex()} frequency {e.frequency} exceeds capacity {cap}"
            )
    bins: list[VirtualTree] = []
    taken = [False] * len(items)
    for i, head in enumerate(items):
        if taken[i]:
            continue
        taken[i] = True
        members = [head]
        load = head.frequency
        for j in range(i + 1, len(items)):
            if taken[j]:
                continue
            f = items[j].frequency
            if load + f <= cap:
                members.append(items[j])
                load += f
                taken[j] = True
        bins.append(VirtualTree(members))
    return bins


@dataclass
class TrieLeaf:
    """Terminal trie entry: either a subtree file or a single-suffix leaf."""

    prefix: bytes
    file_name: str | None  # None marks a delimiter-terminated direct leaf

    @property
    def is_direct(self) -> bool:
        return self.file_name is None

    def position(self, n: int) -> int:
        """Occurrence of a direct-leaf prefix: it can only end the text."""
        return n - len(self.prefix) + 1


class TrieNode:
    __slots__ = ("children", "leaf")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.leaf: TrieLeaf | None = None

    def ordered_children(self) -> list[tuple[int, "TrieNode"]]:
        return sorted(self.children.items())


class TopTrie:
    """Uncompacted trie over the partition prefixes.

    Single-symbol edges, children in symbol order; each leaf names the file
    of its subtree, or marks a direct leaf.  Lookup of a prefix of length L
    takes L child steps.
    """

    def __init__(self, sigma: int | None = None):
        self.root = TrieNode()
        self.leaves: list[TrieLeaf] = []
        self.sigma = sigma

    def insert(self, leaf: TrieLeaf) -> None:
        node = self.root
        for sym in leaf.prefix:
            if node.leaf is not None:
                raise ValueError(f"prefix {leaf.prefix.hex()} passes through a leaf")
            node = node.children.setdefault(sym, TrieNode())
        if node.leaf is not None or node.children:
            raise ValueError(f"duplicate or overlapping prefix {leaf.prefix.hex()}")
        node.leaf = leaf
        self.leaves.append(leaf)

    def lookup(self, prefix: bytes) -> TrieLeaf | None:
        node = self.root
        for sym in prefix:
            nxt = node.children.get(sym)
            if nxt is None:
                return None
            node = nxt
        return node.leaf

    def iter_leaves(self):
        """Leaves in symbol order (depth-first, children ascending)."""

        def walk(node: TrieNode):
            if node.leaf is not None:
                yield node.leaf
            for _, child in node.ordered_children():
                yield from walk(child)

        yield from walk(self.root)

    def to_bytes(self) -> bytes:
        if self.sigma is None:
            raise ValueError("sigma must be set before serializing")
        leaves = sorted(self.leaves, key=lambda l: l.prefix)
        out = bytearray()
        out += struct.pack("<4sHHQ", TRIE_MAGIC, TRIE_VERSION, self.sigma, len(leaves))
        for leaf in leaves:
            name = (leaf.file_name or "").encode()
            out += struct.pack("<H", len(leaf.prefix))
            out += leaf.prefix
            out += struct.pack("<H", len(name))
            out += name
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "trie") -> "TopTrie":
        head = struct.calcsize("<4sHHQ")
        if len(data) < head:
            raise IndexCorruptError(f"{source}: truncated header")
        magic, version, sigma, count = struct.unpack_from("<4sHHQ", data, 0)
        if magic != TRIE_MAGIC:
            raise IndexCorruptError(f"{source}: bad magic {magic!r}")
        if version != TRIE_VERSION:
            raise IndexCorruptError(f"{source}: unsupported version {version}")
        trie = cls(sigma)
        off = head
        for _ in range(count):
            try:
                (plen,) = struct.unpack_from("<H", data, off)
                off += 2
                prefix = data[off : off + plen]
                if len(prefix) != plen:
                    raise struct.error("short prefix")
                off += plen
                (nlen,) = struct.unpack_from("<H", data, off)
                off += 2
                name = data[off : off + nlen]
                if len(name) != nlen:
                    raise struct.error("short name")
                off += nlen
            except struct.error as exc:
                raise IndexCorruptError(f"{source}: truncated entry ({exc})") from exc
            try:
                leaf = TrieLeaf(prefix, name.decode() if nlen else None)
                if nlen and leaf.file_name != subtree_file_name(prefix):
                    raise ValueError(f"prefix {prefix.hex()} stored as {leaf.file_name!r}")
                trie.insert(leaf)
            except ValueError as exc:  # a duplicate prefix, a foreign or non-UTF-8 name
                raise IndexCorruptError(f"{source}: bad entry ({exc})") from exc
        if off != len(data):
            raise IndexCorruptError(f"{source}: {len(data) - off} trailing bytes")
        return trie


def build_top_trie(entries, delimiter_leaves, sigma: int | None = None) -> TopTrie:
    """Assemble the trie over partition prefixes plus direct leaves."""
    trie = TopTrie(sigma)
    for e in entries:
        prefix = e.prefix if isinstance(e, PrefixEntry) else bytes(e)
        trie.insert(TrieLeaf(prefix, subtree_file_name(prefix)))
    for d in delimiter_leaves:
        prefix = d.prefix if isinstance(d, PrefixEntry) else bytes(d)
        trie.insert(TrieLeaf(prefix, None))
    return trie
