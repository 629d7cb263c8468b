"""End-to-end index construction, verification, and probe generation.

An index directory contains:

    manifest.txt   config echo, text digest, virtual-tree count
    trie.bin       the top trie (uncompacted, one leaf per partition prefix)
    st_<hex>       one serialized subtree per partition prefix
    text.bin       the canonical symbol string the edge pointers refer to
    stats.csv      per-phase, per-worker transfer counters

The index digest covers the payload files (trie, subtrees, text) and is
invariant under the worker count; manifest and stats are excluded because
they echo the configuration.
"""

from __future__ import annotations

import hashlib
import logging
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .blockio import (
    PHASE_VERTICAL,
    BlockReader,
    IoStats,
    charge_write,
    stats_csv,
)
from .errors import (
    AlphabetError,
    DelimiterError,
    IndexCorruptError,
    InputError,
    SkewedInputError,
)
from .horizontal import HorizontalResult, run_horizontal
from .manifest import MANIFEST_VERSION, Manifest, read_manifest
from .oracle import naive_search, naive_suffix_array
from .text import BuildConfig, Text
from .tree import SuffixIndex
from .vertical import (
    PartitionResult,
    TopTrie,
    build_top_trie,
    pack_virtual_trees,
    partition_prefixes,
)

logger = logging.getLogger(__name__)

STATS_NAME = "stats.csv"
TRIE_NAME = "trie.bin"
TEXT_NAME = "text.bin"


@dataclass
class BuildResult:
    out_dir: Path
    vtree_count: int
    entry_count: int
    direct_count: int
    stats: list[IoStats]
    wall_vertical_s: float
    wall_horizontal_s: float
    cnt1_s: float
    cnt_star_s: float
    records: list
    text_digest: str
    skewed: SkewedInputError | None = None
    partition: PartitionResult | None = None


def text_digest(text: Text) -> str:
    return hashlib.sha256(text.data).hexdigest()


def build_index(
    text: Text,
    config: BuildConfig,
    out_dir: str | Path,
    *,
    check_invariants: bool = False,
    on_skew: str = "raise",
) -> BuildResult:
    """Run both phases and write a complete index directory.

    ``on_skew="return"`` captures a SkewedInputError in the result instead of
    raising, leaving the counters gathered so far intact (used by the
    benchmark harness, which records skew as a row flag).
    """
    if on_skew not in ("raise", "return"):
        raise ValueError("on_skew must be 'raise' or 'return'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    notice = config.block_size_warning(text.n)
    if notice:
        logger.warning(notice)

    vertical_stats = IoStats(PHASE_VERTICAL, 0)
    reader = BlockReader(text, config.block_size_b, vertical_stats)
    result = BuildResult(
        out_dir=out,
        vtree_count=0,
        entry_count=0,
        direct_count=0,
        stats=[vertical_stats],
        wall_vertical_s=0.0,
        wall_horizontal_s=0.0,
        cnt1_s=0.0,
        cnt_star_s=0.0,
        records=[],
        text_digest=text_digest(text),
    )

    t0 = time.perf_counter()
    try:
        partition = partition_prefixes(text, config, reader)
    except SkewedInputError as exc:
        result.wall_vertical_s = time.perf_counter() - t0
        if on_skew == "return":
            result.skewed = exc
            return result
        raise
    vtrees = pack_virtual_trees(partition.entries, config)
    trie = build_top_trie(
        partition.entries,
        [d.prefix for d in partition.direct_leaves],
        sigma=text.sigma,
    )
    trie_bytes = trie.to_bytes()
    (out / TRIE_NAME).write_bytes(trie_bytes)
    charge_write(vertical_stats, len(trie_bytes), config.block_size_b)
    # a previous build into this directory may have used other prefixes
    named = {leaf.file_name for leaf in trie.leaves if not leaf.is_direct}
    for stale in out.glob("st_*"):
        if stale.name not in named:
            stale.unlink()
    result.wall_vertical_s = time.perf_counter() - t0
    result.partition = partition
    result.entry_count = len(partition.entries)
    result.direct_count = len(partition.direct_leaves)
    result.vtree_count = len(vtrees)

    t1 = time.perf_counter()
    try:
        horizontal = run_horizontal(
            text, vtrees, config, out_dir=out, check_invariants=check_invariants
        )
    except SkewedInputError as exc:
        result.wall_horizontal_s = time.perf_counter() - t1
        if on_skew == "return":
            result.skewed = exc
            return result
        raise
    result.wall_horizontal_s = time.perf_counter() - t1
    _absorb_horizontal(result, horizontal)

    (out / TEXT_NAME).write_bytes(text.data)
    manifest = Manifest(
        version=MANIFEST_VERSION,
        n=text.n,
        sigma=text.sigma,
        m=config.memory_budget_m,
        b=config.block_size_b,
        p=config.workers_p,
        max_prefix_len=config.prefix_len_cap(text),
        rng_seed=config.rng_seed,
        text_digest=result.text_digest,
        vtree_count=result.vtree_count,
        alphabet_map=text.byte_map,
    )
    manifest.write(out)
    (out / STATS_NAME).write_text(stats_csv(result.stats))
    return result


def _absorb_horizontal(result: BuildResult, horizontal: HorizontalResult) -> None:
    result.records = horizontal.records
    for ws in horizontal.worker_stats:
        result.stats.append(ws.io)
        result.stats.append(ws.serialize_io)
        result.cnt1_s += ws.timers.cnt1_s
        result.cnt_star_s += ws.timers.cnt_star_s


def open_index(index_dir: str | Path) -> SuffixIndex:
    """Open an index directory for queries.

    Raises IndexCorruptError for a missing or malformed part, including a
    ``text.bin`` that is not a valid text or not the one the manifest's
    ``text_digest`` records, and a direct trie leaf that does not end the
    text.
    """
    root = Path(index_dir)
    manifest = read_manifest(root)
    text_path = root / TEXT_NAME
    if not text_path.exists():
        raise IndexCorruptError(f"{text_path}: missing text payload")
    data = text_path.read_bytes()
    try:
        text = Text(data, manifest.sigma, byte_map=_copy_map(manifest.alphabet_map))
    except (AlphabetError, DelimiterError, InputError) as exc:
        raise IndexCorruptError(f"{text_path}: {exc}") from exc
    if text_digest(text) != manifest.text_digest:
        raise IndexCorruptError(f"{text_path}: digest differs from the manifest's text_digest")
    trie_path = root / TRIE_NAME
    if not trie_path.exists():
        raise IndexCorruptError(f"{trie_path}: missing trie")
    trie = TopTrie.from_bytes(trie_path.read_bytes(), source=str(trie_path))
    if manifest.n != text.n:
        raise IndexCorruptError(f"{root}: manifest n={manifest.n} but text has {text.n}")
    for leaf in trie.leaves:
        if leaf.is_direct and leaf.prefix != text.data[text.n - len(leaf.prefix) :]:
            raise IndexCorruptError(f"{trie_path}: direct leaf {leaf.prefix.hex()} does not end the text")
    index = SuffixIndex(root, trie, text, manifest.n)
    index.manifest = manifest
    return index


def _copy_map(alphabet_map: dict[int, int] | None) -> dict[int, int] | None:
    return dict(alphabet_map) if alphabet_map else None


def index_digest(index_dir: str | Path) -> str:
    """Digest of the index payload: trie, subtree files, text.

    Manifest and stats are excluded so the digest is comparable across
    builds that differ only in worker count.
    """
    root = Path(index_dir)
    names = sorted(
        p.name for p in root.iterdir() if p.name == TRIE_NAME or p.name == TEXT_NAME or p.name.startswith("st_")
    )
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(b"\x00")
        h.update((root / name).read_bytes())
    return h.hexdigest()


@dataclass
class VerifyOutcome:
    ok: bool
    exit_code: int
    detail: str


def probe_patterns(text: Text, count: int, seed: int) -> list[bytes]:
    """Deterministic query probes: present substrings, random (likely absent)
    strings, and patterns straddling the text end."""
    rng = random.Random(seed)
    data = text.data
    n = text.n
    probes: list[bytes] = []
    for k in range(count):
        kind = k % 3
        if kind == 0 and n > 1:
            start = rng.randrange(0, n - 1)
            length = min(n - start, rng.randint(1, 8))
            probes.append(data[start : start + length])
        elif kind == 1:
            length = rng.randint(1, 6)
            probes.append(bytes(rng.randint(1, text.sigma) for _ in range(length)))
        else:
            start = max(0, n - rng.randint(1, 4))
            extra = bytes(rng.randint(1, text.sigma) for _ in range(rng.randint(1, 3)))
            probes.append(data[start:] + extra)
    return probes


def verify_index(index_dir: str | Path, text: Text, probe_count: int = 200) -> VerifyOutcome:
    """Check the index against the brute-force reference.

    Exit codes mirror the CLI: 0 ok, 1 corruption or divergence (first
    divergence reported), 4 digest mismatch.
    """
    root = Path(index_dir)
    try:
        manifest = read_manifest(root)
    except IndexCorruptError as exc:
        return VerifyOutcome(False, 1, str(exc))
    if manifest.text_digest != text_digest(text):
        return VerifyOutcome(
            False, 4, f"text digest {text_digest(text)} != manifest {manifest.text_digest}"
        )
    try:
        index = open_index(root)
        got = list(index.iter_leaf_positions())
    except IndexCorruptError as exc:
        return VerifyOutcome(False, 1, str(exc))
    expected = naive_suffix_array(text)
    if got != expected:
        k = min(len(got), len(expected))
        for i, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                k = i
                break
        ctx_got = got[max(0, k - 2) : k + 3]
        ctx_exp = expected[max(0, k - 2) : k + 3]
        return VerifyOutcome(
            False,
            1,
            f"leaf sequence diverges at rank {k}: index {ctx_got} vs reference {ctx_exp}",
        )
    try:
        for pattern in probe_patterns(text, probe_count, manifest.rng_seed):
            want = naive_search(text, pattern)
            if index.exists(pattern) != bool(want):
                return VerifyOutcome(False, 1, f"exists mismatch on probe {pattern.hex()}")
            if index.locate(pattern) != want:
                return VerifyOutcome(False, 1, f"locate mismatch on probe {pattern.hex()}")
            length, witness = index.longest_prefix(pattern)
            exp_len = _naive_longest(text, pattern)
            if length != exp_len:
                return VerifyOutcome(
                    False, 1, f"longest-prefix length mismatch on probe {pattern.hex()}"
                )
            if length and (
                witness is None or text.data[witness - 1 : witness - 1 + length] != pattern[:length]
            ):
                return VerifyOutcome(False, 1, f"bad witness on probe {pattern.hex()}")
    except IndexCorruptError as exc:
        return VerifyOutcome(False, 1, str(exc))
    return VerifyOutcome(True, 0, "index matches the brute-force reference")


def _naive_longest(text: Text, pattern: bytes) -> int:
    for length in range(len(pattern), 0, -1):
        if naive_search(text, pattern[:length]):
            return length
    return 0


def index_height(records, direct_leaves) -> int:
    """Height of the assembled tree, counted as the deepest branch point plus
    the discriminating symbol; single-occurrence prefixes contribute their own
    length, direct leaves theirs."""
    best = 0
    for rec in records:
        if rec.occurrences >= 2:
            best = max(best, rec.max_lcp_depth + 1)
        else:
            best = max(best, len(rec.prefix))
    for d in direct_leaves:
        best = max(best, len(d.prefix))
    return best


def leaf_totals(records, direct_leaves) -> int:
    return sum(r.occurrences for r in records) + len(direct_leaves)


__all__ = [
    "BuildResult",
    "VerifyOutcome",
    "build_index",
    "open_index",
    "index_digest",
    "index_height",
    "leaf_totals",
    "probe_patterns",
    "text_digest",
    "verify_index",
]
