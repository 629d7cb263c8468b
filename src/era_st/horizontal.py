"""Horizontal partitioning: sort the suffixes sharing each prefix into a
relative suffix array with LCP triples, and charge the ranged reads of ERA's
preparation rounds.

ERA prepares one prefix pi with occurrence positions P in rounds.  Each round
picks a chunk length ``range`` with B <= range <= M_work from the number of
still-active suffixes, reads ``range`` fresh symbols of every suffix whose
branches are unfinished, sorts the chunks inside each run of still-tied
suffixes, and records an LCP triple (left symbol, right symbol, absolute
depth) wherever neighbours diverge.  A suffix retires once both of its
branches are recorded.

Here the order and the triples are computed directly over a numpy view of
the text: the suffixes are sorted by W-symbol windows, and only runs that are
still tied are extended by the next W symbols (past the text end the windows
hold the delimiter 0, which is unique and smallest).  The rounds become a cost
model replayed over the branch depths: the round starting at depth ``start``
records every branch whose depth lies in [start, start + range), so the
suffixes it reads are those with a neighbour branch at depth >= start.  Their
reads are charged in original-slot order by ``BlockReader.charge_ranges``
with the unchanged one-resident-block rule, so the counters and round counts
are the loop's, bit for bit.  The ordering is extended only up to the start of
the round being replayed, so it never looks further into a suffix than the
rounds read.

Ties can only break, never re-form, and the unique terminal delimiter breaks
every tie eventually, so the rounds end -- unless the text repeats a
substring longer than the configured guard: a round that would start past the
guard raises SkewedInputError instead of grinding through a near-quadratic
build.

Virtual trees are processed by p workers with a fixed round-robin
assignment; every worker owns its reader and counters, so identical inputs
produce identical outputs and identical per-worker statistics for any p.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._codes import max_code_len, pattern_code, window_codes
from .blockio import PHASE_HORIZONTAL, PHASE_SERIALIZE, BlockReader, IoStats
from .errors import BuildError, SkewedInputError
from .text import BuildConfig, Text
from .vertical import VirtualTree, subtree_file_name

# symbols per ordering window: two big-endian u64 sort keys
_WINDOW = 16
_COLUMNS = np.arange(_WINDOW)
# branch depth of a pair still tied: deeper than any round start
_TIED = np.iinfo(np.int64).max


@dataclass
class SubtreeArrays:
    """Relative suffix array plus LCP triples for one prefix.

    ``sa`` lists the occurrence positions of the prefix in lexicographic
    order of their suffixes.  ``lcp[i-1]`` describes the branch between the
    suffixes at slots i-1 and i: the two diverging symbols and the absolute
    depth (from the suffix start, so always >= len(prefix)) at which they
    appear.
    """

    prefix: bytes
    sa: list[int]
    lcp: list[tuple[int, int, int]]
    iterations: int = field(default=0, compare=False)


@dataclass
class HorizontalTimers:
    """Wall time spent locating occurrences, split by virtual-tree size."""

    cnt1_s: float = 0.0
    cnt_star_s: float = 0.0

    def record(self, member_count: int, seconds: float) -> None:
        if member_count == 1:
            self.cnt1_s += seconds
        else:
            self.cnt_star_s += seconds


@dataclass
class WorkerStats:
    worker_id: int
    io: IoStats
    serialize_io: IoStats
    timers: HorizontalTimers


@dataclass
class SubtreeRecord:
    """Per-prefix construction summary (instrumentation, not index payload)."""

    prefix: bytes
    occurrences: int
    iterations: int
    max_lcp_depth: int
    file_name: str | None = None
    node_count: int | None = None
    bytes_written: int | None = None


@dataclass
class HorizontalResult:
    records: list[SubtreeRecord]
    worker_stats: list[WorkerStats]
    subtrees: list[SubtreeArrays] | None = None


def get_range_of_symbols(active_count: int, config: BuildConfig) -> int:
    """Chunk length for a round: max(B, floor(M_work/active)), at most M_work."""
    if active_count < 1:
        raise ValueError("no active suffixes")
    m_work = config.work_buffer_m
    return min(m_work, max(config.block_size_b, m_work // active_count))


def _window_table(text: Text, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of every ``length``-symbol window in ascending order, with the
    0-based window starts; equal codes keep ascending starts."""
    if length > text.n:
        return np.empty(0, np.int64), np.empty(0, np.int32)
    codes = window_codes(text.data, length, text.sigma + 1)
    starts = np.argsort(codes, kind="stable")
    codes.sort()  # in place: no second code array
    return codes, starts.astype(np.int32 if text.n < 2**31 else np.int64)


def locate_occurrences(
    text: Text,
    vtree: VirtualTree,
    reader: BlockReader,
    timers: HorizontalTimers | None = None,
    tables: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> dict[bytes, list[int]]:
    """Start positions of every member prefix, in one charged scan.

    Each member is looked up by the code of its first Lk symbols (Lk is the
    longest code that fits 64 bits) in a sorted window table; longer
    prefixes are then filtered on their remaining symbols.  ``tables``
    caches the tables by Lk across calls on the same text.
    """
    t0 = time.perf_counter()
    reader.charge_full_scan()
    if tables is None:
        tables = {}
    data = np.frombuffer(text.data, dtype=np.uint8)
    last = text.n - 1
    key_len = max_code_len(text.sigma)
    out: dict[bytes, list[int]] = {}
    for entry in vtree.members:
        pat = entry.prefix
        lk = min(len(pat), key_len)
        if lk not in tables:
            tables[lk] = _window_table(text, lk)
        codes, starts = tables[lk]
        code = pattern_code(pat[:lk], text.sigma + 1)
        hits = starts[np.searchsorted(codes, code, "left") : np.searchsorted(codes, code, "right")]
        for j in range(lk, len(pat)):
            hits = hits[data[np.minimum(hits + j, last)] == pat[j]]
        out[pat] = (hits + 1).tolist()
    if timers is not None:
        timers.record(len(vtree.members), time.perf_counter() - t0)
    return out


class _SuffixOrder:
    """Suffixes starting at 0-based ``starts``, sorted on their first
    ``known`` symbols.

    ``order[k]`` is the original slot at sorted slot k.  The pair of sorted
    slots (k, k+1) has branch depth ``depth[k]`` and diverging symbols
    ``left[k]``/``right[k]`` once resolved; ``depth[k] == _TIED`` means the
    two suffixes still agree on their first ``known`` symbols.
    """

    def __init__(self, data: np.ndarray, starts: np.ndarray, known: int):
        m = len(starts)
        self.data = data
        self.starts = starts
        self.known = known
        self.order = np.arange(m)
        self.depth = np.full(m - 1, _TIED, dtype=np.int64)
        self.left = np.zeros(m - 1, dtype=np.uint8)
        self.right = np.zeros(m - 1, dtype=np.uint8)

    def extend(self, horizon: int) -> None:
        """Resolve every pair whose branch depth is below ``horizon``."""
        last = len(self.data) - 1
        while self.known < horizon:
            tied = self.depth == _TIED
            if not tied.any():
                return
            # slots in tied runs; a run starts where the pair before it is resolved
            in_run = np.zeros(len(self.order), dtype=bool)
            in_run[:-1] |= tied
            in_run[1:] |= tied
            rows = np.flatnonzero(in_run)
            run_start = np.ones(len(rows), dtype=bool)
            run_start[1:] = ~tied[rows[1:] - 1]
            run_id = np.cumsum(run_start)

            width = min(_WINDOW, horizon - self.known)
            at = self.starts[self.order[rows]] + self.known
            win = self.data[np.minimum(at[:, None] + _COLUMNS, last)]
            win[:, width:] = 0
            keys = win.view(">u8")
            perm = np.lexsort((*keys.T[::-1], run_id))
            self.order[rows] = self.order[rows][perm]
            win = win[perm]

            diff = win[:-1] != win[1:]
            split = ~run_start[1:] & diff.any(axis=1)
            pair = rows[:-1][split]
            col = diff[split].argmax(axis=1)
            self.depth[pair] = self.known + col
            self.left[pair] = win[:-1][split, col]
            self.right[pair] = win[1:][split, col]
            self.known += width


def subtree_prepare(
    text: Text,
    prefix: bytes,
    positions: list[int],
    config: BuildConfig,
    reader: BlockReader,
    *,
    check_invariants: bool = False,
) -> SubtreeArrays:
    """Sort the suffixes sharing ``prefix`` and emit their SA and LCP triples.

    ``positions`` are the prefix's occurrences in ascending order (the
    original slots); the replayed rounds charge their reads to ``reader``.
    """
    if not positions:
        raise ValueError("positions must be non-empty")
    m = len(positions)
    cap_len = config.prefix_len_cap(text)
    pos = np.asarray(positions, dtype=np.int64)
    start = len(prefix)
    suffixes = _SuffixOrder(np.frombuffer(text.data, dtype=np.uint8), pos - 1, start)
    iterations = 0
    while True:
        # exact below this round's start; a pair still tied branches deeper
        suffixes.extend(start)
        depth = suffixes.depth
        bounded = np.concatenate(([-1], depth, [-1]))
        active = np.empty(m, dtype=bool)
        active[suffixes.order] = np.maximum(bounded[:-1], bounded[1:]) >= start
        count = int(np.count_nonzero(active))
        if count == 0:
            break
        if start > cap_len:
            # report the first run of suffixes still sharing ``start`` symbols
            first = int(np.argmax(depth >= start))
            frequency = 1 + int(np.argmin(np.append(depth[first:] >= start, False)))
            p = int(pos[suffixes.order[first]])
            raise SkewedInputError(text.data[p - 1 : p - 1 + start], frequency, PHASE_HORIZONTAL)
        rng = get_range_of_symbols(count, config)
        reader.charge_ranges(pos[active] + start, rng)
        iterations += 1
        start += rng

    arrays = SubtreeArrays(
        prefix,
        pos[suffixes.order].tolist(),
        list(zip(suffixes.left.tolist(), suffixes.right.tolist(), suffixes.depth.tolist())),
        iterations=iterations,
    )
    if check_invariants:
        _check_arrays(text, arrays, positions)
    return arrays


def _check_arrays(text: Text, arrays: SubtreeArrays, positions: list[int]) -> None:
    """--check-invariants: ``sa`` permutes the positions, and every adjacent
    pair agrees up to its recorded depth and then has its recorded, strictly
    ordered symbols."""
    data = text.data
    if sorted(arrays.sa) != sorted(positions):
        raise AssertionError("sa is not a permutation of the occurrence positions")
    if len(arrays.lcp) != len(arrays.sa) - 1:
        raise AssertionError("one LCP triple per adjacent pair expected")
    for k, (left, right, depth) in enumerate(arrays.lcp):
        a, b = arrays.sa[k] - 1, arrays.sa[k + 1] - 1
        if data[a : a + depth] != data[b : b + depth]:
            raise AssertionError(f"slots {k},{k + 1} differ above depth {depth}")
        if (data[a + depth], data[b + depth]) != (left, right) or left >= right:
            raise AssertionError(f"slots {k},{k + 1}: bad branch symbols at depth {depth}")


def _prepare_worker_stats(worker_id: int) -> WorkerStats:
    return WorkerStats(
        worker_id=worker_id,
        io=IoStats(PHASE_HORIZONTAL, worker_id),
        serialize_io=IoStats(PHASE_SERIALIZE, worker_id),
        timers=HorizontalTimers(),
    )


def _process_vtrees(
    text: Text,
    assigned: list[tuple[int, VirtualTree]],
    config: BuildConfig,
    out_dir: str | None,
    check_invariants: bool,
    worker_id: int,
):
    """Run one worker's share; returns plain picklable tuples.

    Result: (indexed record rows, stats, skew info or None, arrays or None).
    """
    from .tree import build_subtree, serialize_subtree  # deferred import keeps module load cheap

    stats = _prepare_worker_stats(worker_id)
    reader = BlockReader(text, config.block_size_b, stats.io)
    tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    rows: list[tuple[int, int, SubtreeRecord]] = []
    arrays_out: list[tuple[int, int, SubtreeArrays]] | None = None if out_dir else []
    for vt_index, vtree in assigned:
        occurrences = locate_occurrences(text, vtree, reader, stats.timers, tables)
        for member_index, entry in enumerate(vtree.members):
            positions = occurrences[entry.prefix]
            if not positions:
                continue
            current = entry.prefix
            try:
                arrays = subtree_prepare(
                    text, current, positions, config, reader,
                    check_invariants=check_invariants,
                )
                max_depth = max((t[2] for t in arrays.lcp), default=0)
                record = SubtreeRecord(
                    prefix=current,
                    occurrences=len(positions),
                    iterations=arrays.iterations,
                    max_lcp_depth=max_depth,
                )
                if out_dir is not None:
                    tree = build_subtree(arrays, text)
                    record.file_name = subtree_file_name(current)
                    record.node_count = len(tree.pos)
                    path = Path(out_dir) / record.file_name
                    with open(path, "wb") as sink:
                        record.bytes_written = serialize_subtree(
                            tree, sink, stats=stats.serialize_io,
                            block_size=config.block_size_b,
                        )
                else:
                    arrays_out.append((vt_index, member_index, arrays))
            except SkewedInputError as exc:
                return rows, stats, (vt_index, exc), arrays_out
            except Exception as exc:  # noqa: BLE001 - reported as BuildError
                detail = f"{exc}\n{traceback.format_exc()}"
                return rows, stats, (vt_index, BuildError(current, detail)), arrays_out
            rows.append((vt_index, member_index, record))
    return rows, stats, None, arrays_out


_POOL_TEXT: Text | None = None
_POOL_CONFIG: BuildConfig | None = None
_POOL_OUT: str | None = None
_POOL_CHECK = False


def _pool_init(text, config, out_dir, check):
    global _POOL_TEXT, _POOL_CONFIG, _POOL_OUT, _POOL_CHECK
    _POOL_TEXT = text
    _POOL_CONFIG = config
    _POOL_OUT = out_dir
    _POOL_CHECK = check


def _pool_run(worker_id: int, assigned):
    return _process_vtrees(_POOL_TEXT, assigned, _POOL_CONFIG, _POOL_OUT, _POOL_CHECK, worker_id)


def run_horizontal(
    text: Text,
    vtrees: list[VirtualTree],
    config: BuildConfig,
    *,
    out_dir: str | Path | None = None,
    check_invariants: bool = False,
) -> HorizontalResult:
    """Process every virtual tree with p workers.

    With ``out_dir`` set, subtrees are built and serialized inside the
    workers and only summary records come back; otherwise the raw arrays are
    returned.  Output is independent of p: virtual tree i goes to worker
    i mod p, and every counter a worker touches is private.
    """
    p = config.workers_p
    out = str(out_dir) if out_dir is not None else None
    indexed = list(enumerate(vtrees))
    outcomes = []
    if p == 1 or len(indexed) <= 1:
        outcomes.append(_process_vtrees(text, indexed, config, out, check_invariants, 0))
        for w in range(1, p):
            outcomes.append(([], _prepare_worker_stats(w), None, None if out else []))
    else:
        with ProcessPoolExecutor(
            max_workers=p,
            initializer=_pool_init,
            initargs=(text, config, out, check_invariants),
        ) as pool:
            futures = [
                pool.submit(_pool_run, w, indexed[w::p]) for w in range(p)
            ]
            outcomes = [f.result() for f in futures]

    failures = []
    for rows, stats, failure, arrays in outcomes:
        if failure is not None:
            failures.append(failure)
    if failures:
        failures.sort(key=lambda f: f[0])
        raise failures[0][1]

    all_rows: list[tuple[int, int, SubtreeRecord]] = []
    all_arrays: list[tuple[int, int, SubtreeArrays]] = []
    worker_stats: list[WorkerStats] = []
    for rows, stats, _, arrays in outcomes:
        all_rows.extend(rows)
        worker_stats.append(stats)
        if arrays is not None:
            all_arrays.extend(arrays)
    all_rows.sort(key=lambda r: (r[0], r[1]))
    worker_stats.sort(key=lambda s: s.worker_id)
    result = HorizontalResult(
        records=[r[2] for r in all_rows],
        worker_stats=worker_stats,
    )
    if out is None:
        all_arrays.sort(key=lambda r: (r[0], r[1]))
        result.subtrees = [a[2] for a in all_arrays]
    return result
