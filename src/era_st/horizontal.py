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

Here a virtual tree is one array pass.  The occurrences of all its member
prefixes are laid end to end, and the order and the triples are computed
directly over a numpy view of the text: each member's suffixes are sorted by
W-symbol windows, and only runs that are still tied are extended by the next
W symbols (past the text end the windows hold the delimiter 0, which is
unique and smallest); a pair of slots from two members is never tied.  The
rounds become a cost model replayed over the branch depths, for all members
in lockstep, each with its own round start, range and round count: the round
starting at depth ``start`` records every branch whose depth lies in [start,
start + range), so the suffixes it reads are those with a neighbour branch
at depth >= start.  A member's ordering is extended only up to the start of
its round being replayed, so it never looks further into a suffix than the
rounds read.  The reads are then charged member by member, round by round,
in original-slot order, by one ``BlockReader.charge_ranges`` call with the
unchanged one-resident-block rule, so the counters and round counts are
those of preparing the members one after the other, bit for bit.

Ties can only break, never re-form, and the unique terminal delimiter breaks
every tie eventually, so the rounds end -- unless the text repeats a
substring longer than the configured guard: a round that would start past the
guard raises SkewedInputError instead of grinding through a near-quadratic
build.  The members before the first one to skew are prepared and charged in
full, and the members after it not at all.

Virtual trees are processed by p workers with a fixed round-robin
assignment; every worker owns its reader and counters, so identical inputs
produce identical outputs and identical per-worker statistics for any p.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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


@dataclass(eq=False)
class SubtreeArrays:
    """Relative suffix array plus LCP triples for one prefix.

    ``sa`` (int64[m]) lists the occurrence positions of the prefix in
    lexicographic order of their suffixes.  Row ``lcp[i-1]`` (int64[m-1, 3])
    describes the branch between the suffixes at slots i-1 and i: the two
    diverging symbols and the absolute depth (from the suffix start, so
    always >= len(prefix)) at which they appear.
    """

    prefix: bytes
    sa: np.ndarray
    lcp: np.ndarray
    iterations: int = 0

    def __post_init__(self):
        self.sa = np.asarray(self.sa, dtype=np.int64)
        self.lcp = np.asarray(self.lcp, dtype=np.int64).reshape(-1, 3)

    def __eq__(self, other: object) -> bool:
        """Equal prefix, ``sa`` and ``lcp``; ``iterations`` is instrumentation."""
        if not isinstance(other, SubtreeArrays):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and np.array_equal(self.sa, other.sa)
            and np.array_equal(self.lcp, other.lcp)
        )


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


def get_range_of_symbols(active_count, config: BuildConfig):
    """Chunk length for a round: max(B, floor(M_work/active)), at most M_work.

    ``active_count`` is one count or an array of counts, one per member.
    """
    active_count = np.asarray(active_count)
    if (active_count < 1).any():
        raise ValueError("no active suffixes")
    m_work = config.work_buffer_m
    return np.minimum(m_work, np.maximum(config.block_size_b, m_work // active_count))


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
) -> dict[bytes, np.ndarray]:
    """Start positions (1-based, ascending, int64) of every member prefix, in
    one charged scan.

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
    out: dict[bytes, np.ndarray] = {}
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
        out[pat] = hits.astype(np.int64) + 1
    if timers is not None:
        timers.record(len(vtree.members), time.perf_counter() - t0)
    return out


class _SuffixOrder:
    """The suffixes of the members of one virtual tree, those of member j
    sorted on their first ``known[j]`` symbols.

    Slots are concatenated member by member and a member's sorted slots keep
    its range of original slots; ``order[k]`` is the original slot at sorted
    slot k and ``member[k]`` the member owning slot k.  Pair k (0 < k <
    total) lies between sorted slots k-1 and k: ``depth[k]`` is its branch
    depth and ``left[k]``/``right[k]`` its diverging symbols once resolved,
    and ``depth[k] == _TIED`` means the two suffixes still agree on their
    first ``known`` symbols.  Entries 0 and ``total`` and the pairs between
    two members hold -1, so they are never tied.
    """

    def __init__(self, text: Text, starts: np.ndarray, bounds: np.ndarray, known: np.ndarray):
        total = len(starts)
        # row i: the W symbols from 0-based position i, 0 past the text end
        padded = np.frombuffer(text.data + bytes(_WINDOW - 1), dtype=np.uint8)
        self.windows = np.lib.stride_tricks.sliding_window_view(padded, _WINDOW)
        self.starts = starts
        self.member = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        self.known = known
        self.order = np.arange(total)
        self.depth = np.full(total + 1, _TIED, dtype=np.int64)
        self.depth[bounds] = -1
        self.left = np.zeros(total + 1, dtype=np.uint8)
        self.right = np.zeros(total + 1, dtype=np.uint8)

    def extend(self, horizon: np.ndarray, members: np.ndarray) -> None:
        """For each member j with ``members[j]`` set, resolve every pair whose
        branch depth is below ``horizon[j]``."""
        while True:
            want = members & (self.known < horizon)
            tied = self.depth == _TIED
            tied[1:-1] &= want[self.member[1:]]
            if not tied.any():
                return
            # slots in tied runs; a run starts where the pair before it is not tied
            rows = np.flatnonzero(tied[:-1] | tied[1:])
            run_start = ~tied[rows]
            run_id = np.cumsum(run_start)

            owner = self.member[rows]
            known = self.known[owner]
            # a tied suffix is longer than ``known``, so every row exists
            win = self.windows[self.starts[self.order[rows]] + known]
            width = np.minimum(_WINDOW, horizon - self.known)[owner]
            if width.min() < _WINDOW:
                win[_COLUMNS >= width[:, None]] = 0
            keys = win.view(">u8")
            perm = np.lexsort((*keys.T[::-1], run_id))
            self.order[rows] = self.order[rows][perm]
            win = win[perm]

            diff = win[:-1] != win[1:]
            split = ~run_start[1:] & diff.any(axis=1)
            pair = rows[1:][split]
            col = diff[split].argmax(axis=1)
            self.depth[pair] = known[1:][split] + col
            self.left[pair] = win[:-1][split, col]
            self.right[pair] = win[1:][split, col]
            self.known[want] = np.minimum(self.known + _WINDOW, horizon)[want]

    def skew_error(self, text: Text, pos: np.ndarray, lo: int, hi: int, start: int) -> SkewedInputError:
        """The error for the member at slots [lo, hi): the first run of its
        suffixes still sharing ``start`` symbols."""
        deep = self.depth[lo + 1 : hi] >= start
        first = int(np.argmax(deep))
        frequency = 1 + int(np.argmin(np.append(deep[first:], False)))
        p = int(pos[self.order[lo + first]])
        return SkewedInputError(text.data[p - 1 : p - 1 + start], frequency, PHASE_HORIZONTAL)


def subtree_prepare(
    text: Text,
    prefixes: list[bytes],
    positions: list[np.ndarray],
    config: BuildConfig,
    reader: BlockReader,
    *,
    check_invariants: bool = False,
) -> list[SubtreeArrays]:
    """Sort the suffixes sharing each member prefix of one virtual tree and
    emit one SA with LCP triples per member, in member order.

    ``positions[j]`` are the occurrences of ``prefixes[j]`` in ascending
    order (the member's original slots).  All members are ordered and their
    rounds replayed together, each with its own round start, range and
    round count; the reads are then charged to ``reader`` member by member,
    round by round, in original-slot order, exactly as one member after the
    other would read them.  A member that skews stops the members after it;
    the ones before it run to completion and are charged, and the first
    skewing member's SkewedInputError is raised.
    """
    k = len(prefixes)
    if k == 0:
        return []
    sizes = np.array([len(p) for p in positions], dtype=np.int64)
    if not sizes.all():
        raise ValueError("every member needs occurrence positions")
    cap_len = config.prefix_len_cap(text)
    pos = np.concatenate([np.asarray(p, dtype=np.int64) for p in positions])
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    start = np.array([len(p) for p in prefixes], dtype=np.int64)
    suffixes = _SuffixOrder(text, pos - 1, bounds, start.copy())
    member = suffixes.member
    iterations = np.zeros(k, dtype=np.int64)
    running = np.ones(k, dtype=bool)
    skewed: tuple[int, SkewedInputError] | None = None
    reads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (member, start, length) per round
    while running.any():
        # exact below each member's round start; a pair still tied branches deeper
        suffixes.extend(start, running)
        depth = suffixes.depth
        active = np.empty(len(pos), dtype=bool)
        active[suffixes.order] = np.maximum(depth[:-1], depth[1:]) >= start[member]
        active &= running[member]
        counts = np.bincount(member[active], minlength=k)
        running &= counts > 0
        skewing = np.flatnonzero(running & (start > cap_len))
        if len(skewing):
            # members after the first skewing one are never read
            j = int(skewing[0])
            skewed = (j, suffixes.skew_error(text, pos, bounds[j], bounds[j + 1], int(start[j])))
            running[j:] = False
        if not running.any():
            break
        active &= running[member]
        rng = np.zeros(k, dtype=np.int64)
        rng[running] = get_range_of_symbols(counts[running], config)
        slots = np.flatnonzero(active)
        owner = member[slots]
        reads.append((owner, pos[slots] + start[owner], rng[owner]))
        iterations[running] += 1
        start += rng

    if reads:
        owner, starts, lengths = (np.concatenate(col) for col in zip(*reads))
        keep = owner <= (skewed[0] if skewed else k)
        # member-major; the stable sort keeps each member's rounds and slots in order
        by_member = np.argsort(owner[keep], kind="stable")
        reader.charge_ranges(starts[keep][by_member], lengths[keep][by_member])
    if skewed is not None:
        raise skewed[1]

    lcp = np.column_stack((suffixes.left, suffixes.right, suffixes.depth))
    out = []
    for j, prefix in enumerate(prefixes):
        lo, hi = bounds[j], bounds[j + 1]
        arrays = SubtreeArrays(
            prefix, pos[suffixes.order[lo:hi]], lcp[lo + 1 : hi], iterations=int(iterations[j])
        )
        if check_invariants:
            _check_arrays(text, arrays, positions[j])
        out.append(arrays)
    return out


def _check_arrays(text: Text, arrays: SubtreeArrays, positions) -> None:
    """--check-invariants: ``sa`` permutes the positions, and every adjacent
    pair agrees up to its recorded depth and then has its recorded, strictly
    ordered symbols."""
    data = text.data
    sa = arrays.sa.tolist()
    if sorted(sa) != sorted(np.asarray(positions).tolist()):
        raise AssertionError("sa is not a permutation of the occurrence positions")
    if len(arrays.lcp) != len(sa) - 1:
        raise AssertionError("one LCP triple per adjacent pair expected")
    for k, (left, right, depth) in enumerate(arrays.lcp.tolist()):
        a, b = sa[k] - 1, sa[k + 1] - 1
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
        present = [i for i, e in enumerate(vtree.members) if len(occurrences[e.prefix])]
        if not present:
            continue
        prefixes = [vtree.members[i].prefix for i in present]
        current = prefixes[0]
        try:
            batch = subtree_prepare(
                text, prefixes, [occurrences[p] for p in prefixes], config, reader,
                check_invariants=check_invariants,
            )
            records = [
                SubtreeRecord(
                    prefix=arrays.prefix,
                    occurrences=len(arrays.sa),
                    iterations=arrays.iterations,
                    max_lcp_depth=int(arrays.lcp[:, 2].max(initial=0)),
                )
                for arrays in batch
            ]
            if out_dir is None:
                arrays_out.extend(zip([vt_index] * len(batch), present, batch))
            else:
                for record, tree in zip(records, build_subtree(batch, text)):
                    current = record.prefix
                    record.file_name = subtree_file_name(current)
                    record.node_count = len(tree.pos)
                    with open(Path(out_dir) / record.file_name, "wb") as sink:
                        record.bytes_written = serialize_subtree(
                            tree, sink, stats=stats.serialize_io,
                            block_size=config.block_size_b,
                        )
        except SkewedInputError as exc:
            return rows, stats, (vt_index, exc), arrays_out
        except Exception as exc:  # noqa: BLE001 - reported as BuildError
            detail = f"{exc}\n{traceback.format_exc()}"
            return rows, stats, (vt_index, BuildError(current, detail)), arrays_out
        rows.extend(zip([vt_index] * len(records), present, records))
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
