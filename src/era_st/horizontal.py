"""Horizontal partitioning: construct each suffix subtree by repeated ranged
reads and in-memory sorting of the still-tied suffixes.

For one prefix pi with occurrence positions SA, the preparation loop keeps,
per suffix, a buffer of the most recently read chunk.  Each round it

  1. picks a chunk length ``range`` with B <= range <= M_work,
  2. reads ``range`` fresh symbols for every suffix whose branch is still
     unfinished,
  3. sorts the buffers inside every active area (a maximal run of suffixes
     whose relative order is still undetermined), splitting runs of equal
     buffers into new active areas,
  4. where adjacent buffers diverge, records the branch as an LCP triple
     (left symbol, right symbol, absolute depth) and retires suffixes whose
     both neighbors are settled.

Ties can only break, never re-form, and the unique terminal delimiter breaks
every tie eventually, so the loop terminates -- unless the text repeats a
substring longer than the configured guard, which raises SkewedInputError
instead of grinding through a near-quadratic build.

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

from .blockio import PHASE_HORIZONTAL, PHASE_SERIALIZE, BlockReader, IoStats
from .errors import BuildError, SkewedInputError
from .text import BuildConfig, Text
from .vertical import VirtualTree, subtree_file_name

DONE = -1


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
class PrepareState:
    """Mutable loop state for one subtree preparation.

    ``pos_map[k]`` is the original slot of the suffix currently at slot k and
    ``isa`` its inverse (DONE once the suffix's branch is finished), so
    ``isa[pos_map[k]] == k`` for every unfinished slot.  ``area[k]`` groups
    slots whose relative order is still undetermined; equal ids are always
    contiguous.  ``start`` is the absolute depth already consumed.
    """

    sa: list[int]
    isa: list[int]
    area: list[int]
    buf: list[bytes]
    pos_map: list[int]
    start: int
    range_: int
    active_count: int
    next_area_id: int = 1


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


def get_range_of_symbols(state: PrepareState, config: BuildConfig) -> int:
    """Chunk length for this round: max(B, floor(M_work/n)), at most M_work."""
    n = state.active_count
    if n < 1:
        raise ValueError("no active suffixes")
    m_work = config.work_buffer_m
    return min(m_work, max(config.block_size_b, m_work // n))


def locate_occurrences(
    text: Text,
    vtree: VirtualTree,
    reader: BlockReader,
    timers: HorizontalTimers | None = None,
) -> dict[bytes, list[int]]:
    """Start positions of every member prefix, in one charged scan."""
    t0 = time.perf_counter()
    reader.charge_full_scan()
    data = text.data
    out: dict[bytes, list[int]] = {}
    for entry in vtree.members:
        pat = entry.prefix
        hits: list[int] = []
        i = data.find(pat)
        while i != -1:
            hits.append(i + 1)
            i = data.find(pat, i + 1)
        out[pat] = hits
    if timers is not None:
        timers.record(len(vtree.members), time.perf_counter() - t0)
    return out


def _mismatch(a: bytes, b: bytes) -> int:
    """Offset of the first differing symbol; caller guarantees a != b."""
    limit = min(len(a), len(b))
    # random chunks diverge within a handful of symbols
    for i in range(min(limit, 16)):
        if a[i] != b[i]:
            return i
    i = 16
    step = 64
    while i < limit:
        if a[i : i + step] == b[i : i + step]:
            i += step
            continue
        for j in range(i, min(i + step, limit)):
            if a[j] != b[j]:
                return j
        break
    # one buffer is a strict prefix of the other; cannot happen for chunks of
    # distinct suffixes of a delimiter-terminated text
    raise AssertionError("buffers diverge only at an explicit symbol")


def subtree_prepare(
    text: Text,
    prefix: bytes,
    positions: list[int],
    config: BuildConfig,
    reader: BlockReader,
    *,
    check_invariants: bool = False,
) -> SubtreeArrays:
    """Sort the suffixes sharing ``prefix`` and emit their SA and LCP triples."""
    if not positions:
        raise ValueError("positions must be non-empty")
    m = len(positions)
    cap_len = config.prefix_len_cap(text)
    state = PrepareState(
        sa=list(positions),
        isa=list(range(m)),
        area=[0] * m,
        buf=[b""] * m,
        pos_map=list(range(m)),
        start=len(prefix),
        range_=0,
        active_count=m,
    )
    lcp: list[tuple[int, int, int] | None] = [None] * (m - 1)
    undefined = m - 1
    iterations = 0
    checker = _StateChecker(state, lcp) if check_invariants else None

    sa, isa, area, buf, pos_map = state.sa, state.isa, state.area, state.buf, state.pos_map

    def mark_done(k: int) -> None:
        if area[k] == DONE:
            return
        area[k] = DONE
        isa[pos_map[k]] = DONE
        state.active_count -= 1

    while undefined > 0:
        if state.start > cap_len:
            k = next(i for i in range(m - 1) if lcp[i] is None)
            pos = sa[k]
            tied = 2
            while k + tied - 1 < m - 1 and lcp[k + tied - 1] is None:
                tied += 1
            shared = bytes(text.data[pos - 1 : pos - 1 + state.start])
            raise SkewedInputError(shared, tied, PHASE_HORIZONTAL)

        rng = get_range_of_symbols(state, config)
        state.range_ = rng
        iterations += 1

        # refill buffers of unfinished suffixes, in original-slot order so
        # reads walk the text in ascending position order
        for j in range(m):
            k = isa[j]
            if k == DONE:
                continue
            buf[k] = reader.read_range(sa[k] + state.start, rng)

        # sort each active area by this round's chunk, then split runs of
        # equal chunks into fresh areas
        k0 = 0
        while k0 < m:
            aid = area[k0]
            if aid == DONE:
                k0 += 1
                continue
            k1 = k0
            while k1 + 1 < m and area[k1 + 1] == aid:
                k1 += 1
            if k1 > k0:
                order = sorted(range(k0, k1 + 1), key=buf.__getitem__)
                if order != list(range(k0, k1 + 1)):
                    sa[k0 : k1 + 1] = [sa[t] for t in order]
                    buf[k0 : k1 + 1] = [buf[t] for t in order]
                    pos_map[k0 : k1 + 1] = [pos_map[t] for t in order]
                    for k in range(k0, k1 + 1):
                        isa[pos_map[k]] = k
                run = k0
                while run <= k1:
                    end = run
                    while end + 1 <= k1 and buf[end + 1] == buf[run]:
                        end += 1
                    if end > run:
                        new_id = state.next_area_id
                        state.next_area_id += 1
                        for k in range(run, end + 1):
                            area[k] = new_id
                    run = end + 1
            k0 = k1 + 1

        # record branches where adjacent buffers diverged this round
        for i in range(1, m):
            if lcp[i - 1] is not None:
                continue
            left, right = buf[i - 1], buf[i]
            if left == right:
                continue
            cp = _mismatch(left, right)
            lcp[i - 1] = (left[cp], right[cp], state.start + cp)
            undefined -= 1
            if i == 1 or lcp[i - 2] is not None:
                mark_done(i - 1)
            if i == m - 1 or lcp[i] is not None:
                mark_done(i)

        state.start += rng
        if checker is not None:
            checker.check(iterations)

    return SubtreeArrays(prefix, sa, [t for t in lcp if t is not None], iterations=iterations)


class _StateChecker:
    """Mid-run assertions enabled by the --check-invariants flag."""

    def __init__(self, state: PrepareState, lcp):
        self.state = state
        self.lcp = lcp
        self.done_positions: dict[int, int] = {}
        self.prev_area: list[int] | None = None
        self.prev_next_id = state.next_area_id
        self.base_start = state.start
        self.range_sum = 0

    def check(self, iteration: int) -> None:
        st = self.state
        m = len(st.sa)
        self.range_sum += st.range_
        assert st.start == self.base_start + self.range_sum, "start drifted from range sum"
        live = 0
        for k in range(m):
            if st.area[k] == DONE:
                if k not in self.done_positions:
                    self.done_positions[k] = st.sa[k]
            else:
                live += 1
                assert st.isa[st.pos_map[k]] == k, f"isa/pos_map broken at slot {k}"
        assert live == st.active_count, "active_count out of sync"
        for k, pos in self.done_positions.items():
            assert st.sa[k] == pos, f"done slot {k} moved"
        seen: set[int] = set()
        k = 0
        while k < m:
            aid = st.area[k]
            if aid == DONE:
                k += 1
                continue
            assert aid not in seen, f"area {aid} not contiguous"
            seen.add(aid)
            end = k
            while end + 1 < m and st.area[end + 1] == aid:
                end += 1
            for t in range(k, end + 1):
                assert st.buf[t] == st.buf[k], "unequal buffers share an area"
            if self.prev_area is not None and aid >= self.prev_next_id:
                parents = {self.prev_area[t] for t in range(k, end + 1)}
                assert len(parents) == 1, "area split straddles old areas"
            k = end + 1
        self.prev_area = list(st.area)
        self.prev_next_id = st.next_area_id


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
    rows: list[tuple[int, int, SubtreeRecord]] = []
    arrays_out: list[tuple[int, int, SubtreeArrays]] | None = None if out_dir else []
    for vt_index, vtree in assigned:
        occurrences = locate_occurrences(text, vtree, reader, stats.timers)
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
