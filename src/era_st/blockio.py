"""Block-granular access layer with per-phase, per-worker transfer counters.

Every read of the text is charged in units of whole blocks of B symbols so
the transfer-count claims of the construction algorithm become measurable.
The accounting model is deliberately minimal: each reader remembers only the
block it loaded last, and an access touching k blocks not currently resident
charges k transfers.  Cache eviction policies, latency, and bandwidth are out
of scope.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import RangeError
from .text import Text

PHASE_VERTICAL = "vertical"
PHASE_HORIZONTAL = "horizontal"
PHASE_SERIALIZE = "serialize"
PHASES = (PHASE_VERTICAL, PHASE_HORIZONTAL, PHASE_SERIALIZE)

STATS_CSV_FIELDS = ("phase", "worker", "blocks_read", "blocks_written", "full_scans", "range_reads")


@dataclass
class IoStats:
    """Monotone transfer counters for one phase of one worker."""

    phase_tag: str
    worker_id: int
    blocks_read: int = 0
    blocks_written: int = 0
    full_scans: int = 0
    range_reads: int = 0

    def __post_init__(self):
        if self.phase_tag not in PHASES:
            raise ValueError(f"unknown phase tag {self.phase_tag!r}")

    def add(self, other: "IoStats") -> None:
        self.blocks_read += other.blocks_read
        self.blocks_written += other.blocks_written
        self.full_scans += other.full_scans
        self.range_reads += other.range_reads

    def counters(self) -> dict[str, int]:
        return {
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "full_scans": self.full_scans,
            "range_reads": self.range_reads,
        }

    def as_row(self) -> dict[str, int | str]:
        row: dict[str, int | str] = {"phase": self.phase_tag, "worker": self.worker_id}
        row.update(self.counters())
        return row


def total_counters(stats: Iterable[IoStats]) -> dict[str, int]:
    """Sum counters over any collection of stats objects."""
    out = {"blocks_read": 0, "blocks_written": 0, "full_scans": 0, "range_reads": 0}
    for s in stats:
        for k, v in s.counters().items():
            out[k] += v
    return out


def blocks_spanned(nbytes: int, block_size: int) -> int:
    """Number of size-B blocks needed to hold nbytes (ceiling division)."""
    return -(-nbytes // block_size)


def charge_write(stats: IoStats, nbytes: int, block_size: int) -> None:
    stats.blocks_written += blocks_spanned(nbytes, block_size)


def stats_csv(stats: Iterable[IoStats]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=STATS_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for s in stats:
        writer.writerow(s.as_row())
    return buf.getvalue()


class BlockReader:
    """Charged access to one text on behalf of one worker.

    Not thread-safe; each worker owns a private reader and private stats,
    and aggregation happens after all workers finish.
    """

    def __init__(self, text: Text, block_size: int, stats: IoStats):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.text = text
        self.block_size = block_size
        self.stats = stats
        self.n = text.n
        self._data = text.data
        self._resident: int | None = None

    def charge_full_scan(self) -> None:
        """Account one sequential pass over the whole text.

        Repositioning to the text start drops the resident block, so the
        charge is exactly ceil(N/B) regardless of prior accesses.
        """
        self.stats.full_scans += 1
        nblocks = blocks_spanned(self.n, self.block_size)
        self.stats.blocks_read += nblocks
        self._resident = nblocks - 1

    def charge_ranges(self, starts, lengths) -> None:
        """Account one read at each 1-based start, of up to ``lengths``
        symbols: one length for every read, or one per read.

        The reads are charged in the given order, exactly as a sequence of
        ``read_range`` calls: a read spanning blocks b0..b1 costs b1-b0+1
        transfers, one fewer when b0 is the block the previous read (or the
        reader's earlier access) left resident.
        """
        starts = np.asarray(starts, dtype=np.int64)
        if len(starts) == 0:
            return
        n = self.n
        if starts.min() < 1 or starts.max() > n:
            bad = starts[(starts < 1) | (starts > n)][0]
            raise RangeError(f"range start {bad} outside 1..{n}")
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.min() < 1:
            raise RangeError(f"range length {lengths.min()} must be >= 1")
        block = self.block_size
        b0 = (starts - 1) // block
        b1 = (np.minimum(starts + (lengths - 1), n) - 1) // block
        reused = np.count_nonzero(b0[1:] == b1[:-1]) + (b0[0] == self._resident)
        stats = self.stats
        stats.blocks_read += int((b1 - b0).sum()) + len(starts) - int(reused)
        stats.range_reads += len(starts)
        self._resident = int(b1[-1])

    def read_range(self, start: int, length: int) -> bytes:
        """Read up to ``length`` symbols starting at 1-based ``start``.

        The result is truncated at the text end, never padded, and charged
        by ``charge_ranges``.
        """
        self.charge_ranges((start,), length)
        return self._data[start - 1 : start - 1 + length]
