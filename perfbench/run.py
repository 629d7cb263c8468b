"""Seeded outside-in benchmark for era_st.

Run from the repository root:

    python3 perfbench/run.py --workload build_dna --seed 1 --seconds 10 --trace 0

The benchmark imports the package from ``src/`` and calls it as a user would
(``build_index``, ``open_index``, ``SuffixIndex.exists/locate/longest_prefix``,
``verify_index``).  Every input comes from ``generate_random_text`` and
``random.Random`` seeded by ``--seed``; the worker count comes from the
workload definition, never from the command line or ``ERA_ST_THREADS``.
Every build writes into a fresh, empty directory under ``.bench_build/``,
which is removed on exit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans attached by ``perfbench/spans.py``.  Human-readable lines
come first; the last line of stdout is one JSON object.  Every answer is
checked against a reference that shares no code with the index (a
``bytes.find`` loop), and repeated builds of one text must agree on the index
digest and every counter; the exit code is 1 when any check fails.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    n: int
    sigma: int
    m: int
    b: int
    scan_len: int  # short-pattern length with a few thousand occurrences
    p: int = 1


# M/B is twice the mean frequency of the length-k prefixes the partition
# settles on and half that of the length-(k-1) prefixes, so every subtree has
# about the same size; at M/B equal to a mean frequency, half of those
# prefixes would fit and half split, and median latency would jump between
# two subtree sizes from seed to seed.
WORKLOADS = {
    "build_dna": Workload(1 << 17, 4, 1 << 18, 256, scan_len=3),
    "build_wide": Workload(1 << 18, 64, 1 << 19, 256, scan_len=1),
}
# End-to-end builds run at p=1: a pool as wide as a small shared host measures
# its scheduler as much as the program.  The traced run also builds once,
# untraced, with a pool of POOL_P workers for horizontal.p_speedup.
POOL_P = 2

# text generation is the set-up; it is timed this many times before the
# rounds and again in every round, and the median is reported
SETUP_REPEATS = 3
MIN_ROUNDS = 3  # least number of rounds of build, queries, verify, queries
QUERY_S = 1.2  # query loop per round, in two halves around the verify step
VERIFY_S = 0.8  # verify_index repeats until the step has taken this long
POINT_QUERIES = 200  # lower bound on samples per point-query kind
QUERY_POOL = 400  # distinct point patterns the query loop cycles through
RANDOM_EVERY = 4  # one point pattern in four is drawn at random, the rest cut from the text
SCAN_POOL = 32
SCAN_EVERY = 5  # one scan after every 5th point pattern
WINDOW_S = 0.25  # queries_per_s is taken over windows of this much busy time
WARMUP_PATTERNS = 20
# verify_index runs a naive suffix sort and a Python window scan per probe,
# so the workloads verify small companion indexes of their sigma
COMPANION = dict(n=1 << 10, m=1 << 16, b=64, scan_len=1)
COMPANION_TEXTS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("build_p90_s", "s"),
    ("verify_p90_s", "s"),
    ("exists_p95_ms", "ms"),
    ("locate_p95_ms", "ms"),
    ("longest_p95_ms", "ms"),
    ("scan_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("index_bytes_per_sym", "B/sym"),
    ("blocks_read", "count"),
    ("peak_rss_mb", "MB"),
)
# medians, printed for the reader but not part of the JSON result: the
# share of fast spells on a shared host moves them far more than the upper
# percentiles above
INFO = (
    ("build_p50_s", "s"),
    ("verify_p50_s", "s"),
    ("exists_p50_ms", "ms"),
    ("locate_p50_ms", "ms"),
    ("longest_p50_ms", "ms"),
    ("scan_p50_ms", "ms"),
)

PER_LAYER = (
    ("vertical.count_s", "s"),
    ("vertical.rounds", "count"),
    ("vertical.pack_s", "s"),
    ("vertical.trie_s", "s"),
    ("vertical.full_scans", "count"),
    ("vertical.blocks_read", "count"),
    ("vertical.vtrees", "count"),
    ("vertical.subtrees", "count"),
    ("horizontal.prepare_s", "s"),
    ("horizontal.prepare_rounds", "count"),
    ("horizontal.range_reads", "count"),
    ("horizontal.locate_s", "s"),
    ("horizontal.full_scans", "count"),
    ("horizontal.blocks_read", "count"),
    ("horizontal.other_s", "s"),
    ("horizontal.load_imbalance", "ratio"),
    ("horizontal.p_speedup", "ratio"),
    ("tree.build_subtree_s", "s"),
    ("tree.serialize_s", "s"),
    ("tree.nodes", "count"),
    ("tree.bytes_written", "B"),
    ("tree.load_s", "s"),
    ("tree.loads_per_query", "count"),
    ("tree.bytes_decoded_per_query", "B"),
    ("tree.walk_s", "s"),
    ("tree.leaf_collect_s", "s"),
    ("pipeline.open_s", "s"),
    ("pipeline.verify_leafwalk_s", "s"),
    ("pipeline.verify_probe_s", "s"),
    ("oracle.suffix_array_s", "s"),
    ("oracle.search_s", "s"),
    ("oracle.search_calls", "count"),
    ("text.generate_s", "s"),
    ("trace.overhead_frac", "frac"),
)

QUERY_SPANS = ("query.exists", "query.locate", "query.longest", "query.scan")


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


# -- inputs and reference answers ----------------------------------------------


def make_patterns(data: bytes, sigma: int, seed: int, points: int, scans: int, scan_len: int):
    """Point patterns of length 8-24, three in four cut from the text and one
    drawn at random, and short patterns of length ``scan_len`` cut from the
    text.  Cut and random patterns take different paths through a subtree;
    with one kind in the majority, latency percentiles do not fall in the
    gap between the two."""
    rng = random.Random(seed * 1_000_003 + 17)
    n = len(data)
    point_patterns = []
    for i in range(points):
        length = rng.randint(8, 24)
        if i % RANDOM_EVERY:
            start = rng.randrange(0, n - 1 - length)
            point_patterns.append(data[start : start + length])
        else:
            point_patterns.append(bytes(rng.randint(1, sigma) for _ in range(length)))
    scan_patterns = []
    for _ in range(scans):
        start = rng.randrange(0, n - 1 - scan_len)
        scan_patterns.append(data[start : start + scan_len])
    return point_patterns, scan_patterns


def occurrences(data: bytes, pattern: bytes) -> list[int]:
    """1-based start of every occurrence, overlaps included."""
    hits = []
    i = data.find(pattern)
    while i != -1:
        hits.append(i + 1)
        i = data.find(pattern, i + 1)
    return hits


def longest_occurring_prefix(data: bytes, pattern: bytes) -> int:
    """Length of the longest prefix of ``pattern`` that occurs in ``data``;
    every prefix of an occurring string occurs, so binary search is exact."""
    lo, hi = 0, len(pattern)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if data.find(pattern[:mid]) != -1:
            lo = mid
        else:
            hi = mid - 1
    return lo


class Queries:
    """Seeded query patterns with their reference answers, computed before
    any timing."""

    def __init__(self, data: bytes, wl: Workload, seed: int, points: int, scans: int):
        self.data = data
        self.points, self.scans = make_patterns(data, wl.sigma, seed, points, scans, wl.scan_len)
        self.point_ref = [(occurrences(data, p), longest_occurring_prefix(data, p)) for p in self.points]
        self.scan_ref = [occurrences(data, p) for p in self.scans]


class QueryClient:
    """One closed-loop client: each call waits for the previous one."""

    def __init__(self, index, queries: Queries, tally: Tally, tracer=None):
        self.index = index
        self.q = queries
        self.tally = tally
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {"exists": [], "locate": [], "longest": [], "scan": []}
        self.window_rates: list[float] = []  # calls per second of busy time, per window
        self._window = [0, 0.0]  # calls and busy seconds of the open window
        self.next_point = 0
        self.next_scan = 0

    def _timed(self, kind: str, fn, pattern: bytes):
        span = self.tracer.span("query." + kind) if self.tracer else nullcontext()
        try:
            with span:
                t0 = perf_counter()
                got = fn(pattern)
                dt = perf_counter() - t0
        except Exception as exc:  # a failing query is counted, and the loop goes on
            self.tally.check(False, f"{kind} {pattern.hex()}: {exc!r}")
            return None
        self.samples[kind].append(dt)
        self._window[0] += 1
        self._window[1] += dt
        if self._window[1] >= WINDOW_S:
            self.window_rates.append(self._window[0] / self._window[1])
            self._window = [0, 0.0]
        return got

    def point(self, i: int) -> None:
        pattern = self.q.points[i]
        positions, longest = self.q.point_ref[i]
        tag = pattern.hex()
        got = self._timed("exists", self.index.exists, pattern)
        if got is not None:
            self.tally.check(got == bool(positions), f"exists {tag}")
        got = self._timed("locate", self.index.locate, pattern)
        if got is not None:
            self.tally.check(got == positions, f"locate {tag}")
        got = self._timed("longest", self.index.longest_prefix, pattern)
        if got is not None:
            length, witness = got
            if length:
                ok = witness is not None and self.q.data[witness - 1 : witness - 1 + length] == pattern[:length]
            else:
                ok = witness is None
            self.tally.check(length == longest and ok, f"longest {tag}")

    def scan(self, i: int) -> None:
        pattern = self.q.scans[i]
        got = self._timed("scan", self.index.locate, pattern)
        if got is not None:
            self.tally.check(got == self.q.scan_ref[i], f"scan {pattern.hex()}")

    def run(self, seconds: float, min_points: int) -> None:
        """Continue through the pools where the last call stopped, one scan
        after every SCAN_EVERY-th point pattern, until ``seconds`` have
        passed and at least ``min_points`` point patterns have run."""
        t_end = perf_counter() + seconds
        self._window = [0, 0.0]  # a window never spans two query loops
        done = 0
        while done < min_points or perf_counter() < t_end:
            self.point(self.next_point % len(self.q.points))
            self.next_point += 1
            done += 1
            if self.next_point % SCAN_EVERY == 0:
                self.scan(self.next_scan % len(self.q.scans))
                self.next_scan += 1


# -- builds ---------------------------------------------------------------------


@dataclass
class Build:
    path: Path
    p: int
    wall_s: float
    horizontal_s: float
    digest: str
    counters: dict
    rows: list
    payload_bytes: int


def _counters(result) -> dict:
    from era_st.blockio import PHASES, total_counters

    out = {}
    for phase in PHASES:
        for key, value in total_counters(s for s in result.stats if s.phase_tag == phase).items():
            out[f"{phase}.{key}"] = value
    out["blocks_read"] = sum(s.blocks_read for s in result.stats)
    out["vertical.rounds"] = result.partition.iterations
    out["vertical.vtrees"] = result.vtree_count
    out["vertical.subtrees"] = result.entry_count
    out["vertical.direct_leaves"] = result.direct_count
    out["horizontal.prepare_rounds"] = sum(r.iterations for r in result.records)
    out["tree.nodes"] = sum(r.node_count for r in result.records)
    out["tree.bytes_written"] = sum(r.bytes_written for r in result.records)
    return out


def build(text, wl: Workload, p: int, seed: int, work: Path, tally: Tally, first: Build | None = None):
    """Build into a fresh directory; one operation for the tally.

    It fails if ``build_index`` raises, if stats.csv differs from the
    returned counters, if a subtree file is missing or extra, if the manifest
    records another p, or if digest, payload size or counters differ from
    ``first``, an earlier build of the same text (per-worker rows are only
    compared at equal p).  Returns None on failure.
    """
    from era_st import pipeline
    from era_st.manifest import read_manifest
    from era_st.text import BuildConfig

    out = Path(tempfile.mkdtemp(prefix="index_", dir=work))
    config = BuildConfig(wl.m, wl.b, workers_p=p, rng_seed=seed)
    try:
        t0 = perf_counter()
        result = pipeline.build_index(text, config, out)
        wall = perf_counter() - t0
    except Exception as exc:  # a failing build is counted and reported
        tally.check(False, f"build p={p}: {exc!r}")
        return None
    rows = [{k: str(v) for k, v in s.as_row().items()} for s in result.stats]
    with open(out / pipeline.STATS_NAME, newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    subtree_files = [f for f in out.iterdir() if f.name.startswith("st_")]
    payload = sum(f.stat().st_size for f in subtree_files)
    payload += (out / pipeline.TRIE_NAME).stat().st_size + (out / pipeline.TEXT_NAME).stat().st_size
    b = Build(out, p, wall, result.wall_horizontal_s, pipeline.index_digest(out), _counters(result), rows, payload)
    problems = []
    if rows != csv_rows:
        problems.append("counters differ from stats.csv")
    if len(subtree_files) != result.entry_count:
        problems.append(f"{len(subtree_files)} subtree files for {result.entry_count} prefixes")
    if read_manifest(out).p != p:
        problems.append("manifest records another p")
    if first is not None:
        if b.digest != first.digest:
            problems.append(f"digest {b.digest[:12]} differs from the first build's {first.digest[:12]}")
        if b.payload_bytes != first.payload_bytes:
            problems.append("payload size differs from the first build")
        diff = sorted(k for k in first.counters if first.counters[k] != b.counters[k])
        if diff:
            problems.append(f"counters differ from the first build: {diff}")
        if b.p == first.p and b.rows != first.rows:
            problems.append("per-worker stats rows differ from the first build")
    if not tally.check(not problems, f"build p={p}: {'; '.join(problems)}"):
        return None
    return b


def verify(index_dir: Path, text, tally: Tally, tracer=None) -> float:
    from era_st import pipeline

    span = tracer.span("pipeline.verify") if tracer else nullcontext()
    t0 = perf_counter()
    with span:
        outcome = pipeline.verify_index(index_dir, text)
    dt = perf_counter() - t0
    tally.check(outcome.ok, f"verify: exit {outcome.exit_code}: {outcome.detail}")
    return dt


def companions(wl: Workload, seed: int, work: Path, tally: Tally):
    """Small indexes of the workload's sigma for the verify step, built from
    several texts so that no single text's probe mix sets ``verify_s``.
    Returns (index directory, text) pairs, or None if a build failed."""
    from era_st import text as text_mod

    small = Workload(sigma=wl.sigma, **COMPANION)
    targets = []
    for k in range(COMPANION_TEXTS):
        sub_seed = seed * COMPANION_TEXTS + k
        ctext = text_mod.generate_random_text(small.n, small.sigma, sub_seed)
        b = build(ctext, small, small.p, sub_seed, work, tally)
        if b is None:
            return None
        targets.append((b.path, ctext))
    return targets


# -- metrics --------------------------------------------------------------------


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def query_metrics(client: QueryClient) -> tuple[dict, dict]:
    s = client.samples
    metrics = {}
    for kind in ("exists", "locate", "longest"):
        metrics[f"{kind}_p50_ms"] = statistics.median(s[kind]) * 1000.0
        metrics[f"{kind}_p95_ms"] = nearest_rank(s[kind], 0.95) * 1000.0
    metrics["scan_p50_ms"] = statistics.median(s["scan"]) * 1000.0
    metrics["scan_p90_ms"] = nearest_rank(s["scan"], 0.90) * 1000.0
    metrics["queries_per_s"] = nearest_rank(client.window_rates, 0.10)
    counts = {k: len(v) for k, v in s.items()}
    counts["windows"] = len(client.window_rates)
    return metrics, counts


def run_plain(wl: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    from era_st import pipeline
    from era_st import text as text_mod

    setup_times = []

    def generate():
        t0 = perf_counter()
        text = text_mod.generate_random_text(wl.n, wl.sigma, seed)
        setup_times.append(perf_counter() - t0)
        return text

    text = generate()
    for _ in range(SETUP_REPEATS - 1):
        tally.check(generate().data == text.data, "text generation differs from the first")
    queries = Queries(text.data, wl, seed, QUERY_POOL, SCAN_POOL)
    warmup = Queries(text.data, wl, seed + 1, WARMUP_PATTERNS, 2)
    targets = companions(wl, seed, work, tally)
    if targets is None:
        return None
    # the reference answers are the benchmark's own state; frozen, they do not
    # lengthen the collector's pauses inside timed calls
    gc.collect()
    gc.freeze()

    # Each round builds once, runs half the query loop over the new index,
    # verifies, and runs the other half.  Every metric so gathers samples
    # across the whole run, and the slow and fast spells of a shared host
    # weigh on all of them alike.  A new round starts only if half of it
    # fits before the deadline, so a run lasts about ``seconds``.
    builds: list[Build] = []
    client = QueryClient(None, queries, tally)
    verify_times = []
    min_points = -(-POINT_QUERIES // (2 * MIN_ROUNDS))
    t_start = perf_counter()

    def another_round() -> bool:
        if len(builds) < MIN_ROUNDS:
            return True
        now = perf_counter()
        return now + (now - t_start) / len(builds) / 2 < t_start + seconds

    while another_round():
        gc.collect()
        for _ in range(SETUP_REPEATS):
            tally.check(generate().data == text.data, "text generation differs from the first")
        b = build(text, wl, wl.p, seed, work, tally, builds[0] if builds else None)
        if b is None:
            return None
        if builds:
            shutil.rmtree(builds[-1].path)
        builds.append(b)
        client.index = pipeline.open_index(b.path)
        if len(builds) == 1:
            QueryClient(client.index, warmup, Tally()).run(0, WARMUP_PATTERNS)
        gc.collect()
        client.run(QUERY_S / 2, min_points)
        gc.collect()
        step_end = perf_counter() + VERIFY_S
        while not verify_times or perf_counter() < step_end:
            verify_times.append(verify(*targets[len(verify_times) % len(targets)], tally))
        gc.collect()
        client.run(QUERY_S / 2, min_points)

    build_times = [b.wall_s for b in builds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "build_p90_s": nearest_rank(build_times, 0.90),
        "build_p50_s": statistics.median(build_times),
        "verify_p90_s": nearest_rank(verify_times, 0.90),
        "verify_p50_s": statistics.median(verify_times),
    }
    qm, counts = query_metrics(client)
    metrics.update(qm)
    metrics["index_bytes_per_sym"] = builds[-1].payload_bytes / wl.n
    metrics["blocks_read"] = builds[-1].counters["blocks_read"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes = {
        "setup_s": f"median of {len(setup_times)}",
        "build_p90_s": f"of {len(builds)} builds at p={wl.p}: {[round(t, 2) for t in build_times]}",
        "verify_p90_s": f"of {len(verify_times)} over {COMPANION_TEXTS} companion indexes of n={COMPANION['n']}",
        "scan_p90_ms": f"samples={counts['scan']}, length {wl.scan_len}",
        "scan_p50_ms": f"samples={counts['scan']}, length {wl.scan_len}",
        "queries_per_s": f"10th percentile over {counts['windows']} windows of {WINDOW_S} s, "
        f"ops={sum(counts[k] for k in client.samples)}, one closed-loop client",
    }
    for kind in ("exists", "locate", "longest"):
        notes[f"{kind}_p50_ms"] = notes[f"{kind}_p95_ms"] = f"samples={counts[kind]}"
    return metrics, notes


def run_traced(wl: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    from era_st import pipeline
    from era_st import text as text_mod

    import spans

    tracer = spans.Tracer()

    def traced(phase: str):
        tracer.phase = phase
        return spans.installed(tracer)

    with traced("setup"):
        text = text_mod.generate_random_text(wl.n, wl.sigma, seed)
    plain = build(text, wl, wl.p, seed, work, tally)
    if plain is None:
        return None
    pooled = build(text, wl, POOL_P, seed, work, tally, plain)
    if pooled is None:
        return None
    shutil.rmtree(pooled.path)
    with traced("build"):
        traced_build = build(text, wl, wl.p, seed, work, tally, plain)
    if traced_build is None:
        return None
    shutil.rmtree(plain.path)
    queries = Queries(text.data, wl, seed, POINT_QUERIES, SCAN_POOL)
    index = pipeline.open_index(traced_build.path)
    QueryClient(index, Queries(text.data, wl, seed + 1, WARMUP_PATTERNS, 2), Tally()).run(0, WARMUP_PATTERNS)
    client = QueryClient(index, queries, tally, tracer)
    with traced("query"):
        client.run(0, POINT_QUERIES)
    targets = companions(wl, seed, work, tally)
    if targets is None:
        return None
    with traced("verify"):
        verify(*targets[0], tally, tracer)

    c = traced_build.counters
    m = {}
    m["vertical.count_s"] = tracer.seconds("build", "vertical.count")
    m["vertical.rounds"] = c["vertical.rounds"]
    m["vertical.pack_s"] = tracer.seconds("build", "vertical.pack")
    m["vertical.trie_s"] = tracer.seconds("build", "vertical.trie")
    m["vertical.full_scans"] = c["vertical.full_scans"]
    m["vertical.blocks_read"] = c["vertical.blocks_read"]
    m["vertical.vtrees"] = c["vertical.vtrees"]
    m["vertical.subtrees"] = c["vertical.subtrees"]
    m["horizontal.prepare_s"] = tracer.seconds("build", "horizontal.prepare")
    m["horizontal.prepare_rounds"] = c["horizontal.prepare_rounds"]
    m["horizontal.range_reads"] = c["horizontal.range_reads"]
    m["horizontal.locate_s"] = tracer.seconds("build", "horizontal.locate")
    m["horizontal.full_scans"] = c["horizontal.full_scans"]
    m["horizontal.blocks_read"] = c["horizontal.blocks_read"]
    m["horizontal.other_s"] = tracer.self_seconds("build", "horizontal.run")
    loads = [sum(vt.load for vt in tracer.vtrees[w::POOL_P]) for w in range(POOL_P)]
    m["horizontal.load_imbalance"] = max(loads) / (sum(loads) / POOL_P)
    m["horizontal.p_speedup"] = traced_build.horizontal_s / pooled.horizontal_s
    m["tree.build_subtree_s"] = tracer.seconds("build", "tree.build_subtree")
    m["tree.serialize_s"] = tracer.seconds("build", "tree.serialize")
    m["tree.nodes"] = c["tree.nodes"]
    m["tree.bytes_written"] = c["tree.bytes_written"]
    nq = sum(tracer.count("query", s) for s in QUERY_SPANS)
    m["tree.load_s"] = tracer.seconds("query", "tree.load")
    m["tree.loads_per_query"] = tracer.count("query", "tree.load") / nq
    m["tree.bytes_decoded_per_query"] = tracer.bytes_loaded["query"] / nq
    m["tree.walk_s"] = sum(tracer.self_seconds("query", s) for s in QUERY_SPANS)
    m["tree.leaf_collect_s"] = tracer.seconds("query", "tree.leaf_collect")
    opened = tracer.seconds("verify", "pipeline.open")
    leafwalk = tracer.seconds("verify", "pipeline.verify_leafwalk")
    suffix_array = tracer.seconds("verify", "oracle.suffix_array")
    m["pipeline.open_s"] = opened
    m["pipeline.verify_leafwalk_s"] = leafwalk
    m["pipeline.verify_probe_s"] = tracer.seconds("verify", "pipeline.verify") - opened - leafwalk - suffix_array
    m["oracle.suffix_array_s"] = suffix_array
    m["oracle.search_s"] = tracer.seconds("verify", "oracle.search")
    m["oracle.search_calls"] = tracer.count("verify", "oracle.search")
    m["text.generate_s"] = tracer.seconds("setup", "text.generate")
    m["trace.overhead_frac"] = traced_build.wall_s / plain.wall_s - 1.0
    notes = {
        "horizontal.p_speedup": f"traced p={wl.p} over untraced p={POOL_P} horizontal wall",
        "horizontal.load_imbalance": f"round-robin over p={POOL_P}",
        "tree.loads_per_query": f"queries={nq}",
        "trace.overhead_frac": "traced over untraced build wall, minus 1",
    }
    return m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "era_st" / "__init__.py").is_file():
        print(f"perfbench: no era_st package under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy

    wl = WORKLOADS[args.workload]
    print(
        f"env workload={args.workload} seed={args.seed} p={wl.p} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"start_method={multiprocessing.get_start_method()} "
        f"ERA_ST_THREADS={os.environ.get('ERA_ST_THREADS', '')!r} (ignored)"
    )
    tally = Tally()
    build_root = ROOT / ".bench_build"
    build_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench_", dir=build_root))
    try:
        runner = run_traced if args.trace else run_plain
        outcome = runner(wl, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        for note in tally.notes:
            print(f"FAILED {note}", file=sys.stderr)
        return 1
    values, notes = outcome
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for metric, unit in names:
        metrics[metric] = {"value": values[metric], "unit": unit}
        extra = f"  ({notes[metric]})" if metric in notes else ""
        print(f"metric {metric} = {values[metric]:.6g} {unit}{extra}")
    for metric, unit in () if args.trace else INFO:
        extra = f"  ({notes[metric]})" if metric in notes else ""
        print(f"info {metric} = {values[metric]:.6g} {unit}{extra}")
    print(f"metric ops_failed_frac = {tally.failed / max(1, tally.attempted):.6g} frac  "
          f"({tally.failed} of {tally.attempted} builds, queries and verifies)")
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    ok = tally.failed == 0
    print(json.dumps({"correct": ok, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
