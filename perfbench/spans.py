"""In-memory span recorder and the wrappers that attach it to era_st from
outside the package.

A span covers one call into a layer.  Spans nest: each records its duration
and the part of it covered by child spans, so a layer's self time is
``total - child``.  Totals are kept per (phase, span name), where the phase
("setup", "build", "query", "verify") is set by the benchmark before each
step.

``installed(tracer)`` swaps the public functions of ``vertical``,
``horizontal``, ``tree``, ``pipeline``, ``oracle`` and ``text`` for timed
wrappers and restores the originals on exit.  Wrappers are attached where the
callers look the names up at call time, at subtree granularity or coarser.
``BlockReader.read_range`` is deliberately left alone: it runs about a
million times per build, and the block counters already cover that layer.
Spans are only seen in the calling process, so traced builds run with p=1.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from era_st import horizontal, pipeline, text, tree, vertical


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.child: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.bytes_loaded: Counter = Counter()
        self.vtrees = None  # the packed virtual trees of the last traced build
        self._stack: list[list] = []  # open spans: [name, child seconds]

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            # a generator span closed late may not be on top of the stack
            depth = next(i for i in range(len(self._stack) - 1, -1, -1) if self._stack[i] is frame)
            del self._stack[depth]
            key = (self.phase, name)
            self.total[key] += dt
            self.child[key] += frame[1]
            self.calls[key] += 1
            if depth:
                self._stack[depth - 1][1] += dt

    def is_open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def timed_iter(self, name: str, iterator):
        """Generator that charges the whole consumption of ``iterator`` to
        one span; meant for consumers that drain it without interleaving."""
        with self.span(name):
            yield from iterator

    def seconds(self, phase: str, name: str) -> float:
        return self.total[(phase, name)]

    def self_seconds(self, phase: str, name: str) -> float:
        return self.total[(phase, name)] - self.child[(phase, name)]

    def count(self, phase: str, name: str) -> int:
        return self.calls[(phase, name)]


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Attach span wrappers to era_st for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(owner, attr: str, name: str) -> None:
        patch(owner, attr, _timed(tracer, name, getattr(owner, attr)))

    timed(text, "generate_random_text", "text.generate")
    # vertical: partition_prefixes looks count_frequencies up in its module;
    # build_index looks the rest up in the pipeline module
    timed(vertical, "count_frequencies", "vertical.count")
    timed(pipeline, "partition_prefixes", "vertical.partition")
    timed(pipeline, "build_top_trie", "vertical.trie")
    timed(vertical.TopTrie, "to_bytes", "vertical.trie")
    pack = pipeline.pack_virtual_trees

    @functools.wraps(pack)
    def pack_and_keep(*args, **kwargs):
        with tracer.span("vertical.pack"):
            tracer.vtrees = pack(*args, **kwargs)
        return tracer.vtrees

    patch(pipeline, "pack_virtual_trees", pack_and_keep)
    # horizontal: _process_vtrees looks these up in its module, and imports
    # the tree functions from the tree module on every call
    timed(pipeline, "run_horizontal", "horizontal.run")
    timed(horizontal, "locate_occurrences", "horizontal.locate")
    timed(horizontal, "subtree_prepare", "horizontal.prepare")
    timed(tree, "build_subtree", "tree.build_subtree")
    timed(tree, "serialize_subtree", "tree.serialize")
    # tree, query side
    load = tree.SuffixIndex.load_subtree

    @functools.wraps(load)
    def load_and_count(self, leaf):
        with tracer.span("tree.load"):
            subtree = load(self, leaf)
        tracer.bytes_loaded[tracer.phase] += os.path.getsize(self.root_dir / leaf.file_name)
        return subtree

    patch(tree.SuffixIndex, "load_subtree", load_and_count)
    iter_leaves = tree.SuffixSubtree.iter_leaves

    @functools.wraps(iter_leaves)
    def iter_leaves_timed(self, node_index):
        # iter_leaves recurses through the class attribute: only the
        # outermost call opens a span
        if tracer.is_open("tree.leaf_collect"):
            return iter_leaves(self, node_index)
        return tracer.timed_iter("tree.leaf_collect", iter_leaves(self, node_index))

    patch(tree.SuffixSubtree, "iter_leaves", iter_leaves_timed)
    # pipeline and oracle: verify_index looks these up in the pipeline module
    timed(pipeline, "open_index", "pipeline.open")
    leaf_walk = tree.SuffixIndex.iter_leaf_positions

    @functools.wraps(leaf_walk)
    def leaf_walk_timed(self):
        return tracer.timed_iter("pipeline.verify_leafwalk", leaf_walk(self))

    patch(tree.SuffixIndex, "iter_leaf_positions", leaf_walk_timed)
    timed(pipeline, "naive_suffix_array", "oracle.suffix_array")
    timed(pipeline, "naive_search", "oracle.search")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
