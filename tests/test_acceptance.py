"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 8 (structural tree invariants) runs inside criterion 1's corpus,
per its definition; its test reports the tally collected there.
"""

import itertools
import math
import random
from dataclasses import dataclass

import pytest

from era_st.errors import SkewedInputError
from era_st.horizontal import run_horizontal
from era_st.oracle import naive_pair_lcp, naive_search, naive_suffix_array
from era_st.pipeline import (
    build_index,
    index_digest,
    index_height,
    leaf_totals,
    open_index,
    verify_index,
)
from era_st.text import BuildConfig, Text, from_str, generate_random_text
from era_st.tree import (
    SuffixSubtree,
    build_subtree,
    deserialize_subtree,
    iter_index_leaves,
    subtree_to_bytes,
)
from era_st.vertical import (
    PrefixEntry,
    build_top_trie,
    pack_virtual_trees,
    partition_prefixes,
)
from helpers import child_nodes


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE C{criterion:02d} PASS - {message}")


def cfg(m, b, **kw):
    return BuildConfig(memory_budget_m=m, block_size_b=b, **kw)


# --------------------------------------------------------------------------
# shared structural checks (criteria 1 and 8)
# --------------------------------------------------------------------------


def check_tree_invariants(tree: SuffixSubtree, text: Text, frequency: int) -> None:
    pos, depth, end = tree.pos.tolist(), tree.depth.tolist(), tree.end.tolist()
    leaves = [i for i in range(len(end)) if end[i] == i + 1]
    assert len(leaves) == frequency, "leaf count != prefix frequency"
    assert len(pos) <= 2 * frequency, "node count above the 2f budget"
    for i in range(len(pos)):
        if end[i] == i + 1:
            continue
        children = child_nodes(end, i)
        assert end[children[-1]] == end[i], "children do not cover the subtree"
        if i != 0:
            assert len(children) >= 2, "internal node below degree 2"
        assert all(depth[c] > depth[i] for c in children), "child not below its parent"
        symbols = [text.data[pos[c] + depth[i] - 1] for c in children]
        assert symbols == sorted(symbols) and len(set(symbols)) == len(symbols), (
            "children not strictly ordered"
        )
    assert deserialize_subtree(subtree_to_bytes(tree), text.n) == tree, "round-trip drift"


def adjacent_branch_depths(tree: SuffixSubtree) -> list[int]:
    """Depth of the branch point between consecutive leaves, from structure."""
    depth, end = tree.depth.tolist(), tree.end.tolist()
    depths: list[int] = []

    def walk(i: int) -> None:
        for k, child in enumerate(child_nodes(end, i)):
            if k > 0:
                depths.append(depth[i])
            walk(child)

    walk(0)
    return depths


@dataclass
class CorpusTally:
    texts: int = 0
    subtrees: int = 0
    leaves_checked: int = 0


def check_one_text(text: Text, config: BuildConfig, tally: CorpusTally) -> None:
    """Full in-memory pipeline vs the brute-force reference."""
    part = partition_prefixes(text, config)
    vtrees = pack_virtual_trees(part.entries, config)
    horizontal = run_horizontal(text, vtrees, config)
    frequencies = {e.prefix: e.frequency for e in part.entries}
    trees = {}
    for arrays, tree in zip(horizontal.subtrees, build_subtree(horizontal.subtrees, text)):
        trees[arrays.prefix] = tree
        check_tree_invariants(tree, text, frequencies[arrays.prefix])
        for k in range(1, len(arrays.sa)):
            want = naive_pair_lcp(text, arrays.sa[k - 1], arrays.sa[k])
            assert arrays.lcp[k - 1][2] == want, "lcp depth diverges from oracle"
        tally.subtrees += 1
    trie = build_top_trie(
        part.entries, [d.prefix for d in part.direct_leaves], sigma=text.sigma
    )
    got = list(iter_index_leaves(trie, lambda leaf: trees[leaf.prefix], text.n))
    assert got == naive_suffix_array(text), "leaf sequence diverges from oracle"
    assert leaf_totals(horizontal.records, part.direct_leaves) == text.n
    tally.texts += 1
    tally.leaves_checked += len(got)


@pytest.fixture(scope="module")
def corpus_tally(tmp_path_factory):
    tally = CorpusTally()
    config = cfg(2, 1)

    # every text of length <= 10 over sigma in {2, 3}
    for sigma in (2, 3):
        for body_len in range(0, 10):
            for body in itertools.product(range(1, sigma + 1), repeat=body_len):
                check_one_text(Text(bytes(body) + b"\x00", sigma), config, tally)

    # 500 random texts through the full on-disk pipeline
    rng = random.Random(1234)
    root = tmp_path_factory.mktemp("corpus")
    for k in range(500):
        n = rng.randint(64, 4096)
        sigma = rng.choice([2, 4, 16])
        text = generate_random_text(n, sigma, rng.randrange(2**31))
        config_k = cfg(32, 2, workers_p=1)
        d = root / f"idx{k}"
        result = build_index(text, config_k, d)
        index = open_index(d)
        assert list(index.iter_leaf_positions()) == naive_suffix_array(text)
        freq = {e.prefix: e.frequency for e in result.partition.entries}
        for leaf in index.trie.iter_leaves():
            if leaf.is_direct:
                continue
            tree = index.load_subtree(leaf)
            check_tree_invariants(tree, index.text, freq[leaf.prefix])
            leaves = tree.leaf_positions()
            depths = adjacent_branch_depths(tree)
            for i in range(1, len(leaves)):
                assert depths[i - 1] == naive_pair_lcp(text, leaves[i - 1], leaves[i])
            tally.subtrees += 1
        tally.texts += 1
        tally.leaves_checked += text.n
        for f in d.iterdir():
            f.unlink()
        d.rmdir()
    return tally


def test_c01_oracle_equivalence(corpus_tally):
    assert corpus_tally.texts == 30547 + 500
    report(
        1,
        f"{corpus_tally.texts} texts ({corpus_tally.leaves_checked} suffixes) match "
        f"the brute-force suffix array and pairwise LCPs exactly",
    )


def test_c08_tree_structural_invariants(corpus_tally):
    assert corpus_tally.subtrees > 30000
    report(
        8,
        f"{corpus_tally.subtrees} subtrees passed degree/order/leaf-count/node-budget "
        f"and serialization round-trip checks",
    )


# --------------------------------------------------------------------------


def test_c02_scan_count_law():
    checked = 0
    for n in (2**18, 2**20, 2**22):
        for sigma in (2, 4, 16):
            for ratio in (2**6, 2**10):
                text = generate_random_text(n, sigma, seed=97)
                part = partition_prefixes(text, cfg(ratio, 1))
                expected = math.ceil(math.log(n / ratio, sigma))
                assert abs(part.stats.full_scans - expected) <= 1, (
                    n, sigma, ratio, part.stats.full_scans, expected,
                )
                assert part.stats.full_scans == part.iterations
                checked += 1
    report(2, f"{checked} grid points within +/-1 of ceil(log_sigma(N*B/M))")


def test_c03_ffd_packing_safety():
    from helpers import optimal_bin_count

    rng = random.Random(42)
    near_optimal_checked = 0
    for case in range(10**4):
        capacity = rng.randint(8, 64)
        size = rng.randint(1, 12) if case < 600 else rng.randint(1, 40)
        freqs = [rng.randint(1, capacity) for _ in range(size)]
        entries = [
            PrefixEntry(bytes([1 + (i % 250), i // 250]), f) for i, f in enumerate(freqs)
        ]
        bins = pack_virtual_trees(entries, cfg(capacity, 1))
        assert all(b.load <= capacity for b in bins)
        packed = sorted(e.frequency for b in bins for e in b.members)
        assert packed == sorted(freqs)
        if size <= 12:
            opt = optimal_bin_count(freqs, capacity)
            assert len(bins) <= 2 * opt, (freqs, capacity, len(bins), opt)
            near_optimal_checked += 1
    report(
        3,
        f"10000 packings safe and multiset-preserving; {near_optimal_checked} "
        f"small instances within 2x the exhaustive optimum",
    )


def test_c04_horizontal_iteration_bound():
    n, sigma = 2**20, 4
    config = cfg(2**18, 64)
    m_work = config.work_buffer_m
    ok = total = 0
    for seed in range(20):
        text = generate_random_text(n, sigma, seed)
        part = partition_prefixes(text, config)
        vtrees = pack_virtual_trees(part.entries, config)
        horizontal = run_horizontal(text, vtrees, config)
        for rec in horizontal.records:
            if rec.occurrences < 2:
                continue
            rng_len = min(m_work, max(config.block_size_b, m_work // rec.occurrences))
            bound = math.ceil(math.log(rec.occurrences, sigma) / rng_len) + 1
            total += 1
            if rec.iterations <= bound:
                ok += 1
    assert total > 0
    assert ok / total >= 0.95, f"{ok}/{total}"
    report(4, f"{ok}/{total} subtrees within ceil(log_sigma(n)/range)+1 over 20 seeds")


def test_c05_sigma_monotonicity():
    n = 2**24
    reads = {}
    for sigma in (2, 16, 64):
        text = generate_random_text(n, sigma, seed=5)
        part = partition_prefixes(text, cfg(2**10, 1))
        reads[sigma] = part.stats.blocks_read
    assert reads[2] > reads[16] > reads[64], reads
    report(
        5,
        f"vertical blocks_read strictly decreases with sigma at N=2^24: "
        f"{reads[2]} > {reads[16]} > {reads[64]}",
    )


def test_c06_determinism_under_parallelism(tmp_path):
    rng = random.Random(7)
    inputs = [
        (generate_random_text(2**13, rng.choice([2, 4, 16]), rng.randrange(2**31)), i)
        for i in range(5)
    ]
    for text, i in inputs:
        digests = set()
        for p in (1, 2, 4, 8):
            d = tmp_path / f"in{i}_p{p}"
            build_index(text, cfg(64, 2, workers_p=p), d)
            digests.add(index_digest(d))
        assert len(digests) == 1, f"input {i}: {digests}"
    report(6, "index digests identical for p in {1,2,4,8} on 5 random inputs")


def test_c07_skew_failure_mode(tmp_path):
    body = generate_random_text(2**13 + 1, 4, seed=11).data[:-1]
    single = Text(body + b"\x00", 4)
    doubled = Text(body + body + b"\x00", 4)
    config = cfg(4096, 16, workers_p=1)

    result = build_index(single, config, tmp_path / "single")
    assert verify_index(tmp_path / "single", single).ok
    cap = config.prefix_len_cap(doubled)
    with pytest.raises(SkewedInputError) as exc:
        build_index(doubled, config, tmp_path / "doubled")
    assert exc.value.phase == "horizontal"
    assert len(exc.value.prefix) > cap
    report(
        7,
        f"doubled text raised SkewedInputError (shared prefix {len(exc.value.prefix)} "
        f"> guard {cap}); single copy built and verified clean",
    )


def test_c09_query_equivalence(tmp_path):
    def naive_longest(data: bytes, pat: bytes) -> int:
        best = 0
        if not pat:
            return 0
        first = pat[0]
        for i in range(len(data)):
            if data[i] != first:
                continue
            k = 1
            while k < len(pat) and i + k < len(data) and data[i + k] == pat[k]:
                k += 1
            if k > best:
                best = k
                if best == len(pat):
                    break
        return best

    texts = [
        from_str("banana$"),
        from_str("mississippi$"),
        from_str("abracadabra$"),
        from_str("aaaaabaaaab$"),
        from_str("abcabcabcabcx$"),
    ]
    rng = random.Random(99)
    for k in range(5):
        texts.append(
            generate_random_text(rng.randint(512, 4096), rng.choice([2, 4, 16]), k)
        )

    patterns_checked = 0
    for t_i, text in enumerate(texts):
        d = tmp_path / f"q{t_i}"
        build_index(text, cfg(32, 2), d)
        index = open_index(d)
        data = text.data
        for _ in range(1000):
            style = rng.randrange(3)
            if style == 0 and text.n > 1:
                i = rng.randrange(0, text.n - 1)
                pat = data[i : i + rng.randint(1, 10)]
            elif style == 1:
                pat = bytes(
                    rng.randint(1, text.sigma) for _ in range(rng.randint(1, 7))
                )
            else:
                i = max(0, text.n - rng.randint(1, 5))
                pat = data[i:] + bytes(
                    rng.randint(1, text.sigma) for _ in range(rng.randint(1, 3))
                )
            want = naive_search(text, pat)
            assert index.exists(pat) == bool(want)
            assert index.locate(pat) == want
            length, witness = index.longest_prefix(pat)
            assert length == naive_longest(data, pat)
            if length:
                assert data[witness - 1 : witness - 1 + length] == pat[:length]
            else:
                assert witness is None
            patterns_checked += 1
    report(9, f"{patterns_checked} probes match naive exists/locate/longest-prefix")


def test_c10_expected_height_band():
    n, sigma = 2**16, 4
    config = cfg(2**14, 16)
    heights = []
    for seed in range(20):
        text = generate_random_text(n, sigma, seed)
        part = partition_prefixes(text, config)
        vtrees = pack_virtual_trees(part.entries, config)
        horizontal = run_horizontal(text, vtrees, config)
        heights.append(index_height(horizontal.records, part.direct_leaves))
    mean = sum(heights) / len(heights)
    lo, hi = math.log(n, sigma), 3 * math.log(n, sigma)
    assert lo <= mean <= hi, (mean, heights)
    report(
        10,
        f"mean max leaf depth {mean:.1f} over 20 seeds within [{lo:.0f}, {hi:.0f}]",
    )
