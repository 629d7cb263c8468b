import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from era_st import horizontal
from era_st.blockio import PHASE_HORIZONTAL, BlockReader, IoStats
from era_st.errors import BuildError, SkewedInputError
from era_st.horizontal import (
    HorizontalTimers,
    SubtreeArrays,
    get_range_of_symbols,
    locate_occurrences,
    run_horizontal,
    subtree_prepare,
)
from era_st.text import BuildConfig, Text, from_str, generate_random_text
from era_st.vertical import (
    PrefixEntry,
    VirtualTree,
    pack_virtual_trees,
    partition_prefixes,
)
from helpers import brute_arrays, substring_positions


def cfg(m, b, **kw):
    return BuildConfig(memory_budget_m=m, block_size_b=b, **kw)


def reader(text, block=1, worker=0):
    return BlockReader(text, block, IoStats(PHASE_HORIZONTAL, worker))


def sym(text, s):
    return bytes(text.byte_map[ord(c)] for c in s)


def as_lists(occurrences):
    return {prefix: hits.tolist() for prefix, hits in occurrences.items()}


class TestGetRange:
    def test_floor_within_clamp(self):
        assert get_range_of_symbols(4, cfg(64, 4)) == 8

    def test_lower_clamp_at_block_size(self):
        assert get_range_of_symbols(32, cfg(64, 4)) == 4

    def test_upper_clamp_at_half_budget(self):
        assert get_range_of_symbols(1, cfg(64, 4)) == 32

    def test_requires_active_suffixes(self):
        with pytest.raises(ValueError):
            get_range_of_symbols(0, cfg(64, 4))


class TestLocate:
    def test_mississippi_single_member(self):
        t = from_str("mississippi$")
        vt = VirtualTree([PrefixEntry(sym(t, "i"), 4)])
        got = locate_occurrences(t, vt, reader(t))
        assert as_lists(got) == {sym(t, "i"): [2, 5, 8, 11]}

    def test_two_members(self):
        t = from_str("banana$")
        vt = VirtualTree([PrefixEntry(sym(t, "b"), 1), PrefixEntry(sym(t, "n"), 2)])
        got = locate_occurrences(t, vt, reader(t))
        assert as_lists(got) == {sym(t, "b"): [1], sym(t, "n"): [3, 5]}

    def test_absent_prefix_yields_empty(self):
        t = from_str("banana$", sigma=26)
        vt = VirtualTree([PrefixEntry(b"\x19\x19", 1)])
        assert as_lists(locate_occurrences(t, vt, reader(t))) == {b"\x19\x19": []}

    def test_one_scan_per_virtual_tree(self):
        t = generate_random_text(64, 4, 0)
        r = reader(t, block=8)
        vt = VirtualTree([PrefixEntry(b"\x01", 1)])
        locate_occurrences(t, vt, r)
        locate_occurrences(t, vt, r)
        assert r.stats.full_scans == 2
        assert r.stats.blocks_read == 16

    @pytest.mark.parametrize("length", [1, 9, 10, 11, 14])
    def test_long_prefixes_filtered_past_the_code_length(self, length):
        # sigma=64 codes hold 10 symbols; longer prefixes are filtered on the rest
        t = generate_random_text(3000, 64, 4)
        prefixes = {t.data[i : i + length] for i in (0, 7, 1500, t.n - length - 1)}
        prefixes.add(t.data[5 : 5 + length - 1] + bytes([t.data[5 + length - 1] % 64 + 1]))
        # runs past the text end for length > 2
        prefixes.add((t.data[t.n - 3 : t.n - 1] + b"\x01" * length)[:length])
        vt = VirtualTree([PrefixEntry(p, 1) for p in sorted(prefixes)])
        tables = {}
        for _ in range(2):  # the second pass reuses the cached tables
            got = locate_occurrences(t, vt, reader(t), tables=tables)
            assert as_lists(got) == {p: substring_positions(t.data, p) for p in prefixes}
        assert sorted(tables) == [min(length, 10)]

    def test_timer_attribution_by_tree_size(self):
        t = from_str("banana$")
        timers = HorizontalTimers()
        locate_occurrences(t, VirtualTree([PrefixEntry(sym(t, "b"), 1)]), reader(t), timers)
        assert timers.cnt1_s > 0 and timers.cnt_star_s == 0
        locate_occurrences(
            t,
            VirtualTree([PrefixEntry(sym(t, "b"), 1), PrefixEntry(sym(t, "n"), 2)]),
            reader(t),
            timers,
        )
        assert timers.cnt_star_s > 0


class TestSubtreePrepare:
    def test_mississippi_i(self):
        t = from_str("mississippi$")
        [arrays] = subtree_prepare(t, [sym(t, "i")], [[2, 5, 8, 11]], cfg(8, 1), reader(t))
        assert arrays.sa.tolist() == [11, 8, 5, 2]
        assert arrays.lcp[:, 2].tolist() == [1, 1, 4]
        i, p, s = t.byte_map[ord("i")], t.byte_map[ord("p")], t.byte_map[ord("s")]
        assert arrays.lcp.tolist() == [[0, p, 1], [p, s, 1], [p, s, 4]]

    def test_banana_a(self):
        t = from_str("banana$")
        [arrays] = subtree_prepare(t, [sym(t, "a")], [[2, 4, 6]], cfg(8, 1), reader(t))
        assert arrays.sa.tolist() == [6, 4, 2]
        assert arrays.lcp[:, 2].tolist() == [1, 3]

    def test_single_occurrence_runs_zero_iterations(self):
        t = from_str("banana$")
        [arrays] = subtree_prepare(t, [sym(t, "b")], [[1]], cfg(8, 1), reader(t))
        assert arrays.sa.tolist() == [1]
        assert arrays.lcp.shape == (0, 3)
        assert arrays.iterations == 0

    def test_empty_positions_rejected(self):
        t = from_str("banana$")
        with pytest.raises(ValueError):
            subtree_prepare(t, [sym(t, "b"), sym(t, "n")], [[1], []], cfg(8, 1), reader(t))

    def test_range_reads_charged_per_round(self):
        t = from_str("banana$")
        r = reader(t, block=1)
        [arrays] = subtree_prepare(t, [sym(t, "a")], [[2, 4, 6]], cfg(2, 1), r)
        assert arrays.iterations >= 2
        assert r.stats.range_reads > 0

    @settings(max_examples=80)
    @given(
        body=st.binary(min_size=1, max_size=48),
        sigma=st.integers(2, 4),
        plen=st.integers(1, 3),
        m=st.integers(2, 16),
    )
    def test_matches_brute_force(self, body, sigma, plen, m):
        text = Text(bytes(b % sigma + 1 for b in body) + b"\x00", sigma)
        prefix = text.data[:plen]
        if b"\x00" in prefix:
            prefix = prefix.replace(b"\x00", b"\x01")
        positions = substring_positions(text.data, prefix)
        if not positions:
            return
        config = cfg(m, 1)
        [got] = subtree_prepare(
            text, [prefix], [positions], config, reader(text), check_invariants=True
        )
        want_sa, want_lcp = brute_arrays(text, prefix)
        assert got.sa.tolist() == want_sa
        assert list(map(tuple, got.lcp.tolist())) == want_lcp

    def test_invariant_checks_clean_on_classics(self):
        for s in ("banana$", "mississippi$", "abracadabra$", "aabbaabb$"):
            t = from_str(s)
            for prefix_char in sorted(set(s) - {"$"}):
                prefix = sym(t, prefix_char)
                positions = substring_positions(t.data, prefix)
                subtree_prepare(t, [prefix], [positions], cfg(2, 1), reader(t), check_invariants=True)

    def test_depths_are_absolute_from_suffix_start(self):
        t = from_str("banana$")
        [arrays] = subtree_prepare(t, [sym(t, "an")], [[2, 4]], cfg(8, 1), reader(t))
        assert arrays.sa.tolist() == [4, 2]
        assert arrays.lcp.tolist() == [[0, sym(t, "n")[0], 3]]

    def test_skew_guard_fires_on_long_ties(self):
        body = generate_random_text(129, 4, 3).data[:-1]
        doubled = Text(body + body + b"\x00", 4)
        prefix = doubled.data[:1]
        positions = substring_positions(doubled.data, prefix)
        with pytest.raises(SkewedInputError) as exc:
            subtree_prepare(doubled, [prefix], [positions], cfg(8, 2, max_prefix_len=16), reader(doubled))
        assert exc.value.phase == "horizontal"
        assert len(exc.value.prefix) > 16
        assert exc.value.frequency >= 2
        # the payload of the round-by-round preparation loop
        assert (exc.value.prefix.hex(), exc.value.frequency) == (
            "0401010101010201020402040401030101",
            2,
        )

    def test_invariant_check_rejects_wrong_arrays(self):
        t = from_str("mississippi$")
        i, p, s = (t.byte_map[ord(c)] for c in "ips")
        good = SubtreeArrays(sym(t, "i"), [11, 8, 5, 2], [(0, p, 1), (p, s, 1), (p, s, 4)])
        horizontal._check_arrays(t, good, [2, 5, 8, 11])
        bad = [
            SubtreeArrays(good.prefix, [11, 8, 5, 5], good.lcp),
            SubtreeArrays(good.prefix, good.sa, good.lcp[:2]),
            SubtreeArrays(good.prefix, good.sa, [(0, p, 1), (p, s, 1), (p, s, 3)]),
            SubtreeArrays(good.prefix, good.sa, [(0, p, 1), (p, s, 1), (p, i, 4)]),
            SubtreeArrays(good.prefix, [8, 11, 5, 2], [(p, 0, 1), (p, s, 1), (p, s, 4)]),
        ]
        for arrays in bad:
            with pytest.raises(AssertionError):
                horizontal._check_arrays(t, arrays, [2, 5, 8, 11])


class TestPrepareBatch:
    """A virtual tree prepared in one call equals its members prepared one
    after the other on the same reader: arrays, rounds, counters, resident
    block and, on skew, the error."""

    @staticmethod
    def one_by_one(text, prefixes, positions, config, r):
        out = []
        for prefix, hits in zip(prefixes, positions):
            out += subtree_prepare(text, [prefix], [hits], config, r)
        return out

    @settings(max_examples=150)
    @given(
        body=st.binary(min_size=2, max_size=120),
        sigma=st.integers(2, 4),
        plen=st.integers(1, 3),
        pick=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True),
        m=st.sampled_from([4, 8, 16, 64]),
        b=st.sampled_from([1, 2]),
        doubled=st.booleans(),
    )
    def test_batch_equals_members_one_by_one(self, body, sigma, plen, pick, m, b, doubled):
        symbols = bytes(x % sigma + 1 for x in body)
        if doubled:
            symbols += symbols
        text = Text(symbols + b"\x00", sigma)
        windows = sorted({text.data[i : i + plen] for i in range(text.n - plen)})
        if not windows:
            return
        prefixes = [windows[i % len(windows)] for i in pick]
        prefixes = list(dict.fromkeys(prefixes))  # distinct, in picked order
        positions = [substring_positions(text.data, p) for p in prefixes]
        config = cfg(m, b, max_prefix_len=12)
        outcomes = []
        for prepare in (subtree_prepare, self.one_by_one):
            r = reader(text, block=b)
            r.charge_full_scan()
            try:
                got = prepare(text, prefixes, positions, config, r)
                result = [(a, a.iterations) for a in got]
            except SkewedInputError as exc:
                result = (exc.prefix, exc.frequency)
            outcomes.append((result, r.stats.counters(), r._resident))
        assert outcomes[0] == outcomes[1]

    def test_members_keep_their_order_and_rounds(self):
        t = from_str("mississippi$")
        prefixes = [sym(t, "s"), sym(t, "i"), sym(t, "p")]
        positions = [substring_positions(t.data, p) for p in prefixes]
        batch = subtree_prepare(t, prefixes, positions, cfg(4, 1), reader(t))
        assert [a.prefix for a in batch] == prefixes
        assert batch[1].sa.tolist() == [11, 8, 5, 2]
        assert [a.iterations for a in batch] == [
            a.iterations for p, q in zip(prefixes, positions)
            for a in subtree_prepare(t, [p], [q], cfg(4, 1), reader(t))
        ]

    def test_empty_batch(self):
        t = from_str("banana$")
        r = reader(t)
        assert subtree_prepare(t, [], [], cfg(8, 1), r) == []
        assert r.stats.counters() == IoStats(PHASE_HORIZONTAL, 0).counters()


class TestRunHorizontal:
    def build_inputs(self, n=512, sigma=4, seed=5, m=32, b=2, p=1):
        text = generate_random_text(n, sigma, seed)
        config = cfg(m, b, workers_p=p)
        part = partition_prefixes(text, config)
        vtrees = pack_virtual_trees(part.entries, config)
        return text, config, vtrees

    def test_output_independent_of_worker_count(self):
        text, config1, vtrees = self.build_inputs(p=1)
        res1 = run_horizontal(text, vtrees, config1)
        config4 = cfg(32, 2, workers_p=4)
        res4 = run_horizontal(text, vtrees, config4)
        key = lambda a: a.prefix
        assert sorted(res1.subtrees, key=key) == sorted(res4.subtrees, key=key)

    def test_every_member_processed_exactly_once(self):
        text, config, vtrees = self.build_inputs(p=2)
        res = run_horizontal(text, vtrees, config)
        expected = sorted(e.prefix for vt in vtrees for e in vt.members)
        assert sorted(r.prefix for r in res.records) == expected

    def test_three_vtrees_two_workers(self):
        t = from_str("banana$")
        config = cfg(2, 1, workers_p=2)
        vtrees = [
            VirtualTree([PrefixEntry(sym(t, "an"), 2)]),
            VirtualTree([PrefixEntry(sym(t, "n"), 2)]),
            VirtualTree([PrefixEntry(sym(t, "b"), 1)]),
        ]
        res = run_horizontal(t, vtrees, config)
        assert len(res.records) == 3
        assert sorted(r.prefix for r in res.records) == sorted(
            [sym(t, "an"), sym(t, "n"), sym(t, "b")]
        )

    def test_blocks_read_totals_conserved_across_p(self):
        from era_st.blockio import total_counters

        text, _, vtrees = self.build_inputs(n=1024, m=64, b=4)
        totals = {}
        for p in (1, 4):
            res = run_horizontal(text, vtrees, cfg(64, 4, workers_p=p))
            totals[p] = total_counters(s.io for s in res.worker_stats)["blocks_read"]
        assert totals[1] == totals[4]

    def test_worker_failure_names_the_prefix(self, monkeypatch):
        text, config, vtrees = self.build_inputs(p=1)
        import era_st.horizontal as hz

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(hz, "subtree_prepare", boom)
        with pytest.raises(BuildError) as exc:
            run_horizontal(text, vtrees, config)
        assert exc.value.prefix == vtrees[0].members[0].prefix

    def test_zero_occurrence_member_skipped(self):
        t = from_str("banana$", sigma=26)
        vtrees = [VirtualTree([PrefixEntry(b"\x19", 1)])]
        res = run_horizontal(t, vtrees, cfg(8, 1))
        assert res.records == []
        assert res.subtrees == []

    def test_iteration_counts_recorded(self):
        text, config, vtrees = self.build_inputs()
        res = run_horizontal(text, vtrees, config)
        assert all(r.iterations >= 1 for r in res.records if r.occurrences >= 2)

    def test_iteration_bound_on_uniform_text(self):
        import math

        text = generate_random_text(2**16, 4, 17)
        config = cfg(1024, 16)  # M/B = 64
        part = partition_prefixes(text, config)
        vtrees = pack_virtual_trees(part.entries, config)
        res = run_horizontal(text, vtrees, config)
        m_work = config.work_buffer_m
        for rec in res.records:
            if rec.occurrences < 2:
                continue
            rng = min(m_work, max(16, m_work // rec.occurrences))
            bound = math.ceil(math.log(rec.occurrences, 4) / rng) + 1
            assert rec.iterations <= bound

    def test_parallel_skew_surfaces_deterministically(self):
        body = generate_random_text(257, 4, 9).data[:-1]
        doubled = Text(body + body + b"\x00", 4)
        config = cfg(16, 2, workers_p=2, max_prefix_len=24)
        part = partition_prefixes(doubled, config)
        vtrees = pack_virtual_trees(part.entries, config)
        with pytest.raises(SkewedInputError):
            run_horizontal(doubled, vtrees, config)


class TestPinnedCounters:
    """stats.csv and per-subtree round counts of the round-by-round
    preparation loop, on a small build whose subtrees take up to two rounds."""

    STATS = {
        1: (
            "phase,worker,blocks_read,blocks_written,full_scans,range_reads\n"
            "vertical,0,5120,2978,5,0\n"
            "horizontal,0,274975,0,260,4228\n"
            "serialize,0,0,35496,0,0\n"
        ),
        2: (
            "phase,worker,blocks_read,blocks_written,full_scans,range_reads\n"
            "vertical,0,5120,2978,5,0\n"
            "horizontal,0,137513,0,130,2120\n"
            "serialize,0,0,17739,0,0\n"
            "horizontal,1,137462,0,130,2108\n"
            "serialize,1,0,17757,0,0\n"
        ),
    }
    ITERATIONS = (
        "1122111111112121122211112222221120101010102010102021112222112221121111"
        "2111111111111111211111212121111111212121111111112111112111111111111111"
        "1111211111212121111121111111112111211121211111111111112111211121111111"
        "2121111111211111112121211111111111112111112111111111111111111111111211"
        "1111111111111111121111121111111111111211111111111111111111111211111111"
        "1111111111111111111111111111111111111111111111111111111111111111111111"
        "1121111111111111111111111111111111111111111111111111111111111111111111"
        "1111111111111111111111111111111111111111111111111111111111111111111111"
    )

    @pytest.mark.parametrize("p", [1, 2])
    def test_stats_and_iterations_pinned(self, tmp_path, p):
        from era_st.pipeline import build_index

        text = generate_random_text(4096, 4, 1)
        result = build_index(text, cfg(64, 4, workers_p=p), tmp_path)
        assert (tmp_path / "stats.csv").read_text() == self.STATS[p]
        assert "".join(str(r.iterations) for r in result.records) == self.ITERATIONS


class TestPinnedVirtualTrees:
    """Whole-virtual-tree outputs of the member-by-member preparation loop."""

    def test_first_skewing_member_reported(self):
        # alone, the second member skews after 3 rounds and the first after
        # 6; the first member's error is the one raised
        body = generate_random_text(97, 4, 0).data[:-1]
        doubled = Text(body + body + b"\x00", 4)
        config = cfg(16, 2, max_prefix_len=12)
        second = PrefixEntry(b"\x04\x04\x02", 2)
        vtree = VirtualTree([PrefixEntry(b"\x01", 40), second])
        with pytest.raises(SkewedInputError) as exc:
            run_horizontal(doubled, [vtree], config)
        assert (exc.value.prefix.hex(), exc.value.frequency) == ("01010101020401020201040201", 2)
        with pytest.raises(SkewedInputError) as exc:
            run_horizontal(doubled, [VirtualTree([second])], config)
        assert (exc.value.prefix.hex(), exc.value.frequency) == ("040402030102010104020103010101", 2)

    def test_multi_member_multi_round_arrays(self):
        text = generate_random_text(48, 3, 7)
        vtrees = [
            VirtualTree(
                [
                    PrefixEntry(b"\x01", 1),
                    PrefixEntry(b"\x03\x02", 1),
                    PrefixEntry(b"\x02\x02", 1),
                    PrefixEntry(b"\x02\x01\x03\x03", 1),
                ]
            ),
            VirtualTree([PrefixEntry(b"\x03\x03", 1)]),
        ]
        res = run_horizontal(text, vtrees, cfg(8, 1))
        got = [
            (a.prefix.hex(), list(map(int, a.sa)), [list(map(int, t)) for t in a.lcp], a.iterations)
            for a in res.subtrees
        ]
        assert got == [
            (
                "01",
                [32, 33, 34, 40, 6, 35, 25, 41, 46, 30, 7, 19, 36, 26, 44, 42, 2, 11],
                [
                    [1, 2, 4], [1, 2, 3], [2, 3, 3], [1, 2, 2], [2, 3, 3], [1, 2, 6],
                    [2, 3, 2], [1, 2, 1], [0, 1, 2], [1, 2, 2], [1, 2, 4], [2, 3, 2],
                    [1, 2, 5], [2, 3, 1], [2, 3, 3], [1, 3, 2], [2, 3, 3],
                ],
                6,
            ),
            ("0302", [4, 16], [[1, 3, 2]], 1),
            ("0202", [9, 8, 20, 21, 22], [[1, 2, 2], [1, 2, 3], [2, 3, 3], [2, 3, 2]], 2),
            ("02010303", [1, 10], [[2, 3, 4]], 1),
            (
                "0303",
                [38, 28, 3, 15, 14, 13, 12],
                [[1, 2, 3], [1, 2, 2], [1, 3, 3], [2, 3, 2], [2, 3, 3], [2, 3, 4]],
                3,
            ),
        ]
        assert [(r.prefix.hex(), r.occurrences, r.iterations, r.max_lcp_depth) for r in res.records] == [
            ("01", 18, 6, 6), ("0302", 2, 1, 2), ("0202", 5, 2, 3), ("02010303", 2, 1, 4), ("0303", 7, 3, 4)
        ]
