import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from era_st.blockio import PHASE_SERIALIZE, PHASE_VERTICAL, total_counters
from era_st.cli import main
from era_st.errors import IndexCorruptError, SkewedInputError
from era_st.oracle import naive_search, naive_suffix_array
from era_st.pipeline import (
    build_index,
    index_digest,
    index_height,
    leaf_totals,
    open_index,
    text_digest,
    verify_index,
)
from era_st.text import BuildConfig, Text, from_str, generate_random_text


def cfg(m, b, **kw):
    return BuildConfig(memory_budget_m=m, block_size_b=b, **kw)


@pytest.fixture(scope="module")
def banana_index(tmp_path_factory):
    t = from_str("banana$")
    d = tmp_path_factory.mktemp("banana")
    build_index(t, cfg(16, 2), d)
    return t, d, open_index(d)


@pytest.fixture(scope="module")
def mississippi_index(tmp_path_factory):
    t = from_str("mississippi$")
    d = tmp_path_factory.mktemp("mississippi")
    build_index(t, cfg(8, 1), d)
    return t, d, open_index(d)


class TestBuildArtifacts:
    def test_directory_contents(self, banana_index):
        _, d, _ = banana_index
        names = sorted(p.name for p in d.iterdir())
        assert "manifest.txt" in names
        assert "trie.bin" in names
        assert "text.bin" in names
        assert "stats.csv" in names
        assert any(n.startswith("st_") for n in names)

    def test_manifest_round_trip(self, banana_index):
        from era_st.manifest import read_manifest

        t, d, _ = banana_index
        m = read_manifest(d)
        assert (m.n, m.sigma, m.m, m.b, m.p) == (7, 3, 16, 2, 1)
        assert m.text_digest == text_digest(t)
        assert m.vtree_count >= 1
        assert m.alphabet_map == t.byte_map

    def test_rebuild_is_byte_identical(self, tmp_path):
        t = generate_random_text(300, 4, 8)
        config = cfg(16, 2)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        build_index(t, config, d1)
        build_index(t, config, d2)
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_rebuild_into_used_directory_matches_fresh(self, tmp_path):
        t = generate_random_text(4000, 4, 8)
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        build_index(t, cfg(2**10, 16), used)
        build_index(t, cfg(2**14, 16), used)
        build_index(t, cfg(2**14, 16), fresh)
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in used.iterdir()) == names
        assert index_digest(used) == index_digest(fresh)

    def test_leaf_totals_cover_every_suffix(self, tmp_path):
        t = generate_random_text(500, 4, 2)
        result = build_index(t, cfg(16, 2), tmp_path / "idx")
        assert leaf_totals(result.records, result.partition.direct_leaves) == t.n

    def test_stats_phases_present(self, tmp_path):
        t = generate_random_text(128, 2, 0)
        result = build_index(t, cfg(8, 2, workers_p=2), tmp_path / "idx")
        phases = {s.phase_tag for s in result.stats}
        assert phases == {"vertical", "horizontal", "serialize"}
        workers = {s.worker_id for s in result.stats if s.phase_tag == "horizontal"}
        assert workers == {0, 1}

    def test_trie_write_charged_to_vertical(self, tmp_path):
        t = generate_random_text(64, 2, 1)
        result = build_index(t, cfg(8, 2), tmp_path / "idx")
        vertical = [s for s in result.stats if s.phase_tag == PHASE_VERTICAL]
        assert total_counters(vertical)["blocks_written"] >= 1

    def test_subtree_writes_charged_to_serialize(self, tmp_path):
        t = generate_random_text(64, 2, 1)
        result = build_index(t, cfg(8, 2), tmp_path / "idx")
        serialize = [s for s in result.stats if s.phase_tag == PHASE_SERIALIZE]
        assert total_counters(serialize)["blocks_written"] >= 1

    def test_skew_return_mode_keeps_partial_stats(self, tmp_path):
        t = Text(b"\x01" * 400 + b"\x00", 2)
        result = build_index(t, cfg(4, 1, max_prefix_len=8), tmp_path / "idx", on_skew="return")
        assert isinstance(result.skewed, SkewedInputError)
        assert result.stats[0].full_scans > 0

    def test_skew_raise_mode(self, tmp_path):
        t = Text(b"\x01" * 400 + b"\x00", 2)
        with pytest.raises(SkewedInputError):
            build_index(t, cfg(4, 1, max_prefix_len=8), tmp_path / "idx")


class TestLeafSequence:
    def test_banana_inorder_equals_oracle(self, banana_index):
        t, _, idx = banana_index
        assert list(idx.iter_leaf_positions()) == naive_suffix_array(t) == [7, 6, 4, 2, 1, 5, 3]

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 400), sigma=st.sampled_from([2, 4, 16]))
    def test_random_inorder_equals_oracle(self, tmp_path_factory, seed, n, sigma):
        t = generate_random_text(n, sigma, seed)
        d = tmp_path_factory.mktemp("rnd")
        build_index(t, cfg(16, 2), d)
        assert list(open_index(d).iter_leaf_positions()) == naive_suffix_array(t)


class TestQueries:
    def test_exists_examples(self, banana_index):
        _, _, idx = banana_index
        assert idx.exists("nan") is True
        assert idx.exists("nab") is False
        assert idx.exists("") is True

    def test_locate_examples(self, banana_index):
        _, _, idx = banana_index
        assert idx.locate("ana") == [2, 4]
        assert idx.locate("x") == []

    def test_locate_mississippi(self, mississippi_index):
        _, _, idx = mississippi_index
        assert idx.locate("issi") == [2, 5]

    def test_longest_examples(self, banana_index):
        _, _, idx = banana_index
        assert idx.longest_prefix("nanas") == (4, 3)
        assert idx.longest_prefix("banana") == (6, 1)
        assert idx.longest_prefix("zzz") == (0, None)

    def test_empty_pattern(self, banana_index):
        t, _, idx = banana_index
        assert idx.locate("") == list(range(1, t.n + 1))
        assert idx.longest_prefix("") == (0, None)

    def test_delimiter_pattern_via_bytes(self, banana_index):
        t, _, idx = banana_index
        assert idx.locate(b"\x01\x00") == [6]  # "a$"
        assert idx.exists(b"\x00") is True

    def test_pattern_longer_than_text(self, banana_index):
        _, _, idx = banana_index
        assert idx.exists("banana$x") is False
        length, witness = idx.longest_prefix("banana$x")
        assert (length, witness) == (7, 1)

    def test_query_equivalence_random(self, tmp_path):
        t = generate_random_text(700, 4, 21)
        d = tmp_path / "idx"
        build_index(t, cfg(32, 2), d)
        idx = open_index(d)
        rng = random.Random(0)
        for _ in range(300):
            style = rng.randrange(3)
            if style == 0:
                i = rng.randrange(0, t.n - 1)
                pat = t.data[i : i + rng.randint(1, 9)]
            elif style == 1:
                pat = bytes(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            else:
                i = max(0, t.n - rng.randint(1, 4))
                pat = t.data[i:] + bytes(rng.randint(1, 4) for _ in range(2))
            want = naive_search(t, pat)
            assert idx.exists(pat) == bool(want)
            assert idx.locate(pat) == want
            length, witness = idx.longest_prefix(pat)
            want_len = 0
            for cut in range(len(pat), 0, -1):
                if naive_search(t, pat[:cut]):
                    want_len = cut
                    break
            assert length == want_len
            if length:
                assert t.data[witness - 1 : witness - 1 + length] == pat[:length]


class TestVerify:
    def test_fresh_build_verifies(self, banana_index):
        t, d, _ = banana_index
        outcome = verify_index(d, t)
        assert outcome.ok and outcome.exit_code == 0

    def test_digest_mismatch(self, banana_index, tmp_path):
        _, d, _ = banana_index
        other = from_str("bananas$")
        outcome = verify_index(d, other)
        assert outcome.exit_code == 4

    def test_truncated_subtree_detected(self, tmp_path):
        t = from_str("mississippi$")
        d = tmp_path / "idx"
        build_index(t, cfg(8, 1), d)
        victim = sorted(p for p in d.iterdir() if p.name.startswith("st_"))[0]
        victim.write_bytes(victim.read_bytes()[:-3])
        outcome = verify_index(d, t)
        assert outcome.exit_code == 1
        assert victim.name in outcome.detail

    def test_missing_subtree_file_raises_on_query(self, tmp_path):
        from era_st.errors import IndexCorruptError

        t = from_str("mississippi$")
        d = tmp_path / "idx"
        build_index(t, cfg(8, 1), d)
        idx = open_index(d)
        victim = sorted(p for p in d.iterdir() if p.name.startswith("st_"))[0]
        victim.unlink()
        with pytest.raises(IndexCorruptError):
            list(idx.iter_leaf_positions())

    def test_leaf_divergence_reported(self, tmp_path):
        t = from_str("banana$")
        d = tmp_path / "idx"
        build_index(t, cfg(16, 2), d)
        # swap two subtree files: structure intact, leaf order broken
        files = sorted(p for p in d.iterdir() if p.name.startswith("st_"))
        a, b = files[0].read_bytes(), files[1].read_bytes()
        files[0].write_bytes(b)
        files[1].write_bytes(a)
        outcome = verify_index(d, t)
        assert not outcome.ok


def subtree_holding(index, pattern: bytes):
    """The trie leaf whose subtree a walk for ``pattern`` loads."""
    return next(
        leaf for leaf in index.trie.iter_leaves()
        if not leaf.is_direct and pattern.startswith(leaf.prefix)
    )


def patch_u64(path, field: int, node: int, value: int) -> None:
    """Overwrite node's entry of the pos (field 0) or depth (field 1) array."""
    blob = bytearray(path.read_bytes())
    (plen,) = struct.unpack_from("<H", blob, 6)
    (count,) = struct.unpack_from("<Q", blob, 8 + plen)
    struct.pack_into("<Q", blob, 16 + plen + 8 * (field * count + node), value)
    path.write_bytes(bytes(blob))


class TestCorruptTextPayload:
    def build(self, tmp_path):
        t = from_str("mississippi$")
        d = tmp_path / "idx"
        build_index(t, cfg(8, 1), d)
        return t, d, bytearray((d / "text.bin").read_bytes())

    def test_altered_text_rejected(self, tmp_path, capsys):
        t, d, data = self.build(tmp_path)
        data[4], data[8] = data[8], data[4]  # "missps..." -> both symbols stay in the alphabet
        (d / "text.bin").write_bytes(bytes(data))
        assert main(["query", str(d), "locate", "ssi"]) == 1
        assert "text_digest" in capsys.readouterr().err
        with pytest.raises(IndexCorruptError):
            open_index(d)
        assert verify_index(d, t).exit_code == 1
        assert verify_index(d, from_str("mississippis$")).exit_code == 4

    def test_out_of_alphabet_symbol_rejected(self, tmp_path):
        t, d, data = self.build(tmp_path)
        at = data.index(t.byte_map[ord("s")])
        data[at] ^= 3
        assert data[at] > t.sigma
        (d / "text.bin").write_bytes(bytes(data))
        with pytest.raises(IndexCorruptError, match="outside alphabet"):
            open_index(d)
        outcome = verify_index(d, t)
        assert (outcome.ok, outcome.exit_code) == (False, 1)


class TestCorruptSubtreeFile:
    def built(self, tmp_path):
        t = from_str("mississippi$")
        d = tmp_path / "idx"
        build_index(t, cfg(8, 1), d)
        idx = open_index(d)
        pattern = idx.encode_pattern("ssi")
        return t, d, idx, pattern, d / subtree_holding(idx, pattern).file_name

    def test_out_of_range_position_rejected_everywhere(self, tmp_path, capsys):
        t, d, idx, pattern, victim = self.built(tmp_path)
        patch_u64(victim, 0, 1, t.n + 5)
        for query in (idx.exists, idx.locate, idx.longest_prefix):
            with pytest.raises(IndexCorruptError):
                query(pattern)
        with pytest.raises(IndexCorruptError):
            list(idx.iter_leaf_positions())
        outcome = verify_index(d, t)
        assert outcome.exit_code == 1 and victim.name in outcome.detail
        assert main(["query", str(d), "locate", "ssi"]) == 1
        assert "corrupt index" in capsys.readouterr().err

    def test_child_not_below_parent_rejected_by_walk(self, tmp_path):
        _, _, idx, pattern, victim = self.built(tmp_path)
        patch_u64(victim, 1, 1, 1)  # node 1 at the root's depth
        with pytest.raises(IndexCorruptError, match="not below its parent"):
            idx.exists(pattern)


@pytest.fixture(scope="module")
def fuzz_index(tmp_path_factory):
    t = generate_random_text(300, 3, 4)
    d = tmp_path_factory.mktemp("fuzz")
    build_index(t, cfg(64, 1), d)
    idx = open_index(d)
    victim = max(d.glob("st_*"), key=lambda p: p.stat().st_size)
    prefix = next(l.prefix for l in idx.trie.iter_leaves() if l.file_name == victim.name)
    starts = naive_search(t, prefix)
    patterns = [prefix, prefix + b"\x03\x03\x03"]
    patterns += [t.data[p - 1 : p - 1 + k] for p in starts[:8] for k in (len(prefix) + 1, 6, 40)]
    return d, victim, patterns


class TestCorruptionFuzz:
    @settings(max_examples=200)
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_damaged_subtree_answers_or_raises_corrupt(self, fuzz_index, flips, cut):
        d, victim, patterns = fuzz_index
        original = victim.read_bytes()
        blob = bytearray(original)
        for at, mask in flips:
            blob[at % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        victim.write_bytes(bytes(blob))
        try:
            idx = open_index(d)
            for pattern in patterns:
                for query in (idx.exists, idx.locate, idx.longest_prefix):
                    try:
                        query(pattern)
                    except IndexCorruptError:
                        pass
            try:
                list(idx.iter_leaf_positions())
            except IndexCorruptError:
                pass
        finally:
            victim.write_bytes(original)


class TestCorruptManifest:
    def test_non_utf8_manifest_rejected(self, tmp_path, capsys):
        t = from_str("mississippi$")
        d = tmp_path / "idx"
        build_index(t, cfg(8, 1), d)
        blob = bytearray((d / "manifest.txt").read_bytes())
        blob[4] ^= 0x80
        (d / "manifest.txt").write_bytes(bytes(blob))
        with pytest.raises(IndexCorruptError, match="not UTF-8"):
            open_index(d)
        assert main(["query", str(d), "exists", "ab"]) == 1
        assert "corrupt index" in capsys.readouterr().err
        outcome = verify_index(d, t)
        assert (outcome.ok, outcome.exit_code) == (False, 1)


def longest_match(data: bytes, pattern: bytes) -> int:
    return max((k for k in range(len(pattern) + 1) if pattern[:k] in data), default=0)


@pytest.fixture(scope="module")
def fuzz_payload(tmp_path_factory):
    """An intact index, its text and probe patterns for the trie and
    manifest fuzz."""
    t = generate_random_text(300, 3, 4)
    d = tmp_path_factory.mktemp("fuzz_payload")
    build_index(t, cfg(64, 1), d)
    rng = random.Random(5)
    patterns = [t.data[i : i + k] for i in rng.sample(range(t.n), 12) for k in (1, 3, 9)]
    patterns += [bytes(rng.randint(1, 3) for _ in range(rng.randint(1, 8))) for _ in range(12)]
    return t, d, patterns


class TestPayloadCorruptionFuzz:
    """A damaged trie.bin or manifest.txt gives the oracle's answers or
    IndexCorruptError, nothing else."""

    @pytest.mark.parametrize("victim", ["trie.bin", "manifest.txt"])
    @settings(max_examples=200)
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_damaged_file_answers_or_raises_corrupt(self, fuzz_payload, victim, flips, cut):
        t, d, patterns = fuzz_payload
        path = d / victim
        original = path.read_bytes()
        blob = bytearray(original)
        for at, mask in flips:
            blob[at % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        path.write_bytes(bytes(blob))
        try:
            idx = open_index(d)
            for pattern in patterns:
                want = naive_search(t, pattern)
                assert idx.locate(pattern) == want
                assert idx.exists(pattern) == bool(want)
                length, witness = idx.longest_prefix(pattern)
                assert length == longest_match(t.data, pattern)
                if length:
                    assert t.data[witness - 1 : witness - 1 + length] == pattern[:length]
            assert list(idx.iter_leaf_positions()) == naive_suffix_array(t)
        except IndexCorruptError:
            pass
        finally:
            path.write_bytes(original)


class TestDigestDeterminism:
    def test_digest_stable_across_worker_counts(self, tmp_path):
        t = generate_random_text(600, 4, 3)
        digests = set()
        for p in (1, 2, 4):
            d = tmp_path / f"p{p}"
            build_index(t, cfg(32, 2, workers_p=p), d)
            digests.add(index_digest(d))
        assert len(digests) == 1


class TestDegenerateTexts:
    def test_delimiter_only_index(self, tmp_path):
        t = Text(b"\x00", 2)
        result = build_index(t, cfg(4, 1, workers_p=4), tmp_path / "idx")
        assert (result.entry_count, result.direct_count, result.vtree_count) == (0, 1, 0)
        idx = open_index(tmp_path / "idx")
        assert list(idx.iter_leaf_positions()) == [1]
        assert idx.exists(b"\x00") is True
        assert idx.locate("") == [1]
        assert verify_index(tmp_path / "idx", t).ok

    def test_single_symbol_text(self, tmp_path):
        t = Text(b"\x01\x00", 2)
        build_index(t, cfg(2, 1), tmp_path / "idx")
        idx = open_index(tmp_path / "idx")
        assert list(idx.iter_leaf_positions()) == naive_suffix_array(t) == [2, 1]
        assert idx.longest_prefix(b"\x01\x00\x01") == (2, 1)


class TestHeight:
    def test_height_band_small(self, tmp_path):
        import math

        t = generate_random_text(4096, 4, 5)
        result = build_index(t, cfg(64, 2), tmp_path / "idx")
        h = index_height(result.records, result.partition.direct_leaves)
        log_n = math.log(t.n, t.sigma)
        assert log_n <= h <= 3 * log_n
