"""Two-phase external-memory suffix tree construction with transfer-count
instrumentation, brute-force verification, and a benchmark harness."""

from .blockio import BlockReader, IoStats, total_counters
from .errors import (
    AlphabetError,
    BuildError,
    CorruptArraysError,
    DelimiterError,
    EraStError,
    IndexCorruptError,
    InputError,
    RangeError,
    SkewedInputError,
)
from .horizontal import (
    HorizontalResult,
    SubtreeArrays,
    get_range_of_symbols,
    locate_occurrences,
    run_horizontal,
    subtree_prepare,
)
from .oracle import (
    longest_repeated_substring,
    naive_lcp,
    naive_pair_lcp,
    naive_search,
    naive_suffix_array,
)
from .pipeline import (
    BuildResult,
    build_index,
    index_digest,
    open_index,
    verify_index,
)
from .text import (
    BuildConfig,
    Text,
    encode_pattern,
    from_str,
    generate_random_text,
    load_text,
)
from .tree import (
    SuffixIndex,
    SuffixSubtree,
    build_subtree,
    deserialize_subtree,
    serialize_subtree,
)
from .vertical import (
    PartitionResult,
    PrefixEntry,
    TopTrie,
    VirtualTree,
    build_top_trie,
    count_frequencies,
    pack_virtual_trees,
    partition_prefixes,
)

__version__ = "0.1.0"
