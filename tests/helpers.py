"""Test-local reference implementations, kept independent of the package
internals so equivalence assertions mean something."""

from __future__ import annotations

import bisect
import itertools

from era_st.text import Text


def substring_count(data: bytes, pattern: bytes) -> int:
    """Occurrences at every start position, overlaps included."""
    l = len(pattern)
    return sum(1 for i in range(len(data) - l + 1) if data[i : i + l] == pattern)


def substring_positions(data: bytes, pattern: bytes) -> list[int]:
    l = len(pattern)
    return [i + 1 for i in range(len(data) - l + 1) if data[i : i + l] == pattern]


def sorted_suffix_positions(text: Text, positions) -> list[int]:
    """Sort occurrence positions by full lexicographic suffix comparison."""
    return sorted(positions, key=lambda p: text.data[p - 1 :])


def pair_lcp(text: Text, p: int, q: int) -> int:
    a = text.data[p - 1 :]
    b = text.data[q - 1 :]
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def brute_arrays(text: Text, prefix: bytes):
    """Expected (sa, lcp triples) for a prefix, straight from definitions."""
    positions = substring_positions(text.data, prefix)
    sa = sorted_suffix_positions(text, positions)
    lcp = []
    for i in range(1, len(sa)):
        d = pair_lcp(text, sa[i - 1], sa[i])
        lcp.append((text.data[sa[i - 1] - 1 + d], text.data[sa[i] - 1 + d], d))
    return sa, lcp


def reference_subtree(sa: list[int], depths: list[int], root_depth: int, n: int):
    """Preorder (pos, depth, end) of the lcp-interval tree of one prefix, by
    the textbook stack sweep over its branch depths."""
    m = len(sa)
    nodes = [(0, m - 1, root_depth)] if m > 1 else []  # (left, right, depth)
    stack = [(root_depth, 0)]  # open intervals: (depth, left)
    for k, d in enumerate(depths, 1):
        left = k - 1
        while d < stack[-1][0]:
            closed, left = stack.pop()
            nodes.append((left, k - 1, closed))
        if d > stack[-1][0]:
            stack.append((d, left))
    nodes += [(left, m - 1, d) for d, left in stack[1:]]
    nodes += [(k, k, n - sa[k] + 1) for k in range(m)]
    nodes.sort(key=lambda node: (node[0], node[2]))
    lefts = [node[0] for node in nodes]
    return (
        [sa[left] for left, _, _ in nodes],
        [d for _, _, d in nodes],
        [bisect.bisect_left(lefts, right + 1) for _, right, _ in nodes],
    )


def child_nodes(end: list[int], i: int) -> list[int]:
    """Children of preorder node i, given a subtree's ``end`` array."""
    out = []
    c = i + 1
    while c < end[i]:
        out.append(c)
        c = end[c]
    return out


def classic_first_fit_decreasing(weights: list[int], capacity: int) -> list[list[int]]:
    """Textbook FFD: sorted descending, each item into the first open bin that
    still has room."""
    bins: list[list[int]] = []
    sums: list[int] = []
    for w in sorted(weights, reverse=True):
        for i, s in enumerate(sums):
            if s + w <= capacity:
                bins[i].append(w)
                sums[i] += w
                break
        else:
            bins.append([w])
            sums.append(w)
    return bins


def optimal_bin_count(weights: list[int], capacity: int) -> int:
    """Exact minimum bin count by branch and bound; fine up to ~12 items."""
    items = sorted(weights, reverse=True)
    best = len(items) or 0

    def place(k: int, loads: list[int]):
        nonlocal best
        if len(loads) >= best:
            return
        if k == len(items):
            best = min(best, len(loads))
            return
        w = items[k]
        seen = set()
        for i in range(len(loads)):
            if loads[i] + w <= capacity and loads[i] not in seen:
                seen.add(loads[i])
                loads[i] += w
                place(k + 1, loads)
                loads[i] -= w
        loads.append(w)
        place(k + 1, loads)
        loads.pop()

    if items:
        place(0, [])
    else:
        best = 0
    return best


def all_texts(max_len: int, sigmas=(2, 3)):
    """Every delimiter-terminated text of total length <= max_len."""
    for sigma in sigmas:
        for body_len in range(0, max_len):
            for body in itertools.product(range(1, sigma + 1), repeat=body_len):
                yield Text(bytes(body) + b"\x00", sigma)
