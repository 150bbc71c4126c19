"""Maximal Frequent Sets of attributes (Section 3, Step 3b; [25]).

Transactions are the per-CF sets of eligible dimension attributes.
Because the attribute universe is small (tens) and distinct attribute
sets are few, the *weighted* distinct transactions (set, count) are
projected from the attribute-set patterns that online attribute
analysis already collected, and mined level-wise in Python
(Apriori with a maximality filter), bounded at ``max_size`` items —
the paper's "each lattice has at most N attributes" filter.
"""
from __future__ import annotations

from itertools import combinations


def frequent_itemsets(
    transactions: list[tuple[frozenset[str], int]],
    min_support: int,
    max_size: int,
) -> dict[frozenset[str], int]:
    """All itemsets with support >= min_support and size <= max_size."""
    if min_support <= 0:
        min_support = 1
    # Level 1.
    item_counts: dict[str, int] = {}
    for items, w in transactions:
        for it in items:
            item_counts[it] = item_counts.get(it, 0) + w
    frequent: dict[frozenset[str], int] = {
        frozenset([it]): c for it, c in item_counts.items() if c >= min_support
    }
    level = [s for s in frequent]
    size = 1
    while level and size < max_size:
        size += 1
        # Candidate generation: union of pairs from the previous level,
        # keeping only candidates all of whose (size-1)-subsets are
        # frequent (Apriori pruning).
        prev = set(level)
        candidates: set[frozenset[str]] = set()
        for a, b in combinations(level, 2):
            c = a | b
            if len(c) == size and all(
                frozenset(sub) in prev for sub in combinations(c, size - 1)
            ):
                candidates.add(c)
        counts: dict[frozenset[str], int] = {c: 0 for c in candidates}
        for items, w in transactions:
            for c in candidates:
                if c <= items:
                    counts[c] += w
        level = [c for c, n in counts.items() if n >= min_support]
        for c in level:
            frequent[c] = counts[c]
    return frequent


def maximal_frequent_sets(
    transactions: list[tuple[frozenset[str], int]],
    min_support: int,
    max_size: int,
) -> list[frozenset[str]]:
    """Frequent itemsets (size <= max_size) with no frequent superset
    in the collection, ordered by decreasing size then support."""
    freq = frequent_itemsets(transactions, min_support, max_size)
    maximal = [
        s
        for s in freq
        if not any(s < other for other in freq)
    ]
    return sorted(maximal, key=lambda s: (-len(s), -freq[s], tuple(sorted(s))))
