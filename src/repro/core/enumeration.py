"""Aggregate Enumeration (Section 3, Step 3).

From the analyzed attributes of a CFS we (a) pick eligible dimensions
and measures by the paper's rules, (b) mine the Maximal Frequent Sets
of dimension attributes to obtain one lattice per set (from the
attribute-set patterns that online attribute analysis collected, so
this step runs no Spark job), and (c) assign
each lattice a measure set. Rule-based pruning removes meaningless
candidates (derived-from conflicts, too-many-distinct dimensions).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.core.attributes import AnalyzedAttribute
from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.mfs import maximal_frequent_sets


@dataclass(frozen=True)
class LatticeSpec:
    """One lattice: a dimension set with its measures and functions.

    ``dims`` are ordered by decreasing distinct count (positional order
    is what the evaluators use for cell addressing); ``funcs`` maps
    each measure to its aggregate functions. count(*) is implicit in
    every lattice (measure ``*``, function ``count``).
    """

    cfs_name: str
    dims: tuple[str, ...]
    measures: tuple[str, ...]
    funcs: dict[str, tuple[str, ...]]

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """The (measure, func) pairs of every node: count(*) first."""
        return [(COUNT_STAR, "count")] + [
            (m, f) for m in self.measures for f in self.funcs[m]
        ]

    def nodes(self) -> list[tuple[int, ...]]:
        """All 2^N nodes as ascending dimension positions: the root
        first, then by decreasing size, so every node comes after its
        parents (the nodes with one more dimension)."""
        n = len(self.dims)
        return [pos for size in range(n, -1, -1) for pos in combinations(range(n), size)]

    def mda_keys(self) -> list[tuple[frozenset[str], str, str]]:
        """All (dim-name set, measure, func) triples of the lattice."""
        return [
            (frozenset(self.dims[i] for i in pos), m, f)
            for pos in self.nodes()
            for m, f in self.pairs
        ]


def eligible_dimensions(
    attrs: list[AnalyzedAttribute], n_facts: int, config: SpadeConfig
) -> list[AnalyzedAttribute]:
    """Rule (a): frequent, and not too many distinct values."""
    min_support = config.min_support_frac * n_facts
    max_distinct = min(
        config.max_dim_distinct, int(config.max_dim_distinct_frac * n_facts)
    )
    return [
        a
        for a in attrs
        if a.stats.support >= min_support and 2 <= a.stats.n_distinct <= max_distinct
    ]


def eligible_measures(
    attrs: list[AnalyzedAttribute], n_facts: int, config: SpadeConfig
) -> list[AnalyzedAttribute]:
    """Measures must be frequent and numeric."""
    min_support = config.min_support_frac * n_facts
    return [
        a
        for a in attrs
        if a.stats.support >= min_support and a.stats.is_numeric
    ]


def dimension_transactions(
    patterns: list[tuple[frozenset[str], int]],
    dim_attrs: list[AnalyzedAttribute],
) -> list[tuple[frozenset[str], int]]:
    """Weighted distinct per-CF dimension-attribute sets (the MFS
    transactions), from the CFS's attribute-set patterns computed by
    online attribute analysis. Restricting each CF's attribute set to
    the dimensions commutes with grouping the CFs by that set, so
    projecting the weighted patterns is exact; CFs with none of the
    dimensions make no transaction."""
    dims = {a.name for a in dim_attrs}
    out: dict[frozenset[str], int] = {}
    for attrs, n in patterns:
        if t := attrs & dims:
            out[t] = out.get(t, 0) + n
    return list(out.items())


def _resolve_conflicts(
    dims: frozenset[str], by_name: dict[str, AnalyzedAttribute]
) -> frozenset[str]:
    """Drop derived-from conflicts inside one dimension set, keeping the
    better-supported attribute of each conflicting pair."""
    kept = sorted(dims, key=lambda n: (-by_name[n].stats.support, n))
    out: list[str] = []
    for name in kept:
        if not any(by_name[name].attribute.conflicts_with(by_name[o].attribute) for o in out):
            out.append(name)
    return frozenset(out)


def enumerate_lattices(
    cfs_name: str,
    n_facts: int,
    attrs: list[AnalyzedAttribute],
    patterns: list[tuple[frozenset[str], int]],
    config: SpadeConfig,
) -> list[LatticeSpec]:
    """Steps 3a-3c: eligible attributes -> MFS -> lattices + measures.

    ``patterns`` are the CFS's weighted attribute sets from
    ``analyze_attributes``; enumeration runs no Spark job."""
    by_name = {a.name: a for a in attrs}
    dims = eligible_dimensions(attrs, n_facts, config)
    measures = eligible_measures(attrs, n_facts, config)
    if not dims:
        return []
    transactions = dimension_transactions(patterns, dims)
    min_sup = max(1, int(config.mfs_min_support_frac * n_facts))
    dim_sets = maximal_frequent_sets(transactions, min_sup, config.max_lattice_dims)
    specs: list[LatticeSpec] = []
    seen: set[frozenset[str]] = set()
    for raw in dim_sets:
        dset = _resolve_conflicts(raw, by_name)
        if not dset or dset in seen:
            continue
        seen.add(dset)
        # Position order: decreasing distinct count (stable by name).
        ordered = tuple(
            sorted(dset, key=lambda n: (-by_name[n].stats.n_distinct, n))
        )
        lattice_measures = [
            m
            for m in measures
            if m.name not in dset
            and not any(
                m.attribute.conflicts_with(by_name[d].attribute) for d in dset
            )
        ]
        lattice_measures.sort(key=lambda m: (-m.stats.support, m.name))
        if config.max_measures_per_lattice is not None:
            lattice_measures = lattice_measures[: config.max_measures_per_lattice]
        specs.append(
            LatticeSpec(
                cfs_name=cfs_name,
                dims=ordered,
                measures=tuple(m.name for m in lattice_measures),
                funcs={m.name: tuple(config.funcs) for m in lattice_measures},
            )
        )
    specs.sort(key=lambda s: (-len(s.dims), s.dims))
    if config.max_lattices_per_cfs is not None:
        specs = specs[: config.max_lattices_per_cfs]
    return specs


def count_distinct_mdas(specs: list[LatticeSpec]) -> int:
    """Distinct MDAs across lattices (shared nodes counted once) — the
    #A columns of Table 2."""
    seen: set[tuple[str, frozenset[str], str, str]] = set()
    for spec in specs:
        for node, m, f in spec.mda_keys():
            seen.add((spec.cfs_name, node, m, f))
    return len(seen)
