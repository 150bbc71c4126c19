"""Lattice of multidimensional aggregates (Section 4).

A lattice over dimensions ``D`` has one node per subset of ``D``
(2^N nodes), keyed by frozensets of dimension positions. The paper's
ArrayCube evaluates it along a Minimum Memory Spanning Tree; the Spark
SQL kernel (``mvdcube.cube_query``) instead projects every root row
into every node in one pass, so no spanning tree is built (DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Lattice:
    """The full 2^N lattice; ``dim_names`` orders the dimensions
    (position i <-> name)."""

    dim_names: tuple[str, ...]

    def topological_order(self) -> list[frozenset[int]]:
        """Root first, then decreasing subset size: every node comes
        after its parents (the nodes with one more dimension)."""
        n = len(self.dim_names)
        return [
            frozenset(combo)
            for size in range(n, -1, -1)
            for combo in combinations(range(n), size)
        ]

    def names(self, dims: frozenset[int]) -> tuple[str, ...]:
        return tuple(self.dim_names[i] for i in sorted(dims))
