"""PGCube baseline: one-pass GROUP BY CUBE evaluation (§4.1–4.2, §6).

The paper's best-effort baseline is PostgreSQL 12's GROUP BY CUBE — a
one-pass grouping-sets evaluation over the relational encoding of the
facts (each fact joined with its dimension and measure values, hence
*duplicated* once per combination of multi-valued dimension values).
Here it is MVDCube's cube kernel (``mvdcube.cube_query``) without the
per-fact dedupe: the same one-pass projection into every grouping set.

Two variants as in Section 6:
* ``PGCube*``  — counts with ``count(*)`` over the exploded rows;
* ``PGCube^d`` — counts with ``count(distinct cf)``, PostgreSQL's best
  effort, which fixes counts but not ``sum``/``avg`` (Variations 1–2).

Errors arise exactly as Lemma 1 predicts: when a grouping set projects
away a multi-valued dimension, the duplicated fact rows are aggregated
multiple times. Each lattice is evaluated by its own statement (the
paper: "PGCube evaluates each lattice in a separate query"), so shared
nodes may get different (differently wrong) results per lattice —
Experiment 3 records the per-group maximum error.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.mvdcube import CubeNode, cube_query, split_mdas, translate
from repro.core.preagg import PreAggregatedMeasures
from repro.core.query import Query


@dataclass
class PGCubeEvaluator:
    """Evaluates one lattice per statement; no cross-lattice reuse."""

    cfs_name: str
    union: DataFrame  # attribute union (a, s, o)
    preagg: PreAggregatedMeasures
    cfs_df: DataFrame
    distinct_count: bool = False  # False => PGCube*, True => PGCube^d

    def evaluate(
        self, spec: LatticeSpec, *, root: Query | None = None
    ) -> dict[MDAKey, pd.DataFrame]:
        """One cube statement over the exploded fact relation, split per
        grouping set (lattice node)."""
        if root is None:
            root = translate(self.cfs_df, self.union, spec.dims, "l0_")
        nodes = [
            CubeNode(i, {j: spec.dims[j] for j in pos}, spec.pairs)
            for i, pos in enumerate(spec.nodes())
        ]
        query = cube_query(
            [(root, len(spec.dims), nodes, False)],
            self.preagg,
            distinct_count=self.distinct_count,
        )
        return split_mdas(query.run().toPandas(), nodes, self.cfs_name, self.preagg)
