"""PGCube baseline: one-pass GROUP BY CUBE evaluation (§4.1–4.2, §6).

The paper's best-effort baseline is PostgreSQL 12's GROUP BY CUBE — a
one-pass grouping-sets evaluation over the relational encoding of the
facts (each fact joined with its dimension and measure values, hence
*duplicated* once per combination of multi-valued dimension values).
Here it is MVDCube's cube kernel (``mvdcube.cube_query``) without the
per-fact dedupe: the same one-pass projection into every grouping set,
over the same inputs (``spade.cube_inputs``: the lattice's Data
Translation root and the request's pre-aggregated measures).

Two variants as in Section 6:
* ``PGCube*``  — counts with ``count(*)`` over the exploded rows;
* ``PGCube^d`` — counts with ``count(distinct cf)``, PostgreSQL's best
  effort, which fixes counts but not ``sum``/``avg`` (Variations 1–2).

Errors arise exactly as Lemma 1 predicts: when a grouping set projects
away a multi-valued dimension, the duplicated fact rows are aggregated
multiple times. Each lattice is evaluated by its own statement (the
paper: "PGCube evaluates each lattice in a separate query"; MVDCube
fuses a request's lattices), so shared nodes may get different
(differently wrong) results per lattice — Experiment 3 records the
per-group maximum error.
"""
from __future__ import annotations

import pandas as pd

from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.mvdcube import CubeNode, cube_query, split_mdas
from repro.core.preagg import PreAggregatedMeasures
from repro.core.query import Query


def evaluate(
    spec: LatticeSpec,
    root: Query,
    preagg: PreAggregatedMeasures | None,
    *,
    distinct_count: bool,
) -> dict[MDAKey, pd.DataFrame]:
    """One cube statement over the lattice's exploded fact relation
    ``root``, split per grouping set (lattice node). ``distinct_count``
    selects PGCube^d, else PGCube*."""
    nodes = [
        CubeNode(spec.cfs_name, i, {j: spec.dims[j] for j in pos}, spec.pairs)
        for i, pos in enumerate(spec.nodes())
    ]
    query = cube_query(
        [(root, len(spec.dims), nodes, False)], preagg, distinct_count=distinct_count
    )
    return split_mdas(query.run().toPandas(), nodes, preagg)
