"""MVDCube: correct one-pass lattice evaluation for RDF MDAs (§4.3).

Spark substrate of the paper's array/bitmap algorithm (see DESIGN.md
for the mapping):

* ``translate``       — Data Translation: the root fact-cell frame
  ``(cf, d0..dN-1)``; multi-valued dimensions explode a fact into
  several cells, missing dimensions become null cells, facts with no
  dimension at all are dropped (as in the paper).
* bitmap propagation  — each child node's fact-cell frame is the
  *distinct* projection of its spanning-tree parent's frame: a fact in
  several parent cells is consolidated once per child cell (the
  bitmap OR of the paper), which is what makes results correct under
  multi-valued dimensions.
* measure computation — each node joins the shared per-CF
  pre-aggregated measures and computes *all* its (measure, function)
  aggregates in a single ``groupBy``; ``avg = sum(sum)/sum(cnt)`` and
  ``count(*) = count of (distinct-per-cell) facts`` implement the
  paper's Section 2 semantics exactly.
* one pass            — all node aggregates of a lattice are unioned
  into one plan and collected with a single action over the cached
  root (the paper's single scan).

Cross-lattice reuse: the evaluator memoizes results by ``MDAKey``, so
an MDA appearing in several lattices of a CFS is computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.attributes import Attribute
from repro.core.config import COUNT_STAR
from repro.core.enumeration import LatticeSpec
from repro.core.lattice import Lattice
from repro.core.mda import MDAKey
from repro.core.preagg import PreAggregatedMeasures

NODE_COL = "__node"
STAR_COL = "v_star"


def translate(cfs_df: DataFrame, dim_attrs: list[Attribute]) -> DataFrame:
    """Data Translation: the root fact-cell frame (cf, d0..dN-1).

    Left-joins the CFS with each dimension table (position i becomes
    column ``d{i}``), keeps facts with at least one dimension value,
    and dedupes — one row per (fact, cell).
    """
    root = cfs_df.select("cf")
    for i, attr in enumerate(dim_attrs):
        t = attr.df.select(F.col("s").alias("cf"), F.col("o").alias(f"d{i}"))
        root = root.join(t, "cf", "left")
    non_null = [F.col(f"d{i}").isNotNull() for i in range(len(dim_attrs))]
    root = root.filter(reduce(lambda a, b: a | b, non_null)).distinct()
    return root


def release_root(root: DataFrame) -> None:
    """Free the blocks of a ``localCheckpoint``-ed root frame.

    ``DataFrame.unpersist`` does not: it drops cached plans only, and a
    local checkpoint's RDD otherwise stays persisted until the
    ContextCleaner collects it after a JVM garbage collection. The
    frame is unusable afterwards.
    """
    root._jdf.queryExecution().analyzed().rdd().unpersist(False)


def _value_col(preagg: PreAggregatedMeasures, measure: str, func: str) -> Column:
    cols = preagg.columns_for(measure)
    if func == "count":
        return F.sum(cols["cnt"])
    if func == "sum":
        return F.sum(cols["sum"])
    if func == "min":
        return F.min(cols["min"])
    if func == "max":
        return F.max(cols["max"])
    if func == "avg":
        return F.sum(cols["sum"]) / F.sum(cols["cnt"])
    raise ValueError(func)


def value_col_name(preagg: PreAggregatedMeasures, measure: str, func: str) -> str:
    """Stable result-column name for one (measure, func) pair."""
    if measure == COUNT_STAR:
        return STAR_COL
    return f"v_{preagg.index_of(measure)}_{func}"


def extract_mda(
    node_pdf: pd.DataFrame,
    dims: tuple[str, ...],
    value_column: str,
    *,
    func: str,
) -> pd.DataFrame:
    """Reported result of one MDA from a node's raw frame: groups with
    a null dimension value or a null aggregate (no fact in the group
    carries the measure) are excluded — Section 2 semantics."""
    cols = list(dims) + [value_column]
    out = node_pdf[cols].copy()
    if dims:
        out = out.dropna(subset=list(dims))
    out = out.dropna(subset=[value_column])
    out = out.rename(columns={value_column: "value"})
    out["value"] = out["value"].astype(np.float64)
    return out.reset_index(drop=True)


@dataclass
class MVDCubeEvaluator:
    """Evaluates lattices of one CFS, memoizing results by MDAKey."""

    cfs_name: str
    attributes: dict[str, Attribute]  # name -> Attribute (dims)
    preagg: PreAggregatedMeasures
    cfs_df: DataFrame
    results: dict[MDAKey, pd.DataFrame] = field(default_factory=dict)
    nodes_evaluated: int = 0

    def _needed(self, spec: LatticeSpec, node_names: frozenset[str], skip: set[MDAKey]) -> list[tuple[str, str]]:
        """(measure, func) pairs still needed at a node: not memoized,
        not pruned by early-stop."""
        pairs = [(COUNT_STAR, "count")] + [
            (m, f) for m in spec.measures for f in spec.funcs[m]
        ]
        out = []
        for m, f in pairs:
            key = MDAKey(self.cfs_name, tuple(node_names), m, f)
            if key not in self.results and key not in skip:
                out.append((m, f))
        return out

    def evaluate(
        self,
        spec: LatticeSpec,
        *,
        root_df: DataFrame | None = None,
        skip: set[MDAKey] | None = None,
        dim_cardinalities: dict[str, int] | None = None,
    ) -> None:
        """Evaluate one lattice (see ``evaluate_many``)."""
        self.evaluate_many(
            [spec],
            root_dfs=[root_df] if root_df is not None else None,
            skip=skip,
            dim_cardinalities=dim_cardinalities,
        )

    def evaluate_many(
        self,
        specs: list[LatticeSpec],
        *,
        root_dfs: list[DataFrame] | None = None,
        skip: set[MDAKey] | None = None,
        dim_cardinalities: dict[str, int] | None = None,
        multi_valued_dims: set[str] | None = None,
    ) -> None:
        """Evaluate several lattices of the CFS in one Spark action.

        Physical plan (see DESIGN.md): for every lattice, each cached
        root row is projected into every lattice node (an Expand over
        the 2^N projections — masked dimensions become a literal null,
        the ``node_id`` column disambiguates masked from data nulls);
        the projections of *all* lattices are unioned (dim columns
        padded to the widest lattice), then one
        ``dropDuplicates([node, cell, cf])`` implements the bitmap OR
        (a fact living in several parent cells is consolidated once per
        child cell), one join loads the shared pre-aggregated measures
        for the whole batch (the paper's Measure Loading, amortized
        across lattices), and one shared ``groupBy(node, cell)``
        computes all (measure, function) pairs at once. Everything the
        CFS needs is a single shuffle pipeline collected by a single
        action — unlike PGCube, which runs one cube query per lattice
        and skips the per-fact dedup (hence its multi-valued errors).

        MDAs appearing in several lattices (or memoized from earlier
        calls) are planned once; ``skip`` holds early-stop-pruned keys.
        ``root_dfs`` may carry pre-translated roots (e.g. from
        early-stop sampling), aligned with ``specs``.

        ``multi_valued_dims`` enables the Theorem-1 refinement: a node
        can only receive duplicated facts when a *multi-valued*
        dimension is projected away, so branches that drop no MD
        dimension bypass the dedupe shuffle (None = treat every
        dimension as potentially multi-valued, always safe).
        """
        skip = skip or set()
        if not specs:
            return
        max_n = max(len(s.dims) for s in specs)
        dim_cols = [f"d{i}" for i in range(max_n)]
        own_roots = root_dfs is None
        if root_dfs is None:
            # coalesce + localCheckpoint: short lineage and few map
            # partitions for the 2^N expand branches (see DESIGN.md).
            root_dfs = [
                translate(self.cfs_df, [self.attributes[d] for d in s.dims])
                .coalesce(2)
                .localCheckpoint()
                for s in specs
            ]

        branches: list[DataFrame] = []  # project away >=1 MD dim: dedupe
        clean_branches: list[DataFrame] = []  # provably duplicate-free
        # (spec index, node positions) -> (measure, func) pairs to extract.
        node_pairs: dict[tuple[int, frozenset[int]], list[tuple[str, str]]] = {}
        planned: set[MDAKey] = set()
        lattices: list[Lattice] = []
        for si, (spec, root_df) in enumerate(zip(specs, root_dfs)):
            n = len(spec.dims)
            cards = tuple((dim_cardinalities or {}).get(d, 10) for d in spec.dims)
            lattice = Lattice(spec.dims, cards)
            lattices.append(lattice)
            for node in lattice.topological_order():
                names = frozenset(lattice.names(node))
                pairs = [
                    (m, f)
                    for m, f in self._needed(spec, names, skip)
                    if MDAKey(self.cfs_name, tuple(names), m, f) not in planned
                ]
                if not pairs:
                    continue
                node_pairs[(si, node)] = pairs
                planned |= {
                    MDAKey(self.cfs_name, tuple(names), m, f) for m, f in pairs
                }
                node_id = f"{si}:" + ",".join(str(i) for i in sorted(node))
                proj = [
                    (
                        F.col(f"d{i}")
                        if i < n and i in node
                        else F.lit(None).cast("string")
                    ).alias(f"d{i}")
                    for i in range(max_n)
                ]
                branch = root_df.select(*proj, "cf", F.lit(node_id).alias(NODE_COL))
                dropped = set(spec.dims) - names
                needs_dedupe = multi_valued_dims is None or bool(
                    dropped & multi_valued_dims
                )
                (branches if needs_dedupe else clean_branches).append(branch)
                self.nodes_evaluated += 1
        if not branches and not clean_branches:
            if own_roots:
                for r in root_dfs:
                    release_root(r)
            return

        parts: list[DataFrame] = []
        if branches:
            exploded = reduce(lambda a, b: a.unionByName(b), branches)
            # Bitmap OR: one row per (node, cell, fact).
            parts.append(exploded.dropDuplicates([NODE_COL, *dim_cols, "cf"]))
        if clean_branches:
            # Theorem 1: no multi-valued dim is projected away, hence
            # projections of the (distinct) root cannot duplicate a
            # fact within a cell — no dedupe shuffle needed.
            parts.append(reduce(lambda a, b: a.unionByName(b), clean_branches))
        all_cells = reduce(lambda a, b: a.unionByName(b), parts)
        joined = all_cells.join(self.preagg.df, "cf", "left")
        needed_pairs = sorted({p for ps in node_pairs.values() for p in ps})
        exprs = []
        for m, f in needed_pairs:
            name = value_col_name(self.preagg, m, f)
            if m == COUNT_STAR:
                exprs.append(F.count("cf").cast("double").alias(name))
            else:
                exprs.append(_value_col(self.preagg, m, f).cast("double").alias(name))
        agg = joined.groupBy(NODE_COL, *dim_cols).agg(*exprs)
        pdf = agg.toPandas()  # the single action: one pass for all lattices

        for (si, node), pairs in node_pairs.items():
            lattice = lattices[si]
            node_id = f"{si}:" + ",".join(str(i) for i in sorted(node))
            part = pdf[pdf[NODE_COL] == node_id]
            col_map = {f"d{i}": lattice.dim_names[i] for i in sorted(node)}
            part = part.rename(columns=col_map)
            names = tuple(sorted(lattice.names(node)))
            for m, f in pairs:
                vcol = value_col_name(self.preagg, m, f)
                key = MDAKey(self.cfs_name, names, m, f)
                self.results[key] = extract_mda(part, names, vcol, func=f)
        if own_roots:
            for r in root_dfs:
                release_root(r)
