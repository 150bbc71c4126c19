"""MVDCube: correct one-pass lattice evaluation for RDF MDAs (§4.3).

Spark SQL substrate of the paper's array/bitmap algorithm (see
DESIGN.md for the mapping). All lattices of a CFS are evaluated by one
parameterized ``spark.sql`` statement, collected by one action:

* ``translate``       — Data Translation: the root fact-cell relation
  ``(cf, d0..dN-1)`` of a lattice; multi-valued dimensions explode a
  fact into several cells, missing dimensions become null cells, facts
  with no dimension at all are dropped (as in the paper).
* one pass            — ``cube_query`` projects each root row into
  every lattice node with one ``inline(array(named_struct(...)))`` per
  lattice: masked dimensions become null, the ``node`` column tells
  them from data nulls.
* bitmap propagation  — a ``DISTINCT`` over (node, cell, cf): a fact in
  several parent cells is consolidated once per child cell (the bitmap
  OR of the paper), which makes results correct under multi-valued
  dimensions. By Theorem 1 only nodes that project away a multi-valued
  dimension can receive duplicates, so a lattice without such a node
  skips the ``DISTINCT`` (single-valued data is never deduplicated).
  A lattice with one dedupes all its nodes in the same pass: the rows
  stay partitioned by fact, so that is a local aggregate, where a
  second pass for the duplicate-free nodes would translate the root
  twice.
* measure computation — one left join with the per-CF pre-aggregated
  measures and one ``GROUP BY (node, cell)`` computing *all*
  (measure, function) pairs; ``avg = sum(sum)/sum(cnt)`` and
  ``count(*) = count of (distinct-per-cell) facts`` implement the
  paper's Section 2 semantics exactly.

``split_mdas`` cuts the collected rows into MDA results with numpy.
Cross-lattice reuse: the evaluator memoizes results by ``MDAKey``, so an
MDA appearing in several lattices of a CFS is computed once. PGCube is
the same kernel without the dedupe (``pgcube.py``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.config import COUNT_STAR
from repro.core.enumeration import LatticeSpec
from repro.core.lattice import Lattice
from repro.core.mda import MDAKey
from repro.core.preagg import PreAggregatedMeasures
from repro.core.query import Query, with_ctes

NODE_COL = "node"
STAR_COL = "v_star"


def translate(
    cfs_df: DataFrame, union: DataFrame, dims: tuple[str, ...], prefix: str
) -> Query:
    """Data Translation: the root fact-cell relation (cf, d0..dN-1).

    Left-joins the CFS with the attribute union ``(a, s, o)`` filtered
    to each dimension (position i becomes column ``d{i}``, its name the
    parameter ``:{prefix}{i}``), keeps facts with at least one dimension
    value, and dedupes — one row per (fact, cell). The union and the CFS
    frames share a hash partitioning by subject, so the joins do not
    shuffle.
    """
    n = len(dims)
    joins = "".join(
        f" LEFT JOIN (SELECT s, o FROM {{union}} WHERE a = :{prefix}{i}) t{i}"
        f" ON t{i}.s = c.cf"
        for i in range(n)
    )
    cells = ", ".join(f"t{i}.o AS d{i}" for i in range(n))
    any_dim = " OR ".join(f"t{i}.o IS NOT NULL" for i in range(n))
    return Query(
        f"SELECT DISTINCT c.cf, {cells} FROM {{cfs}} c{joins} WHERE {any_dim}",
        {f"{prefix}{i}": d for i, d in enumerate(dims)},
        {"cfs": cfs_df, "union": union},
    )


def value_col_name(preagg: PreAggregatedMeasures, measure: str, func: str) -> str:
    """Stable result-column name for one (measure, func) pair."""
    if measure == COUNT_STAR:
        return STAR_COL
    return f"v_{preagg.index_of(measure)}_{func}"


def _value_sql(preagg: PreAggregatedMeasures, measure: str, func: str) -> str:
    c = preagg.columns_for(measure)
    if func == "avg":
        return f"sum({c['sum']}) / sum({c['cnt']})"
    agg, col = {"count": ("sum", "cnt"), "sum": ("sum", "sum"),
                "min": ("min", "min"), "max": ("max", "max")}[func]
    return f"{agg}({c[col]})"


@dataclass
class CubeNode:
    """One lattice node planned into the kernel."""

    id: int
    dims: dict[int, str]  # kept dimension position -> name
    pairs: list[tuple[str, str]]  # (measure, func) pairs to extract


def cube_query(
    lattices: list[tuple[Query, int, list[CubeNode], bool]],
    preagg: PreAggregatedMeasures,
    *,
    distinct_count: bool = False,
) -> Query:
    """The cube kernel shared by MVDCube and PGCube: one statement over
    the lattices' roots ``(root, n_dims, nodes, dedupe)``.

    Output: ``(node, d0..dM-1, v_...)`` with the dimension columns
    padded to the widest lattice. ``distinct_count`` counts
    ``count(*)`` as distinct facts (PGCube^d).
    """
    max_n = max(n for _, n, _, _ in lattices)
    dcols = ", ".join(f"d{i}" for i in range(max_n))
    cells = []
    for li, (_, _, nodes, dedupe) in enumerate(lattices):
        structs = ", ".join(
            f"named_struct('{NODE_COL}', {node.id}, "
            + ", ".join(
                f"'d{i}', " + (f"d{i}" if i in node.dims else "CAST(NULL AS STRING)")
                for i in range(max_n)
            )
            + ")"
            for node in nodes
        )
        part = f"SELECT cf, inline(array({structs})) FROM r{li}"
        cells.append(f"SELECT DISTINCT * FROM ({part})" if dedupe else part)
    pairs = sorted({p for _, _, nodes, _ in lattices for node in nodes for p in node.pairs})
    star = "count(DISTINCT cf)" if distinct_count else "count(cf)"
    aggs = ", ".join(
        f"CAST({star if m == COUNT_STAR else _value_sql(preagg, m, f)} AS DOUBLE)"
        f" AS {value_col_name(preagg, m, f)}"
        for m, f in pairs
    )
    ctes = [(f"r{li}", root) for li, (root, _, _, _) in enumerate(lattices)]
    join = ""
    if any(m != COUNT_STAR for m, _ in pairs):
        ctes.append(("pre", preagg.query))
        join = " LEFT JOIN pre USING (cf)"
    return with_ctes(
        ctes,
        f"SELECT {NODE_COL}, {dcols}, {aggs} FROM ({' UNION ALL '.join(cells)}) c"
        f"{join} GROUP BY {NODE_COL}, {dcols}",
    )


def split_mdas(
    pdf: pd.DataFrame,
    nodes: list[CubeNode],
    cfs_name: str,
    preagg: PreAggregatedMeasures,
) -> dict[MDAKey, pd.DataFrame]:
    """Reported MDA results from the kernel's collected rows: groups
    with a null dimension value or a null aggregate (no fact in the
    group carries the measure) are excluded — Section 2 semantics.

    One stable sort by node, then numpy masks per node and pair; each
    result lists its dimensions by name, sorted, then ``value``.
    """
    order = np.argsort(pdf[NODE_COL].to_numpy(), kind="stable")
    cols = {c: pdf[c].to_numpy()[order] for c in pdf.columns}
    ids = cols[NODE_COL]
    out: dict[MDAKey, pd.DataFrame] = {}
    for node in nodes:
        lo, hi = np.searchsorted(ids, [node.id, node.id + 1])
        dims = sorted((name, cols[f"d{i}"][lo:hi]) for i, name in node.dims.items())
        keep = np.ones(hi - lo, dtype=bool)
        for _, values in dims:
            keep &= pd.notna(values)
        names = tuple(name for name, _ in dims)
        for m, f in node.pairs:
            value = cols[value_col_name(preagg, m, f)][lo:hi].astype(np.float64)
            rows = keep & ~np.isnan(value)
            data = {name: values[rows] for name, values in dims}
            data["value"] = value[rows]
            out[MDAKey(cfs_name, names, m, f)] = pd.DataFrame(data)
    return out


@dataclass
class MVDCubeEvaluator:
    """Evaluates lattices of one CFS, memoizing results by MDAKey."""

    cfs_name: str
    union: DataFrame  # attribute union (a, s, o)
    preagg: PreAggregatedMeasures
    cfs_df: DataFrame
    results: dict[MDAKey, pd.DataFrame] = field(default_factory=dict)
    nodes_evaluated: int = 0

    def evaluate_many(
        self,
        specs: list[LatticeSpec],
        *,
        roots: list[Query] | None = None,
        skip: set[MDAKey] | None = None,
        multi_valued_dims: set[str] | None = None,
    ) -> None:
        """Evaluate several lattices of the CFS in one Spark statement
        (``cube_query``, see DESIGN.md) and one action.

        MDAs appearing in several lattices (or memoized from earlier
        calls) are planned once; ``skip`` holds early-stop-pruned keys.
        ``roots`` may carry the lattices' translations, aligned with
        ``specs`` (default: ``translate`` each).

        ``multi_valued_dims`` enables the Theorem-1 refinement: only
        lattices with a node that projects away a *multi-valued*
        dimension are deduplicated (None = treat every dimension as
        potentially multi-valued, always safe).
        """
        skip = skip or set()
        if roots is None:
            roots = [
                translate(self.cfs_df, self.union, spec.dims, f"l{si}_")
                for si, spec in enumerate(specs)
            ]
        lattices: list[tuple[Query, int, list[CubeNode], bool]] = []
        nodes: list[CubeNode] = []
        planned: set[MDAKey] = set()
        for spec, root in zip(specs, roots):
            spec_nodes = []
            dedupe = False
            for pos in Lattice(spec.dims).topological_order():
                names = {i: spec.dims[i] for i in pos}
                pairs = [(COUNT_STAR, "count")] + [
                    (m, f) for m in spec.measures for f in spec.funcs[m]
                ]
                keys = {(m, f): MDAKey(self.cfs_name, tuple(names.values()), m, f)
                        for m, f in pairs}
                pairs = [
                    p for p in pairs
                    if keys[p] not in self.results and keys[p] not in skip
                    and keys[p] not in planned
                ]
                if not pairs:
                    continue
                planned |= {keys[p] for p in pairs}
                dropped = set(spec.dims) - set(names.values())
                dedupe |= multi_valued_dims is None or bool(dropped & multi_valued_dims)
                spec_nodes.append(CubeNode(len(nodes), names, pairs))
                nodes.append(spec_nodes[-1])
                self.nodes_evaluated += 1
            if spec_nodes:
                lattices.append((root, len(spec.dims), spec_nodes, dedupe))
        if not nodes:
            return
        pdf = cube_query(lattices, self.preagg).run().toPandas()
        self.results.update(split_mdas(pdf, nodes, self.cfs_name, self.preagg))
