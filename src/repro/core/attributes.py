"""Attribute model and Offline/Online Attribute Analysis (Section 3).

An *attribute* is a direct property or a derived property of a CFS;
either can serve as a dimension (group-by key) or a measure (aggregated
value). Both are represented as an (s, o) value table plus statistics.

A loaded graph holds all its attribute tables as one tagged union
(a, s, o), built from the direct part and one fragment per derivation
kind; each table is a lazy slice of it. Offline analysis computes
graph-global per-property statistics in one statement over the direct
part. Online analysis recomputes the statistics restricted to each
analyzed CFS, for direct *and* derived attributes, in one statement over
the union for all the CFSs of a request. The same statement yields each
CFS's weighted attribute-set patterns, from which aggregate enumeration
mines its maximal frequent sets without another pass over the data.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.query import Query, with_ctes
from repro.rdf.triples import (
    RDF_TYPE,
    TripleStore,
    partitioned_by_subject,
    shuffle_partitions,
)


@dataclass(frozen=True)
class AttributeStats:
    """Statistics of one attribute over a node population."""

    support: int  # number of distinct subjects having the attribute
    n_values: int  # total number of (s, o) pairs
    n_distinct: int  # distinct values
    multi_count: int  # subjects with more than one value
    is_numeric: bool  # every value casts to double
    text_frac: float  # fraction of values containing whitespace
    ref_frac: float  # fraction of values that are graph nodes (subjects)
    vmin: float | None  # min/max over numeric values (None if not numeric)
    vmax: float | None


@dataclass(frozen=True)
class Attribute:
    """A (derived) property usable as dimension or measure.

    ``df`` is its (s, o) value table: in a loaded graph the lazy slice
    ``a = :name`` of the attribute ``union``, otherwise its own
    ``table``. ``derived_from`` lists the base property names this
    attribute is derived from (empty for direct properties) — used by
    the enumeration rules that forbid an attribute and its derivation in
    the same lattice (Section 3, Step 3b/3c).
    """

    name: str
    table: DataFrame | None  # its own (s, o) table, if not in a union
    kind: str  # direct | count | kw | lang | path
    derived_from: frozenset[str] = frozenset()
    union: DataFrame | None = None  # the attribute union (a, s, o) holding it

    @property
    def df(self) -> DataFrame | None:
        if self.union is None:
            return self.table
        rows = "SELECT s, o FROM {union} WHERE a = :name"
        return Query(rows, {"name": self.name}, {"union": self.union}).run()

    def conflicts_with(self, other: "Attribute") -> bool:
        """True if one attribute is derived from the other."""
        return (
            self.name in other.derived_from
            or other.name in self.derived_from
            or (
                bool(self.derived_from)
                and bool(other.derived_from)
                and self.kind == other.kind
                and self.derived_from == other.derived_from
            )
        )


@dataclass(frozen=True)
class AnalyzedAttribute:
    """An attribute together with its statistics over a population."""

    attribute: Attribute
    stats: AttributeStats

    @property
    def name(self) -> str:
        return self.attribute.name


#: Aggregates over the values of each attribute, shared by offline and
#: online analysis, as SQL over (a, s, o). try_cast: ANSI mode (Spark 4
#: default) makes plain cast throw on non-numeric strings; we want NULL
#: to detect numeric properties.
_VALUE_STATS = (
    "count(o) AS n_values",
    "sum(IF(try_cast(o AS DOUBLE) IS NULL, 1, 0)) AS non_numeric",
    r"avg(IF(o RLIKE '\\s', 1D, 0D)) AS text_frac",
    "min(try_cast(o AS DOUBLE)) AS vmin",
    "max(try_cast(o AS DOUBLE)) AS vmax",
)

#: Every statistic of offline analysis, as SQL over (a, s, o, is_node).
_STATS = (
    "count(DISTINCT s) AS support",
    "count(DISTINCT o) AS n_distinct",
    "avg(IF(is_node = 1, 1D, 0D)) AS ref_frac",
    *_VALUE_STATS,
)


def _finish_stats(rows, multi: dict[str, int]) -> dict[str, AttributeStats]:
    out: dict[str, AttributeStats] = {}
    for r in rows:
        numeric = r["non_numeric"] == 0 and r["n_values"] > 0
        out[r["a"]] = AttributeStats(
            support=r["support"],
            n_values=r["n_values"],
            n_distinct=r["n_distinct"],
            multi_count=int(multi.get(r["a"], 0)),
            is_numeric=numeric,
            text_frac=float(r["text_frac"] or 0.0),
            ref_frac=float(r["ref_frac"] or 0.0),
            vmin=float(r["vmin"]) if numeric and r["vmin"] is not None else None,
            vmax=float(r["vmax"]) if numeric and r["vmax"] is not None else None,
        )
    return out


def direct_part(store: TripleStore) -> DataFrame:
    """The rows (a, s, o) of every direct attribute: the distinct
    non-type triples, tagged by their property and hash-partitioned by
    subject like the CFS frames (so the per-subject work over it does
    not shuffle)."""
    return (
        store.triples.where(F.col("p") != RDF_TYPE)
        .select(F.col("p").alias("a"), "s", "o")
        .repartition(shuffle_partitions(store.triples), "s")
        .distinct()
    )


#: Offline statistics of every direct property, over the direct part:
#: the shared aggregates, each object tagged by whether it is a node of
#: the graph, plus the subjects with several values of the property
#: (``nv``: the values of their (a, s) pair).
_OFFLINE_STATS = (
    f"SELECT a, {', '.join(_STATS)}, count(DISTINCT IF(nv > 1, s, NULL)) AS multi"
    " FROM (SELECT d.a, d.s, d.o, d.nv, IF(n.s IS NULL, 0, 1) AS is_node FROM ("
    "SELECT a, s, o, count(o) OVER (PARTITION BY a, s) AS nv FROM {direct}) d"
    " LEFT JOIN {nodes} n ON d.o = n.s) GROUP BY a"
)


def offline_property_stats(
    direct: DataFrame, nodes: DataFrame
) -> dict[str, AttributeStats]:
    """Graph-global statistics of every direct property (offline phase):
    one statement over the direct part (``direct_part``); ``nodes`` has
    one row per node ``s`` of the graph (the structural summary's)."""
    rows = Query(_OFFLINE_STATS, frames={"direct": direct, "nodes": nodes}).run().collect()
    return _finish_stats(rows, {r["a"]: r["multi"] for r in rows})


def attribute_union(direct: DataFrame, derivations: list[Query]) -> DataFrame:
    """The tagged union (a, s, o) of every attribute table of a graph
    (the analog of the attribute tables stored in the DB): one
    ``UNION ALL`` of the direct part and the derivation fragments.

    Hash-partitioned by subject like the CFS frames, and its scan
    reports that partitioning (``partitioned_by_subject``), so a
    statement's CFS-union join shuffles neither side. A local
    checkpoint, not a cache: its plan is one scan, which the statements
    of a request, reading the union several times, do not re-optimize
    at each read.
    """
    parts = [Query("SELECT a, s, o FROM {direct}", frames={"direct": direct})]
    ctes = [(f"part{i}", q) for i, q in enumerate(parts + derivations)]
    rows = with_ctes(ctes, " UNION ALL ".join(f"SELECT * FROM {n}" for n, _ in ctes))
    return partitioned_by_subject(rows.run())


#: Per fact ``s`` of CFS ``k``: its attribute set and the subset it has
#: several values of (``rows`` holds the CFS-tagged union rows).
_FACTS = (
    "SELECT k, sort_array(collect_set(a)) AS attrs,"
    " sort_array(collect_set(IF(nv > 1, a, NULL))) AS multi FROM ("
    "SELECT k, a, s, count(o) AS nv FROM rows GROUP BY k, a, s) GROUP BY k, s"
)

#: Both outputs of online analysis, padded to one schema: the value
#: statistics per (CFS, attribute), and the facts counted per (CFS,
#: attribute set, multi-valued subset). A pattern row has no ``a``.
_ONLINE = (
    f"SELECT k, a, {', '.join(_VALUE_STATS)}, size(collect_set(o)) AS n_distinct,"
    " NULL AS attrs, NULL AS multi, NULL AS count FROM rows GROUP BY k, a UNION ALL"
    f" SELECT k, NULL, {', '.join(['NULL'] * (len(_VALUE_STATS) + 1))}, attrs, multi,"
    " count(1) FROM facts GROUP BY k, attrs, multi"
)

Patterns = list[tuple[frozenset[str], int]]


def analyze_attributes(
    cfs_dfs: list[DataFrame],
    attributes: list[Attribute],
    attr_union: DataFrame,
) -> list[tuple[dict[str, AttributeStats], Patterns]]:
    """Online Attribute Analysis: stats of many attributes over several
    CFSs, one (stats, patterns) pair per frame of ``cfs_dfs``.

    One SQL statement and one Spark action, whatever the number of CFSs
    and attributes: the members of every CFS (distinct facts, as in
    every ``CandidateFactSet`` frame), tagged by their CFS's position,
    join the attribute union once; its rows give

    * per (CFS, attribute), the value statistics;
    * per CFS, its attribute-set patterns: for each fact, the set of its
      attributes and the subset it has several values of, counted by
      (set, subset). Summed over the sets and subsets holding an
      attribute, the counts give ``support`` and ``multi_count``; the
      sets, with their counts, are the weighted patterns that aggregate
      enumeration projects onto its dimensions
      (``enumeration.dimension_transactions``) without Spark.

    Attributes absent from a CFS get zeroed stats. ref_frac is 0 here:
    reference detection is an offline decision.
    """
    if not cfs_dfs or not attributes:
        return [({}, []) for _ in cfs_dfs]
    tagged = [f"SELECT {k} AS k, cf FROM {{c{k}}}" for k in range(len(cfs_dfs))]
    members = Query(
        " UNION ALL ".join(tagged), frames={f"c{k}": df for k, df in enumerate(cfs_dfs)}
    )
    joined = Query(
        "SELECT m.k, u.a, u.s, u.o FROM {union} u JOIN members m ON u.s = m.cf",
        frames={"union": attr_union},
    )
    ctes = [("members", members), ("rows", joined), ("facts", Query(_FACTS))]
    stat_rows: list[list[dict]] = [[] for _ in cfs_dfs]
    support: list[Counter[str]] = [Counter() for _ in cfs_dfs]
    multi: list[Counter[str]] = [Counter() for _ in cfs_dfs]
    patterns: list[Counter[frozenset[str]]] = [Counter() for _ in cfs_dfs]
    for r in with_ctes(ctes, _ONLINE).run().collect():
        k, n = r["k"], r["count"]
        if r["a"] is not None:
            stat_rows[k].append(r.asDict())
            continue
        support[k].update(dict.fromkeys(r["attrs"], n))
        multi[k].update(dict.fromkeys(r["multi"], n))
        patterns[k][frozenset(r["attrs"])] += n
    zero = AttributeStats(0, 0, 0, 0, False, 0.0, 0.0, None, None)
    out = []
    for k in range(len(cfs_dfs)):
        rows = [
            {**r, "support": support[k][r["a"]], "ref_frac": 0.0} for r in stat_rows[k]
        ]
        stats = {a.name: zero for a in attributes} | _finish_stats(rows, multi[k])
        out.append((stats, list(patterns[k].items())))
    return out


def analyzed(attributes: list[Attribute], stats: dict[str, AttributeStats]) -> list[AnalyzedAttribute]:
    """Zip attributes with their computed stats."""
    return [AnalyzedAttribute(a, stats[a.name]) for a in attributes]
