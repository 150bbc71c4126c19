"""Attribute model and Offline/Online Attribute Analysis (Section 3).

An *attribute* is a direct property or a derived property of a CFS;
either can serve as a dimension (group-by key) or a measure (aggregated
value). Both are represented as an (s, o) value table plus statistics.

A loaded graph holds all its attribute tables as one tagged union
(a, s, o), built from the direct part and one fragment per derivation
kind; each table is a lazy slice of it. Offline analysis computes
graph-global per-property statistics in one statement over the direct
part. Online analysis recomputes the statistics restricted to one CFS,
for direct *and* derived attributes, in two Spark jobs over the union.
Its second job also yields the CFS's weighted attribute-set patterns,
from which aggregate enumeration mines its maximal frequent sets
without another pass over the data.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.query import Query, with_ctes
from repro.rdf.triples import RDF_TYPE, TripleStore


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

    @property
    def multi_frac(self) -> float:
        return self.multi_count / self.support if self.support else 0.0


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


#: Aggregates shared by offline and online analysis, as SQL over
#: (a, s, o, is_node). try_cast: ANSI mode (Spark 4 default) makes plain
#: cast throw on non-numeric strings; we want NULL to detect numeric
#: properties.
_STATS = (
    "count(DISTINCT s) AS support",
    "count(o) AS n_values",
    "count(DISTINCT o) AS n_distinct",
    "sum(IF(try_cast(o AS DOUBLE) IS NULL, 1, 0)) AS non_numeric",
    r"avg(IF(o RLIKE '\\s', 1D, 0D)) AS text_frac",
    "avg(IF(is_node = 1, 1D, 0D)) AS ref_frac",
    "min(try_cast(o AS DOUBLE)) AS vmin",
    "max(try_cast(o AS DOUBLE)) AS vmax",
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


def _partitions(df: DataFrame) -> int:
    """The session's shuffle partition count: every frame of facts
    cached at load is hash-partitioned by subject into that many."""
    return int(df.sparkSession.conf.get("spark.sql.shuffle.partitions"))


def direct_part(store: TripleStore) -> DataFrame:
    """The rows (a, s, o) of every direct attribute: the distinct
    non-type triples, tagged by their property and hash-partitioned by
    subject like the CFS frames (so the per-subject work over it does
    not shuffle)."""
    return (
        store.triples.where(F.col("p") != RDF_TYPE)
        .select(F.col("p").alias("a"), "s", "o")
        .repartition(_partitions(store.triples), "s")
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

    Hash-partitioned by subject like the CFS frames, so the online
    analysis's CFS join and per-subject groupBys shuffle neither side;
    an explicit partition count, which adaptive execution does not
    coalesce. A local checkpoint (it keeps the partitioning), not a
    cache: its plan is one scan, which the statements of a request,
    reading the union several times, do not re-optimize at each read.
    """
    parts = [Query("SELECT a, s, o FROM {direct}", frames={"direct": direct})]
    ctes = [(f"part{i}", q) for i, q in enumerate(parts + derivations)]
    rows = with_ctes(ctes, " UNION ALL ".join(f"SELECT * FROM {n}" for n, _ in ctes))
    return rows.run().repartition(_partitions(direct), "s").localCheckpoint()


#: The union restricted to one CFS (its frame holds distinct facts);
#: reference detection is an offline decision, so ``is_node`` is 0.
_IN_CFS = "SELECT u.a, u.s, u.o, 0 AS is_node FROM {union} u JOIN {cfs} c ON u.s = c.cf"

#: Per fact, its attribute set and the subset it has several values of,
#: counted by (set, subset).
_PATTERNS = (
    "SELECT attrs, multi, count(1) AS count FROM ("
    "SELECT sort_array(collect_set(a)) AS attrs,"
    " sort_array(collect_set(IF(nv > 1, a, NULL))) AS multi FROM ("
    f"SELECT a, s, count(o) AS nv FROM ({_IN_CFS}) GROUP BY a, s"
    ") GROUP BY s) GROUP BY attrs, multi"
)


def analyze_attributes(
    cfs_df: DataFrame,
    attributes: list[Attribute],
    attr_union: DataFrame,
) -> tuple[dict[str, AttributeStats], list[tuple[frozenset[str], int]]]:
    """Online Attribute Analysis: stats of many attributes over one CFS.

    All attributes come as one tagged union frame, restricted to the
    CFS by one join (``cfs_df`` holds distinct facts, as every
    ``CandidateFactSet`` frame does). The analysis is two SQL
    statements, two Spark jobs, regardless of the attribute count:

    * per-attribute statistics (one ``groupBy("a")``);
    * the CFS's attribute-set patterns: for each fact, the set of its
      attributes and the subset it has several values of, counted by
      (set, subset). The subsets give ``multi_count``; the sets, with
      their counts, are returned as the weighted patterns that
      aggregate enumeration projects onto its dimensions
      (``enumeration.dimension_transactions``) without Spark.

    ref_frac is 0 here: reference detection is an offline decision.
    """
    if not attributes:
        return {}, []
    frames = {"union": attr_union, "cfs": cfs_df}
    stats_sql = f"SELECT a, {', '.join(_STATS)} FROM ({_IN_CFS}) GROUP BY a"
    rows = Query(stats_sql, frames=frames).run().collect()
    pattern_rows = Query(_PATTERNS, frames=frames).run().collect()
    multi: dict[str, int] = {}
    patterns: dict[frozenset[str], int] = {}
    for r in pattern_rows:
        for a in r["multi"]:
            multi[a] = multi.get(a, 0) + r["count"]
        attrs = frozenset(r["attrs"])
        patterns[attrs] = patterns.get(attrs, 0) + r["count"]
    stats = _finish_stats(rows, multi)
    # Attributes absent from the CFS entirely get zeroed stats.
    for a in attributes:
        if a.name not in stats:
            stats[a.name] = AttributeStats(0, 0, 0, 0, False, 0.0, 0.0, None, None)
    return stats, list(patterns.items())


def analyzed(attributes: list[Attribute], stats: dict[str, AttributeStats]) -> list[AnalyzedAttribute]:
    """Zip attributes with their computed stats."""
    return [AnalyzedAttribute(a, stats[a.name]) for a in attributes]
