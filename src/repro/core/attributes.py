"""Attribute model and Offline/Online Attribute Analysis (Section 3).

An *attribute* is a direct property or a derived property of a CFS;
either can serve as a dimension (group-by key) or a measure (aggregated
value). Both are represented as an (s, o) DataFrame plus statistics.

Offline analysis computes graph-global per-property statistics in a
fixed number of Spark jobs (grouped by property over the whole triple
frame). Online analysis recomputes the statistics restricted to one
CFS, for direct *and* derived attributes, batching all attributes of
the CFS into two Spark jobs via a tagged union (cached once per graph).
Its second job also yields the CFS's weighted attribute-set patterns,
from which aggregate enumeration mines its maximal frequent sets
without another pass over the data.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

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

    ``df`` is the (s, o) value table; ``derived_from`` lists the base
    property names this attribute is derived from (empty for direct
    properties) — used by the enumeration rules that forbid an
    attribute and its derivation in the same lattice (Section 3,
    Step 3b/3c).
    """

    name: str
    df: DataFrame
    kind: str  # direct | count | kw | lang | path
    derived_from: frozenset[str] = frozenset()

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


def _stats_aggs() -> list:
    """Aggregate expressions shared by offline and online analysis."""
    # try_cast: ANSI mode (Spark 4 default) makes plain cast throw on
    # non-numeric strings; we want NULL to detect numeric properties.
    _NUMERIC = F.col("o").try_cast("double")
    return [
        F.countDistinct("s").alias("support"),
        F.count("o").alias("n_values"),
        F.countDistinct("o").alias("n_distinct"),
        F.sum(F.when(_NUMERIC.isNull(), 1).otherwise(0)).alias("non_numeric"),
        F.avg(F.when(F.col("o").rlike(r"\s"), 1.0).otherwise(0.0)).alias("text_frac"),
        F.avg(F.when(F.col("is_node") == 1, 1.0).otherwise(0.0)).alias("ref_frac"),
        F.min(_NUMERIC).alias("vmin"),
        F.max(_NUMERIC).alias("vmax"),
    ]


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


def _with_is_node(df: DataFrame, subjects: DataFrame) -> DataFrame:
    """Tag each (a, s, o) row with whether o is a node of the graph."""
    nodes = subjects.select(F.col("cf").alias("_node")).distinct()
    return df.join(nodes, df["o"] == nodes["_node"], "left").withColumn(
        "is_node", F.when(F.col("_node").isNotNull(), 1).otherwise(0)
    ).drop("_node")


def offline_property_stats(store: TripleStore) -> dict[str, AttributeStats]:
    """Graph-global statistics of every direct property (offline phase)."""
    t = store.triples.filter(F.col("p") != RDF_TYPE).select(
        F.col("p").alias("a"), "s", "o"
    )
    tagged = _with_is_node(t, store.subjects())
    rows = tagged.groupBy("a").agg(*_stats_aggs()).collect()
    multi_rows = (
        t.groupBy("a", "s")
        .agg(F.count("o").alias("nv"))
        .filter(F.col("nv") > 1)
        .groupBy("a")
        .agg(F.countDistinct("s").alias("multi"))
        .collect()
    )
    return _finish_stats(rows, {r["a"]: r["multi"] for r in multi_rows})


def attribute_union(attributes: list[Attribute]) -> DataFrame:
    """The tagged union (a, s, o) of many attribute tables — built once
    per graph (the analog of the attribute tables stored in the DB) and
    cached; every online analysis then costs one join with the CFS."""
    frames = [
        a.df.select(F.lit(a.name).alias("a"), "s", "o") for a in attributes
    ]
    return reduce(lambda x, y: x.unionByName(y), frames)


def analyze_attributes(
    cfs_df: DataFrame,
    attributes: list[Attribute],
    attr_union: DataFrame | None = None,
) -> tuple[dict[str, AttributeStats], list[tuple[frozenset[str], int]]]:
    """Online Attribute Analysis: stats of many attributes over one CFS.

    All attributes come as one tagged union frame, restricted to the
    CFS by one join (``cfs_df`` holds distinct facts, as every
    ``CandidateFactSet`` frame does). The analysis costs two Spark jobs
    regardless of the attribute count:

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
    if attr_union is None:
        attr_union = attribute_union(attributes)
    union = attr_union.join(cfs_df.select(F.col("cf").alias("s")), "s")
    rows = (
        union.withColumn("is_node", F.lit(0)).groupBy("a").agg(*_stats_aggs()).collect()
    )
    pattern_rows = (
        union.groupBy("a", "s")
        .agg(F.count("o").alias("nv"))
        .groupBy("s")
        .agg(
            F.sort_array(F.collect_set("a")).alias("attrs"),
            F.sort_array(F.collect_set(F.when(F.col("nv") > 1, F.col("a")))).alias(
                "multi"
            ),
        )
        .groupBy("attrs", "multi")
        .count()
        .collect()
    )
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
