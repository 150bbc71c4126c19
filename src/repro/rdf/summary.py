"""Structural summary of an RDF graph (RDFQuotient substrate).

The paper's offline phase builds a structural summary with RDFQuotient
[22]: a quotient graph whose node groups are equivalence classes of RDF
nodes. We implement the *characteristic-set* quotient — two nodes are
equivalent iff they have exactly the same set of outgoing properties —
which is the property-cliques-free core of RDFQuotient's "strong"
equivalence and exactly what Spade consumes from the summary:

* the set of all properties in the graph,
* groups of nodes "considered equivalent" (summary-based CFSs),
* per-group property sets (used to expedite attribute enumeration).

The same per-node pass also records each node's rdf:types, so the
type-based CFSs and their sizes come out of the summary's one job too,
and so do the property-based ones: a node has every property of a set
exactly when its class's property set contains it.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.rdf.triples import RDF_TYPE, TripleStore, partitioned_by_subject

_SEP = "\x1f"  # joins a node's sorted property names into its class key


@dataclass(frozen=True)
class SummaryClass:
    """One equivalence class of the structural summary."""

    class_id: int
    properties: frozenset[str]  # outgoing property set (rdf:type excluded)
    size: int  # number of member nodes


class StructuralSummary:
    """Characteristic-set summary: node groups by outgoing property set."""

    def __init__(self, store: TripleStore):
        #: One row per node of the graph: (s, cs, types). cs is the
        #: sorted concatenation of the outgoing properties ("" for a node
        #: with rdf:type triples only, which is in no class).
        #: A local checkpoint hash-partitioned by subject, like the
        #: attribute union, so the CFS frames filtered from it join the
        #: union without a shuffle.
        is_type = F.col("p") == RDF_TYPE
        self.nodes = partitioned_by_subject(
            store.triples.groupBy("s").agg(
                F.concat_ws(
                    _SEP, F.sort_array(F.collect_set(F.when(~is_type, F.col("p"))))
                ).alias("cs"),
                F.sort_array(F.collect_set(F.when(is_type, F.col("o")))).alias("types"),
            )
        )
        # One job counts the nodes per (class, type set), which sizes the
        # classes, the types and any property set.
        #: Per cs: its number of nodes, and of those with an rdf:type.
        self._cs_sizes: dict[str, list[int]] = {}
        #: Number of nodes of each rdf:type.
        self.type_sizes: dict[str, int] = {}
        for r in self.nodes.groupBy("cs", "types").count().collect():
            sizes = self._cs_sizes.setdefault(r["cs"], [0, 0])
            sizes[0] += r["count"]
            sizes[1] += r["count"] if r["types"] else 0
            for t in r["types"]:
                self.type_sizes[t] = self.type_sizes.get(t, 0) + r["count"]
        # Deterministic class ids: order by descending size then cs text.
        ordered = sorted((cs for cs in self._cs_sizes if cs),
                         key=lambda cs: (-self._cs_sizes[cs][0], cs))
        self.classes: list[SummaryClass] = [
            SummaryClass(i, frozenset(cs.split(_SEP)), self._cs_sizes[cs][0])
            for i, cs in enumerate(ordered)
        ]
        self._cs_by_id = dict(enumerate(ordered))

    def members(self, class_id: int) -> DataFrame:
        """Single-column frame ``cf`` with the members of one class."""
        cs = self._cs_by_id[class_id]
        return self.nodes.filter(F.col("cs") == cs).select(F.col("s").alias("cf"))

    def members_of_type(self, rdf_type: str) -> DataFrame:
        """Single-column frame ``cf`` with the nodes of one rdf:type."""
        return self.nodes.filter(F.array_contains("types", rdf_type)).select(
            F.col("s").alias("cf")
        )

    def members_having(self, props: Iterable[str]) -> tuple[DataFrame, int]:
        """Frame ``cf`` of the nodes with every property of ``props`` (for
        rdf:type, with a type), and its size, without a Spark job: the
        node frame filtered to the classes whose property set contains
        ``props``, sized from the summary's counts."""
        wanted = set(props)
        typed = RDF_TYPE in wanted
        wanted.discard(RDF_TYPE)
        # Nodes without a class (cs "") have no property but rdf:type.
        keys = [cs for cs in self._cs_sizes if wanted <= set(cs.split(_SEP)) - {""}]
        members = self.nodes.filter(F.col("cs").isin(keys))
        if typed:
            members = members.filter(F.size("types") > 0)
        size = sum(self._cs_sizes[cs][int(typed)] for cs in keys)
        return members.select(F.col("s").alias("cf")), size

    def all_properties(self) -> frozenset[str]:
        """Union of the property sets of all classes."""
        out: set[str] = set()
        for c in self.classes:
            out |= c.properties
        return frozenset(out)

    def unpersist(self) -> None:
        """Release the node frame's checkpoint."""
        self.nodes._jdf.queryExecution().logical().rdd().unpersist(False)
