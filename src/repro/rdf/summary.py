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
type-based CFSs and their sizes come out of the summary's one job too.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.rdf.triples import RDF_TYPE, TripleStore

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
        #: Hash-partitioned by subject, like every frame of facts cached
        #: at load.
        is_type = F.col("p") == RDF_TYPE
        self.nodes = (
            store.triples.groupBy("s")
            .agg(
                F.concat_ws(
                    _SEP, F.sort_array(F.collect_set(F.when(~is_type, F.col("p"))))
                ).alias("cs"),
                F.sort_array(F.collect_set(F.when(is_type, F.col("o")))).alias("types"),
            )
            .cache()
        )
        # One job counts the nodes per (class, type set), which sizes both
        # the classes and the types; it also materializes the cached
        # frame, so the CFSs (filters over it) are ready.
        class_sizes: dict[str, int] = {}
        #: Number of nodes of each rdf:type.
        self.type_sizes: dict[str, int] = {}
        for r in self.nodes.groupBy("cs", "types").count().collect():
            if r["cs"]:
                class_sizes[r["cs"]] = class_sizes.get(r["cs"], 0) + r["count"]
            for t in r["types"]:
                self.type_sizes[t] = self.type_sizes.get(t, 0) + r["count"]
        # Deterministic class ids: order by descending size then cs text.
        ordered = sorted(class_sizes, key=lambda cs: (-class_sizes[cs], cs))
        self.classes: list[SummaryClass] = [
            SummaryClass(i, frozenset(cs.split(_SEP)), class_sizes[cs])
            for i, cs in enumerate(ordered)
        ]
        self._cs_by_id = dict(enumerate(ordered))

    def num_classes(self) -> int:
        return len(self.classes)

    def members(self, class_id: int) -> DataFrame:
        """Single-column frame ``cf`` with the members of one class."""
        cs = self._cs_by_id[class_id]
        return self.nodes.filter(F.col("cs") == cs).select(F.col("s").alias("cf"))

    def members_of_type(self, rdf_type: str) -> DataFrame:
        """Single-column frame ``cf`` with the nodes of one rdf:type."""
        return self.nodes.filter(F.array_contains("types", rdf_type)).select(
            F.col("s").alias("cf")
        )

    def all_properties(self) -> frozenset[str]:
        """Union of the property sets of all classes."""
        out: set[str] = set()
        for c in self.classes:
            out |= c.properties
        return frozenset(out)

    def unpersist(self) -> None:
        self.nodes.unpersist()
