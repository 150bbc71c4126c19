"""RDF triple store over Spark DataFrames.

The paper's storage model (OntoSQL, Section 4.3): a CFS is a
single-column table of fact IDs; each attribute ``a`` has a table
``t_a`` holding the ``(s, o)`` pairs of all ``(s, a, o)`` triples. We
mirror that layout with DataFrames: one ``(s, p, o)`` triple frame,
from which the load builds one tagged ``(a, s, o)`` union of every
attribute table (``core/attributes.py``); each ``t_a`` is its slice
``a = :name``.

All three columns are strings; numeric literals are detected downstream
by try-casting (`attributes.py`). ``rdf:type`` is an ordinary property
whose objects are type URIs.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StringType, StructField, StructType

RDF_TYPE = "rdf:type"

TRIPLE_SCHEMA = StructType(
    [
        StructField("s", StringType(), False),
        StructField("p", StringType(), False),
        StructField("o", StringType(), True),
    ]
)


def triples_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a triples DataFrame from a pandas frame with s/p/o columns."""
    pdf = pdf[["s", "p", "o"]].astype(str)
    return spark.createDataFrame(pdf, schema=TRIPLE_SCHEMA)


def triples_from_rows(spark: SparkSession, rows: list[tuple[str, str, str]]) -> DataFrame:
    """Create a triples DataFrame from (s, p, o) tuples."""
    return spark.createDataFrame(
        [(str(s), str(p), str(o)) for s, p, o in rows], schema=TRIPLE_SCHEMA
    )


class TripleStore:
    """An RDF graph as a Spark DataFrame of (s, p, o) triples.

    The triple frame is cached: the load's statements (structural
    summary, the attribute union) and the per-property (s, o) slices of
    property-based CFSs all scan it.
    """

    def __init__(self, triples: DataFrame, *, name: str = "graph"):
        assert triples.columns == ["s", "p", "o"], triples.columns
        self.name = name
        self.triples = triples.cache()

    # -- basic statistics ---------------------------------------------------
    def num_triples(self) -> int:
        """Total number of triples in the graph."""
        return self.triples.count()

    # -- slices -------------------------------------------------------------
    def property_table(self, prop: str) -> DataFrame:
        """The (s, o) table of one property — the paper's ``t_a``."""
        return (
            self.triples.filter(F.col("p") == prop)
            .select("s", "o")
            .distinct()
        )

    def nodes_of_type(self, rdf_type: str) -> DataFrame:
        """Single-column frame ``cf`` of all subjects with the given type."""
        return (
            self.triples.filter(
                (F.col("p") == RDF_TYPE) & (F.col("o") == rdf_type)
            )
            .select(F.col("s").alias("cf"))
            .distinct()
        )

    def subjects_with_properties(self, props: list[str]) -> DataFrame:
        """Subjects having *all* the given outgoing properties."""
        out = None
        for prop in props:
            t = self.property_table(prop).select(F.col("s").alias("cf")).distinct()
            out = t if out is None else out.join(t, "cf")
        assert out is not None, "props must be non-empty"
        return out

    def unpersist(self) -> None:
        self.triples.unpersist()
