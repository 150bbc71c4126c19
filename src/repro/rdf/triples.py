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


def shuffle_partitions(df: DataFrame) -> int:
    """The session's shuffle partition count: the frames of facts (the
    attribute union, the summary's node frame, the CFS frames) are
    hash-partitioned by subject into that many, an explicit count that
    adaptive execution does not coalesce."""
    return int(df.sparkSession.conf.get("spark.sql.shuffle.partitions"))


def partitioned_by_subject(df: DataFrame) -> DataFrame:
    """``df`` hash-partitioned by ``s`` into its session's shuffle
    partition count and held as a local checkpoint whose scan reports
    that partitioning, so joins and aggregates on the subject in that
    session shuffle neither it nor a frame partitioned alike.

    A checkpoint taken under adaptive execution reports no partitioning
    (the final plan is only known once it has run), so it is taken in a
    sibling session with adaptive execution off, and the caller's
    session settings are left alone. The plans cross sessions as
    analyzed plans, so the caller's frame scans the bare checkpoint,
    which the planner re-instances with its partitioning (every join of
    two frames carrying the triples' ``s`` re-instances one side).
    """
    spark = df.sparkSession
    sibling = spark.newSession()
    sibling.conf.set("spark.sql.adaptive.enabled", "false")
    held = _in_session(df, sibling).repartition(shuffle_partitions(df), "s")
    return _in_session(held.localCheckpoint(), spark)


def _in_session(df: DataFrame, session: SparkSession) -> DataFrame:
    """``df``'s analyzed plan as a frame of ``session``."""
    plan = df._jdf.queryExecution().analyzed()
    datasets = session._jvm.org.apache.spark.sql.classic.Dataset
    return DataFrame(datasets.ofRows(session._jsparkSession, plan), session)


class TripleStore:
    """An RDF graph as a Spark DataFrame of (s, p, o) triples.

    The triple frame is cached: the load's statements (structural
    summary, the attribute union) all scan it.
    """

    def __init__(self, triples: DataFrame, *, name: str = "graph"):
        assert triples.columns == ["s", "p", "o"], triples.columns
        self.name = name
        self.triples = triples.cache()

    # -- basic statistics ---------------------------------------------------
    def num_triples(self) -> int:
        """Total number of triples in the graph."""
        return self.triples.count()

    def unpersist(self) -> None:
        self.triples.unpersist()
