"""Parameterized Spark SQL fragments.

A ``Query`` is SQL text plus what it binds at run time: graph strings
(attribute names) enter only as named parameter markers (``:name``,
bound through ``spark.sql(args=...)``) and DataFrames only as
``{name}`` slots, each bound to a temporary view of its frame. The text
itself never holds graph data, so any attribute name is safe, and
fragments compose as CTEs of one statement.
"""
from __future__ import annotations

import uuid
import weakref
from dataclasses import dataclass, field

from pyspark import SparkContext
from pyspark.sql import DataFrame


@dataclass(frozen=True)
class Query:
    """SQL text with its parameter values and DataFrame slots."""

    text: str
    args: dict[str, object] = field(default_factory=dict)
    frames: dict[str, DataFrame] = field(default_factory=dict)

    def run(self) -> DataFrame:
        spark = next(iter(self.frames.values())).sparkSession
        views = {slot: view(df) for slot, df in self.frames.items()}
        return spark.sql(self.text.format(**views), args=self.args)


def with_ctes(ctes: list[tuple[str, Query]], body: str, **args) -> Query:
    """``WITH name AS (fragment), ... body`` as one Query; the parts'
    parameter names must be distinct, their slots name the same
    DataFrames."""
    all_args: dict[str, object] = dict(args)
    frames: dict[str, DataFrame] = {}
    for _, q in ctes:
        assert not all_args.keys() & q.args.keys(), "parameter name clash"
        all_args.update(q.args)
        for slot, df in q.frames.items():
            assert frames.setdefault(slot, df) is df, f"slot {slot} bound twice"
    text = "WITH " + ", ".join(f"{name} AS ({q.text})" for name, q in ctes)
    return Query(f"{text} {body}", all_args, frames)


def view(df: DataFrame) -> str:
    """The name of a temporary view of ``df``: created on first use,
    dropped when ``df`` is garbage-collected.

    Graph-level frames (the attribute union, the CFS frames) thus cost
    one view per graph, not one per statement. ``spark.sql``'s own
    DataFrame keyword arguments are not used: they drop their views
    through ``Catalog.dropTempView``, which also uncaches a cached frame
    such as the attribute union.
    """
    name = getattr(df, "_sql_view", None)
    if name is None:
        name = f"spade_{uuid.uuid4().hex}"
        df.createOrReplaceTempView(name)
        df._sql_view = name
        catalog = df.sparkSession._jsparkSession.sessionState().catalog()
        weakref.finalize(df, _drop_view, catalog, name).atexit = False
    return name


def _drop_view(catalog, name: str) -> None:
    # The session catalog's drop leaves the frame's cache alone. A
    # stopped session (its JVM may be gone) has no views left to drop.
    if SparkContext._active_spark_context is not None:
        catalog.dropTempView(name)
