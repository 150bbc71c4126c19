"""Shared test helpers: the paper's Figure 1 graph, oracle glue."""
from __future__ import annotations

from dataclasses import replace
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from repro.core.attributes import direct_part
from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.derived import derivations
from repro.mda_oracle import mda_oracle_sql, oracle_tables, positional
from repro.oracle import assert_equivalent
from repro.rdf.triples import TripleStore, triples_from_rows

#: Triples of the paper's running example (Figure 1 / Figure 4):
#: n1 = Isabel dos Santos, n2 = Carlos Ghosn.
FIGURE1_ROWS = [
    ("n1", "rdf:type", "CEO"),
    ("n1", "countryOfOrigin", "Angola"),
    ("n1", "nationality", "Angola"),
    ("n1", "gender", "Female"),
    ("n1", "netWorth", "2.8"),
    ("n1", "age", "47"),
    ("n1", "company", "c1"),
    ("n1", "company", "c2"),
    ("n1", "company", "c3"),
    ("c1", "area", "Diamond"),
    ("c2", "area", "Manufacturer"),
    ("c3", "area", "Natural gas"),
    ("n2", "rdf:type", "CEO"),
    ("n2", "nationality", "Nigeria"),
    ("n2", "nationality", "France"),
    ("n2", "nationality", "Lebanon"),
    ("n2", "nationality", "Brazil"),
    ("n2", "netWorth", "0.12"),
    ("n2", "age", "66"),
    ("n2", "company", "c4"),
    ("n2", "company", "c5"),
    ("c4", "area", "Automotive"),
    ("c5", "area", "Manufacturer"),
]


def figure1_store(spark: SparkSession) -> TripleStore:
    """The paper's Figure 1 running-example graph."""
    return TripleStore(triples_from_rows(spark, FIGURE1_ROWS), name="figure1")


def with_table(store: TripleStore, attribute):
    """A derived attribute with its own (s, o) table, from its
    derivation fragment over the store's direct part."""
    (rows,) = derivations(direct_part(store), [attribute], SpadeConfig().kw_min_len)
    return replace(attribute, table=rows.run().select("s", "o"))


def union_of(attributes) -> DataFrame:
    """The tagged union (a, s, o) of attributes that bring their own
    (s, o) tables, as a loaded graph's attribute union holds them."""
    frames = [a.df.select(F.lit(a.name).alias("a"), "s", "o") for a in attributes]
    return reduce(DataFrame.unionByName, frames)


def mda_result_schema(dims: tuple[str, ...]) -> StructType:
    """Spark schema of an extracted MDA result (positional dims)."""
    fields = [StructField(f"dim_{i}", StringType(), True) for i in range(len(dims))]
    fields.append(StructField("value", DoubleType(), True))
    return StructType(fields)


def assert_mda_matches_oracle(
    spark: SparkSession,
    result_pdf: pd.DataFrame,
    *,
    dims: tuple[str, ...],
    measure: str,
    func: str,
    cfs_pdf: pd.DataFrame,
    dim_pdfs: dict[str, pd.DataFrame],
    meas_pdf: pd.DataFrame | None,
    root_dim_names: tuple[str, ...] = (),
) -> None:
    """Check one MDA result against the DuckDB ground truth.

    The (pandas) result is lifted back into a Spark DataFrame so the
    provided `assert_equivalent` oracle drives the comparison. For the
    apex node (dims == ()) pass the lattice's ``root_dim_names``.
    """
    star = measure == COUNT_STAR
    sql = mda_oracle_sql(
        n_dims=len(dims),
        func=func,
        measure_is_star=star,
        root_dims=len(root_dim_names),
    )
    tables = oracle_tables(
        cfs_pdf,
        dim_pdfs,
        dims,
        None if star else meas_pdf,
        root_dim_names=root_dim_names,
    )
    pdf = positional(result_pdf, dims)
    sdf = spark.createDataFrame(pdf, schema=mda_result_schema(dims))
    assert_equivalent(sdf, sql, **tables)


def sort_result(pdf: pd.DataFrame) -> pd.DataFrame:
    """Canonical row order for comparing MDA results in tests."""
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def group_value(pdf: pd.DataFrame, **dims) -> float:
    """The aggregated value of one group of an MDA result."""
    mask = np.ones(len(pdf), dtype=bool)
    for col, val in dims.items():
        mask &= pdf[col] == val
    rows = pdf[mask]
    assert len(rows) == 1, f"expected 1 row for {dims}, got {len(rows)}\n{pdf}"
    return float(rows["value"].iloc[0])
