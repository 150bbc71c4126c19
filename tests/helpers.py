"""Shared test helpers: the paper's Figure 1 graph, CFSs analyzed as a
request analyzes them, reference frames, oracle glue."""
from __future__ import annotations

from dataclasses import replace
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from repro.core.attributes import analyze_attributes, analyzed, direct_part
from repro.core.cfs import CandidateFactSet
from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.derived import derivations
from repro.core.mvdcube import MVDCubeEvaluator
from repro.core.spade import CFSAnalysis, cube_inputs
from repro.mda_oracle import mda_oracle_sql, oracle_tables, positional
from repro.oracle import assert_equivalent
from repro.rdf.triples import RDF_TYPE, TripleStore, triples_from_rows

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


def property_table(store: TripleStore, prop: str) -> DataFrame:
    """The (s, o) table of one property — the paper's ``t_a``."""
    return store.triples.where(F.col("p") == prop).select("s", "o").distinct()


def nodes_of_type(store: TripleStore, rdf_type: str) -> DataFrame:
    """Single-column frame ``cf`` of all subjects with the given type."""
    return (
        store.triples.where((F.col("p") == RDF_TYPE) & (F.col("o") == rdf_type))
        .select(F.col("s").alias("cf"))
        .distinct()
    )


def subjects_with_properties(store: TripleStore, props: list[str]) -> DataFrame:
    """Reference members of a property-based CFS: one aggregate over the
    triples keeping the subjects with every property of ``props``."""
    return (
        store.triples.where(F.col("p").isin(props))
        .groupBy(F.col("s").alias("cf"))
        .agg(F.count_distinct("p").alias("n"))
        .where(F.col("n") == len(set(props)))
        .select("cf")
    )


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


def analysis_of(name: str, cfs: DataFrame, attributes, lattices) -> CFSAnalysis:
    """The CFS ``cfs`` as a request analyzes it: online statistics of
    ``attributes`` (which bring their own tables) over their union."""
    union = union_of(attributes)
    [(stats, _)] = analyze_attributes([cfs], list(attributes), union)
    return CFSAnalysis(
        CandidateFactSet(name, cfs, cfs.count(), "type"),
        analyzed(list(attributes), stats),
        list(lattices),
        union,
    )


def evaluate_mvdcube(analysis: CFSAnalysis, **kwargs) -> MVDCubeEvaluator:
    """A new evaluator over every lattice of ``analysis``, fed the cube
    inputs and multi-valued set that a request feeds it."""
    preagg, roots = cube_inputs([analysis])
    ev = MVDCubeEvaluator(preagg)
    multi = {analysis.cfs.name: analysis.multi_valued_dims}
    ev.evaluate_many(analysis.lattices, roots, multi, **kwargs)
    return ev


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
