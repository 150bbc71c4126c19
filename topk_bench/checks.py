"""Correctness checks of explore answers, run outside the timed region.

* The first exact answer's top-k MDAs are checked against the DuckDB
  ground truth (`repro.mda_oracle` + `repro.oracle.assert_equivalent`);
  that answer then becomes the run's reference.
* Every later exact answer must equal the reference.
* Every MDA an early-stop answer evaluated must hold the reference's
  values (early-stop may skip MDAs, never change them).

Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from repro.core.config import COUNT_STAR
from repro.core.mda import MDAKey
from repro.mda_oracle import mda_oracle_sql, oracle_tables, positional
from repro.oracle import assert_equivalent


def _root_dims(analysis, key: MDAKey) -> tuple[str, ...]:
    """Dims of the lattice whose apex produced ``key``: MVDCube plans a
    memoized MDA in the first lattice (in evaluation order) needing it."""
    for spec in analysis.lattices:
        pairs = {(COUNT_STAR, "count")} | {
            (m, f) for m in spec.measures for f in spec.funcs[m]
        }
        if (key.measure, key.func) in pairs:
            return spec.dims
    raise LookupError(key)


def oracle_problems(spark, result) -> list[str]:
    """Check every top-k MDA of an exact answer against DuckDB."""
    problems = []
    analyses = {a.cfs.name: a for a in result.analyses}
    tables: dict[tuple[str, str], pd.DataFrame] = {}

    def table(analysis, name: str) -> pd.DataFrame:
        if (analysis.cfs.name, name) not in tables:
            attrs = {a.name: a.attribute for a in analysis.attributes}
            df = analysis.cfs.df if name == "" else attrs[name].df
            tables[analysis.cfs.name, name] = df.toPandas()
        return tables[analysis.cfs.name, name]

    for ranked in result.topk:
        key = ranked.key
        analysis = analyses[key.cfs]
        star = key.measure == COUNT_STAR
        root = () if key.dims else _root_dims(analysis, key)
        dims_sql = key.dims or root
        sql = mda_oracle_sql(n_dims=len(key.dims), func=key.func,
                             measure_is_star=star, root_dims=len(root))
        kwargs = oracle_tables(
            table(analysis, ""),
            {d: table(analysis, d) for d in dims_sql},
            key.dims,
            None if star else table(analysis, key.measure),
            root_dim_names=root,
        )
        schema = StructType(
            [StructField(f"dim_{i}", StringType()) for i in range(len(key.dims))]
            + [StructField("value", DoubleType())]
        )
        got = spark.createDataFrame(positional(ranked.result, key.dims), schema)
        try:
            assert_equivalent(got, sql, **kwargs)
        except AssertionError as e:
            problems.append(f"{key.label()} differs from DuckDB: {e}")
    return problems


def _canon(result: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(c for c in result.columns if c != "value")
    return result.sort_values(cols).reset_index(drop=True)[cols + ["value"]]


def same_result(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Equal groups, and values equal up to summation-order rounding."""
    a, b = _canon(a), _canon(b)
    if len(a) != len(b) or list(a.columns) != list(b.columns):
        return False
    dims = [c for c in a.columns if c != "value"]
    if dims and not a[dims].equals(b[dims]):
        return False
    return bool(np.allclose(a["value"].to_numpy(np.float64),
                            b["value"].to_numpy(np.float64),
                            rtol=1e-9, atol=1e-9))


def exact_problems(result, reference) -> list[str]:
    """A later exact answer against the reference answer."""
    got = [r.key for r in result.topk]
    want = [r.key for r in reference.topk]
    if got != want:
        return [f"top-k {[k.label() for k in got]} != {[k.label() for k in want]}"]
    return [
        f"{r.key.label()} differs from the reference"
        for r, ref in zip(result.topk, reference.topk)
        if not (np.isclose(r.score, ref.score, rtol=1e-9, atol=1e-12)
                and same_result(r.result, ref.result))
    ]


def early_stop_problems(result, reference) -> list[str]:
    """Every MDA an early-stop answer evaluated against the reference."""
    problems = []
    for key in result.arm.keys():
        ref = reference.arm.get(key)
        if ref is None:
            problems.append(f"{key.label()} is not an MDA of the exact answer")
        elif not same_result(result.arm.get(key).result, ref.result):
            problems.append(f"{key.label()} differs from the exact answer")
    return problems


def topk_overlap(result, reference) -> float:
    """Share of the reference top-k that ``result`` returns (base: k)."""
    want = {r.key for r in reference.topk}
    return len(want & {r.key for r in result.topk}) / len(want)
