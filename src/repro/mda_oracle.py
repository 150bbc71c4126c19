"""DuckDB ground truth for MDA results (used with `repro.oracle`).

Builds the reference SQL implementing the paper's Section 2 semantics
for an MDA over tables registered as:

* ``facts``           — single column ``cf``;
* ``dim_0..dim_{N-1}``— (s, o) value tables of the dimensions;
* ``meas``            — (s, o) value table of the measure (if any).

Group membership first dedupes (fact, dim-values) combinations — a
fact with multiple values along a dimension belongs to *each* matching
group exactly once (the `cells` CTE) — and then aggregates the
measure's (fact, value) pairs, so each value of a multi-valued measure
contributes once. Facts missing a dimension or the measure do not
contribute (inner joins). Output columns: ``dim_0..`` and ``value``.

Use with the provided oracle::

    sql = mda_oracle_sql(n_dims=2, func="sum")
    assert_equivalent(spark_df, sql, facts=..., dim_0=..., dim_1=..., meas=...)
"""
from __future__ import annotations

import pandas as pd


def mda_oracle_sql(
    *, n_dims: int, func: str, measure_is_star: bool = False, root_dims: int = 0
) -> str:
    """Reference SQL for an MDA with n_dims dimensions (see module doc).

    ``root_dims`` only matters for the apex node (n_dims == 0): per the
    paper's Data Translation, the lattice covers the facts having *at
    least one* of the lattice's ``root_dims`` dimensions, so the apex
    aggregates exactly those facts (tables dim_0..dim_{root_dims-1}
    must then be registered too).
    """
    assert n_dims >= 0
    dim_cols = [f"dim_{i}" for i in range(n_dims)]
    joins = " ".join(
        f"JOIN dim_{i} d{i} ON d{i}.s = f.cf" for i in range(n_dims)
    )
    sel = ", ".join([f"d{i}.o AS {c}" for i, c in enumerate(dim_cols)] + ["f.cf AS cf"])
    cells = f"SELECT DISTINCT {sel} FROM facts f {joins}"
    if n_dims == 0 and root_dims > 0:
        exists = " OR ".join(
            f"EXISTS (SELECT 1 FROM dim_{i} d WHERE d.s = f.cf)"
            for i in range(root_dims)
        )
        cells = f"SELECT DISTINCT f.cf AS cf FROM facts f WHERE {exists}"
    group = ("GROUP BY " + ", ".join(dim_cols)) if dim_cols else ""
    proj = (", ".join(dim_cols) + ", ") if dim_cols else ""
    if measure_is_star or func == "count*":
        return f"WITH cells AS ({cells}) SELECT {proj}CAST(COUNT(cf) AS DOUBLE) AS value FROM cells {group}"
    agg = {
        "count": "CAST(COUNT(m.o) AS DOUBLE)",
        "sum": "SUM(CAST(m.o AS DOUBLE))",
        "avg": "AVG(CAST(m.o AS DOUBLE))",
        "min": "MIN(CAST(m.o AS DOUBLE))",
        "max": "MAX(CAST(m.o AS DOUBLE))",
    }[func]
    return (
        f"WITH cells AS ({cells}) "
        f"SELECT {proj}{agg} AS value FROM cells c JOIN meas m ON m.s = c.cf {group}"
    )


def positional(result: pd.DataFrame, dims: tuple[str, ...]) -> pd.DataFrame:
    """Rename an MDA result's dimension columns to positional dim_i
    (sorted attribute-name order) so both oracle sides align."""
    mapping = {name: f"dim_{i}" for i, name in enumerate(sorted(dims))}
    return result.rename(columns=mapping)


def oracle_tables(
    cfs_pdf: pd.DataFrame,
    dim_pdfs: dict[str, pd.DataFrame],
    dims: tuple[str, ...],
    meas_pdf: pd.DataFrame | None,
    *,
    root_dim_names: tuple[str, ...] = (),
) -> dict[str, pd.DataFrame]:
    """Assemble the named-table kwargs for ``assert_equivalent``: the
    dimension tables are bound positionally in sorted attr-name order.
    For the apex node pass the lattice's ``root_dim_names`` instead."""
    tables: dict[str, pd.DataFrame] = {"facts": cfs_pdf}
    names = sorted(dims) if dims else sorted(root_dim_names)
    for i, name in enumerate(names):
        tables[f"dim_{i}"] = dim_pdfs[name]
    if meas_pdf is not None:
        tables["meas"] = meas_pdf
    return tables
