"""Pre-aggregated measures (Sections 3 and 4.3, Measure Loading).

For each (CF, measure) pair the paper pre-computes ``cnt``, ``sum``,
``min`` and ``max`` of the measure's values on that fact (``avg`` is
derived as sum/cnt at query time). These per-CF pre-aggregates make
group-level aggregation correct for facts with multiple measure values,
and are *shared across all lattices of a request*: one wide relation

    (cf, m0_cnt, m0_sum, m0_min, m0_max, m1_cnt, ...)

indexed by measure *position*, so attribute names (e.g.
``company/area``) never reach column names or SQL text. It is a SQL
fragment over the attribute union, planned into the statement that
evaluates the request's CFSs: nothing is cached per request.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core.query import Query


@dataclass(frozen=True)
class PreAggregatedMeasures:
    """The wide per-CF measure fragment plus the name <-> position map."""

    query: Query  # (cf, m{i}_{cnt|sum|min|max} ...)
    measures: tuple[str, ...]  # measure attribute names, by position

    def index_of(self, measure: str) -> int:
        return self.measures.index(measure)

    def columns_for(self, measure: str) -> dict[str, str]:
        i = self.index_of(measure)
        return {f: f"m{i}_{f}" for f in ("cnt", "sum", "min", "max")}


def preaggregate(union: DataFrame, measures: list[str]) -> PreAggregatedMeasures:
    """One ``GROUP BY s`` over the attribute union ``(a, s, o)`` with
    conditional aggregates per measure.

    Values are cast to double; non-castable values are dropped (the
    enumeration rules only admit numeric measures, so this only guards
    against stray dirty values). A fact without a value of a measure
    gets nulls in that measure's columns.
    """
    assert measures, "need at least one measure"
    aggs = []
    for i in range(len(measures)):
        hit = f"a = :m{i}"
        aggs += [
            f"sum(IF({hit}, 1, NULL)) AS m{i}_cnt",
            f"sum(IF({hit}, v, NULL)) AS m{i}_sum",
            f"min(IF({hit}, v, NULL)) AS m{i}_min",
            f"max(IF({hit}, v, NULL)) AS m{i}_max",
        ]
    markers = ", ".join(f":m{i}" for i in range(len(measures)))
    text = (
        f"SELECT s AS cf, {', '.join(aggs)} FROM ("
        f"SELECT a, s, try_cast(o AS DOUBLE) AS v FROM {{union}} "
        f"WHERE a IN ({markers})) WHERE v IS NOT NULL GROUP BY s"
    )
    args = {f"m{i}": m for i, m in enumerate(measures)}
    return PreAggregatedMeasures(Query(text, args, {"union": union}), tuple(measures))
