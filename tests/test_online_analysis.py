"""Steps 1-3 of a request on a loaded graph (CEOs analog).

CFSs are built at load, so selecting them runs no Spark job. Online
attribute analysis runs two Spark jobs per CFS and also returns the
CFS's weighted attribute-set patterns, from which enumeration projects
its MFS transactions without Spark. The outputs are checked against the
former two-job statistics and against pandas over the attribute tables
(the triples, for direct properties).
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import spade
from repro.core.attributes import _finish_stats, _stats_aggs, analyze_attributes, analyzed
from repro.core.cfs import analyzable, select_cfss
from repro.core.enumeration import dimension_transactions, eligible_dimensions


@pytest.fixture(scope="module")
def cfss(ceos_offline, test_config):
    return analyzable(
        select_cfss(ceos_offline.store, ceos_offline.cfss, test_config), test_config
    )


@pytest.fixture(scope="module")
def union_pdf(ceos_offline):
    return ceos_offline.attr_union.toPandas()


def _two_job_stats(cfs_df, union):
    """The former online analysis: statistics, then a second job that
    counts each attribute's multi-valued subjects."""
    members = cfs_df.select(F.col("cf").alias("s")).distinct()
    joined = union.join(members, "s")
    rows = (
        joined.withColumn("is_node", F.lit(0)).groupBy("a").agg(*_stats_aggs()).collect()
    )
    multi_rows = (
        joined.groupBy("a", "s")
        .agg(F.count("o").alias("nv"))
        .filter(F.col("nv") > 1)
        .groupBy("a")
        .agg(F.countDistinct("s").alias("multi"))
        .collect()
    )
    return _finish_stats(rows, {r["a"]: r["multi"] for r in multi_rows})


def _pandas_patterns(union_pdf, members, names=None):
    """Weighted per-CF attribute sets, optionally restricted to names."""
    rows = union_pdf[union_pdf["s"].isin(members)]
    if names is not None:
        rows = rows[rows["a"].isin(names)]
    return rows.groupby("s")["a"].agg(frozenset).value_counts().to_dict()


def test_stats_equal_two_job_computation(ceos_offline, cfss):
    assert cfss
    for cfs in cfss:
        stats, _ = analyze_attributes(
            cfs.df, ceos_offline.attributes, ceos_offline.attr_union
        )
        expected = _two_job_stats(cfs.df, ceos_offline.attr_union)
        assert {a: s for a, s in stats.items() if s.support} == expected
        assert any(s.multi_count for s in expected.values())  # multi-valued graph


def test_patterns_project_to_transactions(ceos_offline, cfss, union_pdf, test_config):
    for cfs in cfss:
        members = set(cfs.df.toPandas()["cf"])
        stats, patterns = analyze_attributes(
            cfs.df, ceos_offline.attributes, ceos_offline.attr_union
        )
        assert dict(patterns) == _pandas_patterns(union_pdf, members)
        present = [a for a in ceos_offline.attributes if stats[a.name].support]
        dims = eligible_dimensions(analyzed(present, stats), cfs.size, test_config)
        assert len(dims) >= 2
        tx = dimension_transactions(patterns, dims)
        expected = _pandas_patterns(union_pdf, members, [d.name for d in dims])
        assert dict(tx) == expected
        assert len(tx) == len(expected)  # one row per distinct set


def _jobs(spark, group, fn):
    """fn's result and the Spark jobs it ran. Adaptive execution is off
    while it runs: it submits one more job per shuffle stage, and
    without it each action is one job."""
    sc = spark.sparkContext
    adaptive = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc._jsc.clearJobGroup()
        spark.conf.set("spark.sql.adaptive.enabled", adaptive)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def test_steps_1_to_3_spark_jobs(spark, ceos_offline, test_config):
    spade.analyze_and_enumerate(ceos_offline, test_config, {})  # warm
    selected, select_jobs = _jobs(
        spark, "test-select",
        lambda: analyzable(
            select_cfss(ceos_offline.store, ceos_offline.cfss, test_config),
            test_config,
        ),
    )
    assert select_jobs == 0 and selected
    analyses, jobs = _jobs(
        spark, "test-steps-1-3",
        lambda: spade.analyze_and_enumerate(ceos_offline, test_config, {}),
    )
    assert [a.cfs.name for a in analyses] == [c.name for c in selected]
    assert any(a.lattices for a in analyses)
    assert jobs <= 2 * len(analyses)


def _persisted(sc) -> set[int]:
    return {int(i) for i in sc._jsc.getPersistentRDDs().keySet()}


def test_requests_leave_no_persisted_rdds(spark, ceos_offline, test_config):
    sc = spark.sparkContext
    spade.run_online(spark, ceos_offline, test_config, k=3)  # warm-up
    before = _persisted(sc)
    spade.run_online(spark, ceos_offline, test_config, k=3)
    spade.run_online(spark, ceos_offline, test_config, early_stop=True, k=3)
    # New ids only: earlier tests' frames may be collected meanwhile.
    assert _persisted(sc) - before == set()
