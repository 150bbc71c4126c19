"""Steps 1-3 of a request on a loaded graph (CEOs analog).

CFSs are built at load, so selecting them runs no Spark job. Online
attribute analysis runs one Spark statement for all the CFSs of a
request and also returns each CFS's weighted attribute-set patterns,
from which enumeration projects its MFS transactions without Spark. The
outputs are checked against the former two-job statistics and against
pandas over the attribute tables (the triples, for direct properties).
"""
from dataclasses import replace

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import spade
from repro.core.attributes import (
    _STATS,
    AttributeStats,
    _finish_stats,
    analyze_attributes,
    analyzed,
)
from repro.core.cfs import analyzable, select_cfss
from repro.core.enumeration import dimension_transactions, eligible_dimensions


@pytest.fixture(scope="module")
def all_config(test_config):
    """Every CFS at or above the size threshold: type- and summary-based
    ones, which overlap."""
    return replace(test_config, max_cfss=8)


@pytest.fixture(scope="module")
def cfss(ceos_offline, all_config):
    out = analyzable(
        select_cfss(ceos_offline.summary, ceos_offline.cfss, all_config), all_config
    )
    assert len(out) >= 4 and {c.source for c in out} == {"type", "summary"}
    return out


@pytest.fixture(scope="module")
def analysis(ceos_offline, cfss):
    """All the CFSs analyzed together, as a request does."""
    return analyze_attributes(
        [c.df for c in cfss], ceos_offline.attributes, ceos_offline.attr_union
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
        joined.withColumn("is_node", F.lit(0))
        .groupBy("a")
        .agg(*[F.expr(e) for e in _STATS])
        .collect()
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


def test_stats_equal_two_job_computation(ceos_offline, cfss, analysis):
    for cfs, (stats, _) in zip(cfss, analysis, strict=True):
        expected = _two_job_stats(cfs.df, ceos_offline.attr_union)
        assert {a: s for a, s in stats.items() if s.support} == expected
    assert any(s.multi_count for stats, _ in analysis for s in stats.values())


def test_absent_attribute_zeroed_per_cfs(ceos_offline, analysis):
    zero = AttributeStats(0, 0, 0, 0, False, 0.0, 0.0, None, None)
    names = {a.name for a in ceos_offline.attributes}
    for stats, _ in analysis:
        assert stats.keys() == names
    present = [{a for a, s in stats.items() if s.support} for stats, _ in analysis]
    # An attribute of one CFS that another CFS lacks is zeroed there.
    some = [(a, j) for i, p in enumerate(present) for a in p
            for j, q in enumerate(present) if a not in q]
    assert some
    for a, j in some:
        assert analysis[j][0][a] == zero


def test_patterns_project_to_transactions(
    ceos_offline, cfss, analysis, union_pdf, all_config
):
    projected = 0
    for cfs, (stats, patterns) in zip(cfss, analysis, strict=True):
        members = set(cfs.df.toPandas()["cf"])
        assert dict(patterns) == _pandas_patterns(union_pdf, members)
        present = [a for a in ceos_offline.attributes if stats[a.name].support]
        dims = eligible_dimensions(analyzed(present, stats), cfs.size, all_config)
        if len(dims) < 2:
            continue
        projected += 1
        tx = dimension_transactions(patterns, dims)
        expected = _pandas_patterns(union_pdf, members, [d.name for d in dims])
        assert dict(tx) == expected
        assert len(tx) == len(expected)  # one row per distinct set
    assert projected >= 2


def _jobs(spark, group, fn, adaptive="false"):
    """fn's result and the Spark jobs it ran. Adaptive execution is off
    while it runs unless asked for: it submits one more job per shuffle
    stage, and without it each action is one job."""
    sc = spark.sparkContext
    before = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", adaptive)
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc._jsc.clearJobGroup()
        spark.conf.set("spark.sql.adaptive.enabled", before)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def test_steps_1_to_3_spark_jobs(spark, ceos_offline, all_config):
    spade.analyze_and_enumerate(ceos_offline, all_config, {})  # warm
    selected, select_jobs = _jobs(
        spark, "test-select",
        lambda: analyzable(
            select_cfss(ceos_offline.summary, ceos_offline.cfss, all_config),
            all_config,
        ),
    )
    assert select_jobs == 0 and len(selected) >= 4
    # Property-based CFSs too are sized from the summary's counts.
    props = replace(all_config, property_cfss=(("company",), ("rdf:type", "company")))
    _, select_jobs = _jobs(
        spark, "test-select-props",
        lambda: select_cfss(ceos_offline.summary, ceos_offline.cfss, props),
    )
    assert select_jobs == 0
    analyses, jobs = _jobs(
        spark, "test-steps-1-3",
        lambda: spade.analyze_and_enumerate(ceos_offline, all_config, {}),
    )
    assert [a.cfs.name for a in analyses] == [c.name for c in selected]
    assert any(a.lattices for a in analyses)
    # One statement, one action, for every CFS.
    assert jobs == 1


def test_no_analyzable_cfs_runs_no_statement(spark, ceos_offline, test_config):
    config = replace(test_config, min_cfs_size=10**6)
    analyses, jobs = _jobs(
        spark, "test-no-cfs",
        lambda: spade.analyze_and_enumerate(ceos_offline, config, {}),
    )
    assert analyses == [] and jobs == 0


@pytest.mark.parametrize("n_cfss", [1, 2])
def test_request_spark_jobs(spark, ceos_offline, test_config, n_cfss):
    config = replace(test_config, max_cfss=n_cfss)
    spade.run_online(spark, ceos_offline, config, k=3)  # warm
    result, exact_jobs = _jobs(
        spark, f"test-exact-{n_cfss}",
        lambda: spade.run_online(spark, ceos_offline, config, k=3),
    )
    assert [bool(a.lattices) for a in result.analyses] == [True] * n_cfss
    # One statement of online analysis, one evaluating every CFS.
    assert exact_jobs == 2
    _, es_jobs = _jobs(
        spark, f"test-es-{n_cfss}",
        lambda: spade.run_online(spark, ceos_offline, config, early_stop=True, k=3),
    )
    # One more, sampling every CFS.
    assert es_jobs == 3
    # Adaptive execution runs each shuffle stage of a statement as a job
    # of its own. The only shuffles left are the GROUP BYs on other keys
    # than the subject: two in the analysis, one in the evaluation, the
    # sampling window's one.
    _, exact_jobs = _jobs(
        spark, f"test-exact-aqe-{n_cfss}",
        lambda: spade.run_online(spark, ceos_offline, config, k=3), "true",
    )
    assert exact_jobs == (1 + 2) + (1 + 1)
    _, es_jobs = _jobs(
        spark, f"test-es-aqe-{n_cfss}",
        lambda: spade.run_online(spark, ceos_offline, config, early_stop=True, k=3),
        "true",
    )
    assert es_jobs == exact_jobs + (1 + 1)


def _persisted(sc) -> set[int]:
    return {int(i) for i in sc._jsc.getPersistentRDDs().keySet()}


def test_requests_leave_no_persisted_rdds(spark, ceos_offline, test_config):
    sc = spark.sparkContext
    # The graph's CFSs, then a property-based CFS too (analyzed and
    # evaluated).
    for property_cfss in [(), (("company",),)]:
        config = replace(test_config, property_cfss=property_cfss)
        before = _persisted(sc)
        first = spade.run_online(spark, ceos_offline, config, k=3)
        analyzed_sources = {a.cfs.source for a in first.analyses if a.lattices}
        assert ("property" in analyzed_sources) == bool(property_cfss)
        spade.run_online(spark, ceos_offline, config, k=3)
        spade.run_online(spark, ceos_offline, config, early_stop=True, k=3)
        # New ids only: earlier tests' frames may be collected meanwhile.
        assert _persisted(sc) - before == set(), property_cfss
