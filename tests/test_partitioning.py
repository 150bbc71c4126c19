"""The subject partitioning of a loaded graph, as a request's planner
sees it (CEOs analog, adaptive execution on as in every session).

The attribute union and the summary's node frame, from which the type-
and summary-based CFS frames are filtered, are hash-partitioned by
subject at load, and their scans report it: so no exchange sits between
a join of a request's statements (CFS with union, cells with
pre-aggregates) and a scan of either frame.
"""
from dataclasses import replace

import pytest

from repro.core import spade
from repro.core.query import Query


def _children(node) -> list:
    """A physical plan node's inputs: an adaptive plan's final plan, the
    plan a query stage ran."""
    kind = node.getClass().getSimpleName()
    if kind == "AdaptiveSparkPlanExec":
        return [node.executedPlan()]
    if kind.endswith("QueryStageExec"):
        return [node.plan()]
    if kind == "ReusedExchangeExec":
        return [node.child()]
    children = node.children()
    return [children.apply(i) for i in range(children.size())]


def _nodes(node):
    yield node
    for child in _children(node):
        yield from _nodes(child)


def _columns(node) -> set[str]:
    output = node.output()
    return {output.apply(i).name() for i in range(output.size())}


def _shuffled_scans(node, shuffled: bool = False) -> list[str]:
    """The scans below ``node`` of the attribute union (column ``a``) or
    of the node frame (``cs``, ``types``; every CFS frame filters it)
    that an exchange sits above."""
    children = _children(node)
    if not children:
        graph_frame = bool(_columns(node) & {"a", "cs", "types"})
        return [node.toString()] if shuffled and graph_frame else []
    shuffled |= node.getClass().getSimpleName() in (
        "ShuffleExchangeExec", "ReusedExchangeExec"
    )
    return [scan for child in children for scan in _shuffled_scans(child, shuffled)]


@pytest.mark.parametrize("property_cfss", [(), (("company",),)], ids=["graph", "props"])
@pytest.mark.parametrize(
    "kind", [{}, {"early_stop": True}, {"evaluator": "pgcubed"}],
    ids=["exact", "early-stop", "pgcubed"],
)
def test_request_joins_shuffle_no_graph_frame(
    spark, ceos_offline, test_config, monkeypatch, property_cfss, kind
):
    assert spark.conf.get("spark.sql.adaptive.enabled") == "true"
    config = replace(test_config, property_cfss=property_cfss)
    spade.run_online(spark, ceos_offline, config, k=3, **kind)  # warm
    statements = []
    run = Query.run

    def recorded(query):
        statements.append(run(query))
        return statements[-1]

    monkeypatch.setattr(Query, "run", recorded)
    result = spade.run_online(spark, ceos_offline, config, k=3, **kind)
    analyzed_sources = {a.cfs.source for a in result.analyses if a.lattices}
    assert ("property" in analyzed_sources) == bool(property_cfss)
    # The analysis, then one evaluation of every CFS (one per lattice
    # with PGCube) and, with early-stop, one sampling statement.
    evaluations = len(result.lattices) if "evaluator" in kind else 1
    assert len(statements) == 1 + evaluations + ("early_stop" in kind)
    for df in statements:
        plan = df._jdf.queryExecution().executedPlan()
        assert plan.isFinalPlan()  # every statement ran
        joins = [n for n in _nodes(plan) if n.getClass().getSimpleName().endswith("JoinExec")]
        assert joins
        for join in joins:
            assert _shuffled_scans(join) == [], join.toString()
