"""Attribute names that are hostile to SQL text.

Evaluation and online analysis are parameterized Spark SQL: attribute
names enter as parameter markers, never as text. On a graph whose
property names (and values) carry quotes, backticks, braces, a
parameter-marker lookalike and a backslash, MVDCube and PGCube^d must
still answer what the DuckDB oracle does, and online analysis must
report every property.
"""
import pytest

from repro.core.attributes import Attribute, analyze_attributes
from repro.core.config import COUNT_STAR
from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.pgcube import evaluate
from repro.core.spade import cube_inputs
from repro.rdf.triples import TripleStore, triples_from_rows
from tests.helpers import (
    analysis_of,
    assert_mda_matches_oracle,
    evaluate_mvdcube,
    nodes_of_type,
    property_table,
    union_of,
)

DIMS = ("o'reilly", 'a"b', "x`y")
MEASURES = ("{z}", ":m0", "back\\slash")
PAIRS = [(COUNT_STAR, "count"), ("{z}", "sum"), (":m0", "avg"), ("back\\slash", "max")]


def _rows():
    rows = []
    for i in range(12):
        f = f"f{i}"
        rows.append((f, "rdf:type", "F"))
        rows.append((f, "o'reilly", ["it's", "{v}", "a\\b"][i % 3]))
        if i % 4:
            rows.append((f, 'a"b', ['x"); --', ":m1"][i % 2]))
        if i % 5:
            rows.append((f, "x`y", f"`{i % 2}`"))
        rows.append((f, "{z}", str(i)))
        rows.append((f, ":m0", str(10 + i)))
        if i % 3 == 0:
            rows.append((f, ":m0", str(20 + i)))  # multi-valued measure
        if i % 2:
            rows.append((f, "back\\slash", str(i * 1.5)))
    return rows


@pytest.fixture(scope="module")
def hostile(spark):
    store = TripleStore(triples_from_rows(spark, _rows()))
    cfs = nodes_of_type(store, "F")
    attrs = {n: Attribute(n, property_table(store, n), "direct") for n in DIMS + MEASURES}
    spec = LatticeSpec(
        "F", dims=DIMS, measures=MEASURES,
        funcs={"{z}": ("sum",), ":m0": ("avg",), "back\\slash": ("max",)},
    )
    analysis = analysis_of("F", cfs, attrs.values(), [spec])
    mvd = evaluate_mvdcube(analysis)
    preagg, [root] = cube_inputs([analysis])
    pgd = evaluate(spec, root, preagg, distinct_count=True)
    tables = {
        "cfs": cfs.toPandas(),
        "attrs": {n: a.df.toPandas() for n, a in attrs.items()},
    }
    yield {"mvdcube": mvd.results, "pgcubed": pgd}, tables, cfs, attrs
    store.unpersist()


NODES = [tuple(sorted(DIMS[i] for i in pos)) for pos in LatticeSpec("F", DIMS, (), {}).nodes()]


@pytest.mark.parametrize("dims", NODES, ids=lambda d: "+".join(d) or "apex")
@pytest.mark.parametrize("evaluator", ["mvdcube", "pgcubed"])
def test_evaluators_match_oracle(spark, hostile, evaluator, dims):
    results, tables, _, _ = hostile
    for measure, func in PAIRS:
        assert_mda_matches_oracle(
            spark,
            results[evaluator][MDAKey("F", dims, measure, func)],
            dims=dims,
            measure=measure,
            func=func,
            cfs_pdf=tables["cfs"],
            dim_pdfs=tables["attrs"],
            meas_pdf=None if measure == COUNT_STAR else tables["attrs"][measure],
            root_dim_names=DIMS if not dims else (),
        )


def test_online_analysis_reports_every_property(hostile):
    _, tables, cfs, attrs = hostile
    [(stats, patterns)] = analyze_attributes(
        [cfs], list(attrs.values()), union_of(attrs.values())
    )
    for name in DIMS + MEASURES:
        assert stats[name].support == tables["attrs"][name]["s"].nunique()
        assert stats[name].is_numeric == (name in MEASURES)
    assert stats[":m0"].multi_count == 4
    assert sum(n for _, n in patterns) == 12
