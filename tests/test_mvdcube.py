"""Correctness tests for MVDCube — the paper's core contribution.

Two layers:
* exact values on the paper's Figure 1 / Figure 4 running example
  (multi-valued nationality and company/area, missing gender/age);
* a full oracle sweep on a generated multi-valued graph: every lattice
  node x (measure, function) is checked against DuckDB ground truth
  implementing the Section 2 semantics (`repro.mda_oracle`).
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.attributes import Attribute
from repro.core.config import COUNT_STAR
from repro.core.derived import path_attribute
from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.mvdcube import MVDCubeEvaluator, translate
from repro.core.preagg import preaggregate
from repro.datagen.generator import generate
from repro.datagen.schema import GraphSpec, NodeClassSpec, PropertySpec
from tests.helpers import (
    assert_mda_matches_oracle,
    group_value,
    union_of,
    with_table,
)

FUNCS = ("count", "sum", "avg", "min", "max")


# ---------------------------------------------------------------------------
# Figure 1 / Figure 4 exact values
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1_eval(spark, fig1):
    cfs = fig1.nodes_of_type("CEO")
    attrs = {
        "nationality": Attribute(
            "nationality", fig1.property_table("nationality"), "direct"
        ),
        "gender": Attribute("gender", fig1.property_table("gender"), "direct"),
        "company/area": with_table(fig1, path_attribute("company", "area")),
        "countryOfOrigin": Attribute(
            "countryOfOrigin", fig1.property_table("countryOfOrigin"), "direct"
        ),
        "netWorth": Attribute("netWorth", fig1.property_table("netWorth"), "direct"),
        "age": Attribute("age", fig1.property_table("age"), "direct"),
    }
    union = union_of(list(attrs.values()))
    preagg = preaggregate(union, ["netWorth", "age"])
    spec = LatticeSpec(
        cfs_name="CEO",
        dims=("nationality", "gender", "company/area"),
        measures=("netWorth", "age"),
        funcs={"netWorth": ("sum",), "age": ("avg",)},
    )
    ev = MVDCubeEvaluator("CEO", union, preagg, cfs)
    ev.evaluate_many([spec])
    yield ev, union, cfs, preagg


def _res(ev, dims, measure, func):
    return ev.results[MDAKey("CEO", dims, measure, func)]


def test_all_nodes_evaluated(fig1_eval):
    ev, *_ = fig1_eval
    assert ev.nodes_evaluated == 8  # 2^3


def test_root_count_matches_figure4_a1(fig1_eval):
    # A1 has 11 tuples: 3 from Dos Santos, 8 from Ghosn, each count 1.
    ev, *_ = fig1_eval
    a1 = _res(ev, ("nationality", "gender", "company/area"), COUNT_STAR, "count")
    # Reported result excludes null-gender groups: only Dos Santos' 3.
    assert len(a1) == 3 and (a1["value"] == 1.0).all()


def test_count_by_area_correct_figure4_a4(fig1_eval):
    # The paper: "there are only two" CEOs managing Manufacturer companies.
    ev, *_ = fig1_eval
    a4 = _res(ev, ("company/area",), COUNT_STAR, "count")
    assert group_value(a4, **{"company/area": "Manufacturer"}) == 2.0
    assert group_value(a4, **{"company/area": "Automotive"}) == 1.0
    assert group_value(a4, **{"company/area": "Diamond"}) == 1.0


def test_count_by_gender_correct_figure4_a3(fig1_eval):
    # One female CEO (Dos Santos), not three.
    ev, *_ = fig1_eval
    a3 = _res(ev, ("gender",), COUNT_STAR, "count")
    assert group_value(a3, gender="Female") == 1.0
    assert len(a3) == 1  # Ghosn has no gender: no reported group


def test_sum_networth_by_area_variation1(fig1_eval):
    # Variation 1: each CEO contributes exactly once per area group.
    ev, *_ = fig1_eval
    s = _res(ev, ("company/area",), "netWorth", "sum")
    assert group_value(s, **{"company/area": "Manufacturer"}) == pytest.approx(2.92)
    assert group_value(s, **{"company/area": "Automotive"}) == pytest.approx(0.12)


def test_avg_age_by_area_variation2(fig1_eval):
    # Variation 2: avg over CEOs, not over duplicated tuples.
    ev, *_ = fig1_eval
    a = _res(ev, ("company/area",), "age", "avg")
    assert group_value(a, **{"company/area": "Manufacturer"}) == pytest.approx(56.5)


def test_count_by_nationality(fig1_eval):
    # Ghosn contributes once to each of his four nationalities.
    ev, *_ = fig1_eval
    n = _res(ev, ("nationality",), COUNT_STAR, "count")
    assert len(n) == 5
    for nat in ("Nigeria", "France", "Lebanon", "Brazil"):
        assert group_value(n, nationality=nat) == 1.0
    assert group_value(n, nationality="Angola") == 1.0


def test_example1_sum_networth_by_country(spark, fig1, fig1_eval):
    # Example 1's result is {(Angola, $2.8B)}: n2 lacks countryOfOrigin.
    _, union, cfs, preagg = fig1_eval
    spec = LatticeSpec(
        "CEO", dims=("countryOfOrigin",), measures=("netWorth",),
        funcs={"netWorth": ("sum",)},
    )
    ev = MVDCubeEvaluator("CEO", union, preagg, cfs)
    ev.evaluate_many([spec])
    res = ev.results[MDAKey("CEO", ("countryOfOrigin",), "netWorth", "sum")]
    assert len(res) == 1
    assert group_value(res, countryOfOrigin="Angola") == pytest.approx(2.8)


def test_translate_explodes_multivalues(spark, fig1, fig1_eval):
    _, union, cfs, _ = fig1_eval
    root = translate(cfs, union, ("nationality", "company/area"), "t")
    rows = root.run().collect()
    # n1: 1 nat x 3 areas = 3 cells; n2: 4 nat x 2 areas = 8 cells.
    assert len(rows) == 11


def test_translate_drops_dimensionless_facts(spark, fig1, fig1_eval):
    _, union, cfs, _ = fig1_eval
    root = translate(cfs, union, ("gender",), "t")
    assert {r["cf"] for r in root.run().collect()} == {"n1"}


def test_memoization_skips_recompute(fig1_eval):
    _, union, cfs, preagg = fig1_eval
    spec = LatticeSpec(
        "CEO", dims=("gender",), measures=("netWorth",), funcs={"netWorth": ("sum",)}
    )
    ev = MVDCubeEvaluator("CEO", union, preagg, cfs)
    ev.evaluate_many([spec])
    n1 = ev.nodes_evaluated
    ev.evaluate_many([spec])  # second run: everything memoized
    assert ev.nodes_evaluated == n1


def test_skip_pruned_aggregates(fig1_eval):
    _, union, cfs, preagg = fig1_eval
    spec = LatticeSpec(
        "CEO", dims=("gender",), measures=("netWorth",), funcs={"netWorth": ("sum",)}
    )
    pruned = {
        MDAKey("CEO", ("gender",), "netWorth", "sum"),
        MDAKey("CEO", ("gender",), COUNT_STAR, "count"),
    }
    ev = MVDCubeEvaluator("CEO", union, preagg, cfs)
    ev.evaluate_many([spec], skip=pruned)
    assert MDAKey("CEO", ("gender",), "netWorth", "sum") not in ev.results
    # The apex is still evaluated (not pruned).
    assert MDAKey("CEO", (), COUNT_STAR, "count") in ev.results


# ---------------------------------------------------------------------------
# Oracle sweep on a generated multi-valued graph
# ---------------------------------------------------------------------------
MV_SPEC = GraphSpec(
    "mv",
    classes=(
        NodeClassSpec(
            "F",
            60,
            (
                PropertySpec("color", "categorical", cardinality=4, support=0.8,
                             multi=(1, 2)),
                PropertySpec("size", "categorical", cardinality=3, support=0.9,
                             multi=(1, 3)),
                PropertySpec("score", "numeric", support=0.8, multi=(1, 2),
                             value_range=(0, 50)),
                PropertySpec("weight", "numeric", support=0.9,
                             value_range=(1, 9)),
            ),
        ),
    ),
    seed=42,
)

DIM_SUBSETS = [(), ("color",), ("size",), ("color", "size")]
PAIRS = [(COUNT_STAR, "count")] + [(m, f) for m in ("score", "weight") for f in FUNCS]


@pytest.fixture(scope="module")
def mv(spark):
    store = generate(spark, MV_SPEC)
    cfs = store.nodes_of_type("F")
    attrs = {
        name: Attribute(name, store.property_table(name), "direct")
        for name in ("color", "size", "score", "weight")
    }
    union = union_of(list(attrs.values()))
    preagg = preaggregate(union, ["score", "weight"])
    spec = LatticeSpec(
        "F",
        dims=("color", "size"),
        measures=("score", "weight"),
        funcs={"score": FUNCS, "weight": FUNCS},
    )
    ev = MVDCubeEvaluator("F", union, preagg, cfs)
    ev.evaluate_many([spec])
    pandas_tables = {
        "cfs": cfs.toPandas(),
        "dims": {n: attrs[n].df.toPandas() for n in ("color", "size")},
        "meas": {n: attrs[n].df.toPandas() for n in ("score", "weight")},
    }
    yield ev, pandas_tables
    store.unpersist()


@pytest.mark.parametrize("dims", DIM_SUBSETS, ids=lambda d: "+".join(d) or "apex")
@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[1]}({p[0]})")
def test_mvdcube_matches_duckdb_oracle(spark, mv, dims, pair):
    ev, tables = mv
    measure, func = pair
    res = ev.results[MDAKey("F", dims, measure, func)]
    assert_mda_matches_oracle(
        spark,
        res,
        dims=dims,
        measure=measure,
        func=func,
        cfs_pdf=tables["cfs"],
        dim_pdfs=tables["dims"],
        meas_pdf=None if measure == COUNT_STAR else tables["meas"][measure],
        root_dim_names=("color", "size") if not dims else (),
    )


def test_no_null_dimension_groups_reported(mv):
    ev, _ = mv
    for key, res in ev.results.items():
        dims = [c for c in res.columns if c != "value"]
        if dims:
            assert not res[dims].isna().any().any()


def test_values_are_floats(mv):
    ev, _ = mv
    for res in ev.results.values():
        assert res["value"].dtype == np.float64
