"""Correctness tests for MVDCube — the paper's core contribution.

Two layers:
* exact values on the paper's Figure 1 / Figure 4 running example
  (multi-valued nationality and company/area, missing gender/age);
* a full oracle sweep on a generated multi-valued graph: every lattice
  node x (measure, function) is checked against DuckDB ground truth
  implementing the Section 2 semantics (`repro.mda_oracle`).

Both evaluate as a request does: the cube inputs of ``spade.cube_inputs``
and the multi-valued dimensions that online analysis finds (Theorem 1).
"""
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core import mvdcube
from repro.core.attributes import Attribute
from repro.core.config import COUNT_STAR
from repro.core.derived import path_attribute
from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.mvdcube import translate
from repro.core.spade import cube_inputs
from repro.datagen.generator import generate
from repro.datagen.schema import GraphSpec, NodeClassSpec, PropertySpec
from tests.helpers import (
    analysis_of,
    assert_mda_matches_oracle,
    evaluate_mvdcube,
    group_value,
    nodes_of_type,
    property_table,
    with_table,
)

FUNCS = ("count", "sum", "avg", "min", "max")


# ---------------------------------------------------------------------------
# Figure 1 / Figure 4 exact values
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1_eval(spark, fig1):
    cfs = nodes_of_type(fig1, "CEO")
    attrs = {
        "nationality": Attribute(
            "nationality", property_table(fig1, "nationality"), "direct"
        ),
        "gender": Attribute("gender", property_table(fig1, "gender"), "direct"),
        "company/area": with_table(fig1, path_attribute("company", "area")),
        "countryOfOrigin": Attribute(
            "countryOfOrigin", property_table(fig1, "countryOfOrigin"), "direct"
        ),
        "netWorth": Attribute("netWorth", property_table(fig1, "netWorth"), "direct"),
        "age": Attribute("age", property_table(fig1, "age"), "direct"),
    }
    spec = LatticeSpec(
        cfs_name="CEO",
        dims=("nationality", "gender", "company/area"),
        measures=("netWorth", "age"),
        funcs={"netWorth": ("sum",), "age": ("avg",)},
    )
    analysis = analysis_of("CEO", cfs, attrs.values(), [spec])
    yield evaluate_mvdcube(analysis), analysis


def _res(ev, dims, measure, func):
    return ev.results[MDAKey("CEO", dims, measure, func)]


def _evaluate(analysis, specs, **kwargs):
    """A new evaluator over ``specs`` of the analyzed CFS."""
    return evaluate_mvdcube(replace(analysis, lattices=specs), **kwargs)


def test_all_nodes_evaluated(fig1_eval):
    ev, _ = fig1_eval
    assert ev.nodes_evaluated == 8  # 2^3


def test_online_analysis_finds_multi_valued_dims(fig1_eval):
    # Ghosn has 4 nationalities, both CEOs several company areas.
    _, analysis = fig1_eval
    assert analysis.multi_valued_dims == {"nationality", "company/area"}


def test_distinct_planned_only_where_a_node_drops_a_multi_valued_dim(
    fig1_eval, monkeypatch
):
    _, analysis = fig1_eval
    texts = []
    kernel = mvdcube.cube_query

    def recorded(*args, **kwargs):
        query = kernel(*args, **kwargs)
        texts.append(query.text)
        return query

    monkeypatch.setattr(mvdcube, "cube_query", recorded)
    multi = LatticeSpec("CEO", ("nationality", "gender"), (), {})
    single = LatticeSpec("CEO", ("gender", "countryOfOrigin"), (), {})
    # ``single`` shares its nodes (gender) and () with ``multi``, which
    # plans them; its own nodes keep every multi-valued dimension.
    _evaluate(analysis, [multi, single])
    # ``multi`` with its nodes that drop nationality pruned.
    pruned = {MDAKey("CEO", dims, COUNT_STAR, "count") for dims in (("gender",), ())}
    ev = _evaluate(analysis, [multi], skip=pruned)
    assert ev.nodes_evaluated == 2
    deduped = re.compile(
        r"SELECT DISTINCT \* FROM \(SELECT cf AS cf, inline\(.*?\) FROM (r\d)\)"
    )
    assert [set(deduped.findall(text)) for text in texts] == [{"r0"}, set()]


def test_root_count_matches_figure4_a1(fig1_eval):
    # A1 has 11 tuples: 3 from Dos Santos, 8 from Ghosn, each count 1.
    ev, _ = fig1_eval
    a1 = _res(ev, ("nationality", "gender", "company/area"), COUNT_STAR, "count")
    # Reported result excludes null-gender groups: only Dos Santos' 3.
    assert len(a1) == 3 and (a1["value"] == 1.0).all()


def test_count_by_area_correct_figure4_a4(fig1_eval):
    # The paper: "there are only two" CEOs managing Manufacturer companies.
    ev, _ = fig1_eval
    a4 = _res(ev, ("company/area",), COUNT_STAR, "count")
    assert group_value(a4, **{"company/area": "Manufacturer"}) == 2.0
    assert group_value(a4, **{"company/area": "Automotive"}) == 1.0
    assert group_value(a4, **{"company/area": "Diamond"}) == 1.0


def test_count_by_gender_correct_figure4_a3(fig1_eval):
    # One female CEO (Dos Santos), not three.
    ev, _ = fig1_eval
    a3 = _res(ev, ("gender",), COUNT_STAR, "count")
    assert group_value(a3, gender="Female") == 1.0
    assert len(a3) == 1  # Ghosn has no gender: no reported group


def test_sum_networth_by_area_variation1(fig1_eval):
    # Variation 1: each CEO contributes exactly once per area group.
    ev, _ = fig1_eval
    s = _res(ev, ("company/area",), "netWorth", "sum")
    assert group_value(s, **{"company/area": "Manufacturer"}) == pytest.approx(2.92)
    assert group_value(s, **{"company/area": "Automotive"}) == pytest.approx(0.12)


def test_avg_age_by_area_variation2(fig1_eval):
    # Variation 2: avg over CEOs, not over duplicated tuples.
    ev, _ = fig1_eval
    a = _res(ev, ("company/area",), "age", "avg")
    assert group_value(a, **{"company/area": "Manufacturer"}) == pytest.approx(56.5)


def test_count_by_nationality(fig1_eval):
    # Ghosn contributes once to each of his four nationalities.
    ev, _ = fig1_eval
    n = _res(ev, ("nationality",), COUNT_STAR, "count")
    assert len(n) == 5
    for nat in ("Nigeria", "France", "Lebanon", "Brazil"):
        assert group_value(n, nationality=nat) == 1.0
    assert group_value(n, nationality="Angola") == 1.0


def test_example1_sum_networth_by_country(spark, fig1, fig1_eval):
    # Example 1's result is {(Angola, $2.8B)}: n2 lacks countryOfOrigin.
    _, analysis = fig1_eval
    spec = LatticeSpec(
        "CEO", dims=("countryOfOrigin",), measures=("netWorth",),
        funcs={"netWorth": ("sum",)},
    )
    ev = _evaluate(analysis, [spec])
    res = ev.results[MDAKey("CEO", ("countryOfOrigin",), "netWorth", "sum")]
    assert len(res) == 1
    assert group_value(res, countryOfOrigin="Angola") == pytest.approx(2.8)


def test_translate_explodes_multivalues(spark, fig1, fig1_eval):
    _, analysis = fig1_eval
    root = translate(
        analysis.cfs.df, analysis.union, ("nationality", "company/area"), "t"
    )
    rows = root.run().collect()
    # n1: 1 nat x 3 areas = 3 cells; n2: 4 nat x 2 areas = 8 cells.
    assert len(rows) == 11


def test_translate_drops_dimensionless_facts(spark, fig1, fig1_eval):
    _, analysis = fig1_eval
    root = translate(analysis.cfs.df, analysis.union, ("gender",), "t")
    assert {r["cf"] for r in root.run().collect()} == {"n1"}


def test_memoization_skips_recompute(fig1_eval):
    _, analysis = fig1_eval
    spec = LatticeSpec(
        "CEO", dims=("gender",), measures=("netWorth",), funcs={"netWorth": ("sum",)}
    )
    ev = _evaluate(analysis, [spec])
    n1 = ev.nodes_evaluated
    _, roots = cube_inputs([replace(analysis, lattices=[spec])])
    ev.evaluate_many([spec], roots, {"CEO": analysis.multi_valued_dims})  # all memoized
    assert ev.nodes_evaluated == n1


def test_skip_pruned_aggregates(fig1_eval):
    _, analysis = fig1_eval
    spec = LatticeSpec(
        "CEO", dims=("gender",), measures=("netWorth",), funcs={"netWorth": ("sum",)}
    )
    pruned = {
        MDAKey("CEO", ("gender",), "netWorth", "sum"),
        MDAKey("CEO", ("gender",), COUNT_STAR, "count"),
    }
    ev = _evaluate(analysis, [spec], skip=pruned)
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
    cfs = nodes_of_type(store, "F")
    attrs = {
        name: Attribute(name, property_table(store, name), "direct")
        for name in ("color", "size", "score", "weight")
    }
    spec = LatticeSpec(
        "F",
        dims=("color", "size"),
        measures=("score", "weight"),
        funcs={"score": FUNCS, "weight": FUNCS},
    )
    analysis = analysis_of("F", cfs, attrs.values(), [spec])
    assert {"color", "size"} <= analysis.multi_valued_dims
    ev = evaluate_mvdcube(analysis)
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
