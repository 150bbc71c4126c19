"""Tests for the PGCube baseline: exact reproduction of the paper's
Figure 4 / Variation 1-2 errors on multi-valued data, and correctness
(oracle-checked) on single-valued data, where GROUP BY CUBE is sound."""
import pandas as pd
import pytest

from repro.core.attributes import Attribute
from repro.core.config import COUNT_STAR
from repro.core.derived import path_attribute
from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.pgcube import PGCubeEvaluator
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


@pytest.fixture(scope="module")
def fig1_pg(spark, fig1):
    cfs = fig1.nodes_of_type("CEO")
    attrs = {
        "nationality": Attribute(
            "nationality", fig1.property_table("nationality"), "direct"
        ),
        "gender": Attribute("gender", fig1.property_table("gender"), "direct"),
        "company/area": with_table(fig1, path_attribute("company", "area")),
        "netWorth": Attribute("netWorth", fig1.property_table("netWorth"), "direct"),
        "age": Attribute("age", fig1.property_table("age"), "direct"),
    }
    union = union_of(list(attrs.values()))
    preagg = preaggregate(union, ["netWorth", "age"])
    spec = LatticeSpec(
        cfs_name="CEO",
        dims=("nationality", "gender", "company/area"),
        measures=("netWorth", "age"),
        funcs={"netWorth": ("sum", "min"), "age": ("avg",)},
    )
    star = PGCubeEvaluator("CEO", union, preagg, cfs, distinct_count=False)
    dist = PGCubeEvaluator("CEO", union, preagg, cfs, distinct_count=True)
    res_star = star.evaluate(spec)
    res_dist = dist.evaluate(spec)
    yield res_star, res_dist


def test_root_node_counts_correct(fig1_pg):
    # The lattice root is always correct (Theorem 1: nodes with all MD
    # dimensions) — 3 non-null-gender groups of count 1.
    res_star, _ = fig1_pg
    a1 = res_star[
        MDAKey("CEO", ("nationality", "gender", "company/area"), COUNT_STAR, "count")
    ]
    assert len(a1) == 3 and (a1["value"] == 1.0).all()


def test_figure4_a4_five_manufacturer_ceos(fig1_pg):
    # "In A4's result, we find five CEOs managing Manufacturer
    # companies, whereas there are only two."
    res_star, _ = fig1_pg
    a4 = res_star[MDAKey("CEO", ("company/area",), COUNT_STAR, "count")]
    assert group_value(a4, **{"company/area": "Manufacturer"}) == 5.0
    assert group_value(a4, **{"company/area": "Automotive"}) == 4.0


def test_figure4_a3_three_female_ceos(fig1_pg):
    # "we count three female CEOs ... although they all represent n1".
    res_star, _ = fig1_pg
    a3 = res_star[MDAKey("CEO", ("gender",), COUNT_STAR, "count")]
    assert group_value(a3, gender="Female") == 3.0


def test_distinct_variant_fixes_counts(fig1_pg):
    # PGCube^d counts distinct CEOs: Example 3 becomes correct.
    _, res_dist = fig1_pg
    a4 = res_dist[MDAKey("CEO", ("company/area",), COUNT_STAR, "count")]
    assert group_value(a4, **{"company/area": "Manufacturer"}) == 2.0
    a3 = res_dist[MDAKey("CEO", ("gender",), COUNT_STAR, "count")]
    assert group_value(a3, gender="Female") == 1.0


def test_variation1_sum_networth_wrong_in_both_variants(fig1_pg):
    # sum by area=Manufacturer: $2.8B + 4 x $120M instead of $2.92B,
    # and count(distinct) cannot fix it.
    for res in fig1_pg:
        s = res[MDAKey("CEO", ("company/area",), "netWorth", "sum")]
        assert group_value(s, **{"company/area": "Manufacturer"}) == pytest.approx(
            2.8 + 4 * 0.12
        )


def test_variation2_avg_age_wrong(fig1_pg):
    # avg by area=Manufacturer: (47 + 4*66)/5 instead of (47+66)/2.
    res_star, _ = fig1_pg
    a = res_star[MDAKey("CEO", ("company/area",), "age", "avg")]
    assert group_value(a, **{"company/area": "Manufacturer"}) == pytest.approx(
        (47 + 4 * 66) / 5
    )


def test_min_immune_to_duplication(fig1_pg):
    # Lemma 1 lists count/sum/avg; min/max are idempotent and stay correct.
    res_star, _ = fig1_pg
    m = res_star[MDAKey("CEO", ("company/area",), "netWorth", "min")]
    assert group_value(m, **{"company/area": "Manufacturer"}) == pytest.approx(0.12)


def test_null_dim_groups_not_reported(fig1_pg):
    res_star, _ = fig1_pg
    for key, res in res_star.items():
        dims = [c for c in res.columns if c != "value"]
        if dims:
            assert not res[dims].isna().any().any()


def test_all_lattice_nodes_present(fig1_pg):
    res_star, _ = fig1_pg
    nodes = {key.dims for key in res_star}
    assert len(nodes) == 8


# ---------------------------------------------------------------------------
# Single-valued data: PGCube must be correct (oracle-checked) — this is
# the paper's Experiment 5/6 setting and the Airline row of Table 3.
# ---------------------------------------------------------------------------
SV_SPEC = GraphSpec(
    "sv",
    classes=(
        NodeClassSpec(
            "F",
            50,
            (
                PropertySpec("color", "categorical", cardinality=4, support=0.9),
                PropertySpec("size", "categorical", cardinality=3, support=0.8),
                PropertySpec("score", "numeric", value_range=(0, 50), support=0.9),
            ),
        ),
    ),
    seed=11,
)


@pytest.fixture(scope="module")
def sv(spark):
    store = generate(spark, SV_SPEC)
    cfs = store.nodes_of_type("F")
    attrs = {
        n: Attribute(n, store.property_table(n), "direct")
        for n in ("color", "size", "score")
    }
    union = union_of(list(attrs.values()))
    preagg = preaggregate(union, ["score"])
    spec = LatticeSpec(
        "F", dims=("color", "size"), measures=("score",), funcs={"score": FUNCS}
    )
    ev = PGCubeEvaluator("F", union, preagg, cfs, distinct_count=False)
    results = ev.evaluate(spec)
    tables = {
        "cfs": cfs.toPandas(),
        "dims": {n: attrs[n].df.toPandas() for n in ("color", "size")},
        "meas": attrs["score"].df.toPandas(),
    }
    yield results, tables
    store.unpersist()


@pytest.mark.parametrize(
    "dims", [("color",), ("size",), ("color", "size")], ids=lambda d: "+".join(d)
)
@pytest.mark.parametrize(
    "pair", [(COUNT_STAR, "count"), ("score", "sum"), ("score", "avg")],
    ids=lambda p: f"{p[1]}({p[0]})",
)
def test_pgcube_correct_on_single_valued(spark, sv, dims, pair):
    results, tables = sv
    measure, func = pair
    res = results[MDAKey("F", dims, measure, func)]
    assert_mda_matches_oracle(
        spark,
        res,
        dims=dims,
        measure=measure,
        func=func,
        cfs_pdf=tables["cfs"],
        dim_pdfs=tables["dims"],
        meas_pdf=None if measure == COUNT_STAR else tables["meas"],
    )
