"""Unit tests for offline/online attribute analysis."""
import pytest
from pyspark.sql import functions as F

from repro.core.attributes import (
    Attribute,
    analyze_attributes,
    direct_part,
    offline_property_stats,
)
from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import TripleStore, triples_from_rows
from tests.helpers import nodes_of_type, property_table, union_of


@pytest.fixture(scope="module")
def store(spark):
    rows = [
        ("a", "rdf:type", "T"),
        ("a", "num", "1.5"),
        ("a", "cat", "x"),
        ("a", "cat", "y"),
        ("a", "txt", "the big petroleum producer"),
        ("a", "ref", "b"),
        ("b", "rdf:type", "T"),
        ("b", "num", "2.5"),
        ("b", "cat", "x"),
        ("c", "cat", "z"),
    ]
    s = TripleStore(triples_from_rows(spark, rows))
    yield s
    s.unpersist()


@pytest.fixture(scope="module")
def offline(store):
    return offline_property_stats(direct_part(store), StructuralSummary(store).nodes)


def test_support(offline):
    assert offline["num"].support == 2
    assert offline["cat"].support == 3


def test_n_values_and_distinct(offline):
    assert offline["cat"].n_values == 4
    assert offline["cat"].n_distinct == 3


def test_multi_count(offline):
    assert offline["cat"].multi_count == 1  # only a has 2 values
    assert offline["num"].multi_count == 0


def test_is_numeric(offline):
    assert offline["num"].is_numeric
    assert not offline["cat"].is_numeric
    assert not offline["txt"].is_numeric


def test_numeric_min_max(offline):
    assert offline["num"].vmin == 1.5 and offline["num"].vmax == 2.5


def test_text_frac(offline):
    assert offline["txt"].text_frac == 1.0
    assert offline["cat"].text_frac == 0.0


def test_ref_frac(offline):
    # "b" is a subject of the graph => ref target.
    assert offline["ref"].ref_frac == 1.0
    assert offline["cat"].ref_frac == 0.0


def test_rdf_type_not_analyzed(offline):
    assert "rdf:type" not in offline


def _attrs(store):
    return [
        Attribute("num", property_table(store, "num"), "direct"),
        Attribute("cat", property_table(store, "cat"), "direct"),
    ]


def test_online_restricted_to_cfs(spark, store):
    cfs = nodes_of_type(store, "T")  # a, b — excludes c
    [(stats, _)] = analyze_attributes([cfs], _attrs(store), union_of(_attrs(store)))
    assert stats["cat"].support == 2
    assert stats["cat"].n_distinct == 2  # z belongs to c only


def test_online_zero_stats_for_absent_attribute(spark, store):
    cfs = nodes_of_type(store, "T")
    attrs = _attrs(store) + [Attribute("nope", property_table(store, "nope"), "direct")]
    [(stats, _)] = analyze_attributes([cfs], attrs, union_of(attrs))
    assert stats["nope"].support == 0


def test_online_with_prebuilt_union(spark, store):
    cfs = nodes_of_type(store, "T")
    attrs = _attrs(store)
    union = union_of(attrs).cache()
    [(stats, _)] = analyze_attributes([cfs], attrs, union)
    assert stats["num"].support == 2
    union.unpersist()
