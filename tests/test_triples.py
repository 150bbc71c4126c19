"""Unit tests for the RDF triple store substrate."""
import pandas as pd
import pytest

from repro.rdf.triples import (
    RDF_TYPE,
    TripleStore,
    triples_from_pandas,
    triples_from_rows,
)


@pytest.fixture(scope="module")
def tiny(spark):
    rows = [
        ("a", RDF_TYPE, "T1"),
        ("a", "p1", "x"),
        ("a", "p1", "y"),
        ("a", "p2", "1"),
        ("b", RDF_TYPE, "T1"),
        ("b", RDF_TYPE, "T2"),
        ("b", "p2", "2"),
        ("c", "p3", "a"),
    ]
    store = TripleStore(triples_from_rows(spark, rows), name="tiny")
    yield store
    store.unpersist()


def test_num_triples(tiny):
    assert tiny.num_triples() == 8


def test_property_table_contents(tiny):
    rows = {(r["s"], r["o"]) for r in tiny.property_table("p1").collect()}
    assert rows == {("a", "x"), ("a", "y")}


def test_property_table_distinct(spark):
    # Duplicate triples collapse in the (s, o) slice.
    store = TripleStore(
        triples_from_rows(spark, [("a", "p", "x"), ("a", "p", "x")])
    )
    assert store.property_table("p").count() == 1
    store.unpersist()


def test_nodes_of_type(tiny):
    assert {r["cf"] for r in tiny.nodes_of_type("T1").collect()} == {"a", "b"}
    assert {r["cf"] for r in tiny.nodes_of_type("T2").collect()} == {"b"}


def test_nodes_of_missing_type_empty(tiny):
    assert tiny.nodes_of_type("nope").count() == 0


def test_subjects_with_properties_single(tiny):
    assert {r["cf"] for r in tiny.subjects_with_properties(["p2"]).collect()} == {
        "a",
        "b",
    }


def test_subjects_with_properties_conjunctive(tiny):
    got = {r["cf"] for r in tiny.subjects_with_properties(["p1", "p2"]).collect()}
    assert got == {"a"}


def test_triples_from_pandas_roundtrip(spark):
    pdf = pd.DataFrame({"s": ["x"], "p": ["q"], "o": ["7"]})
    df = triples_from_pandas(spark, pdf)
    assert df.collect()[0].asDict() == {"s": "x", "p": "q", "o": "7"}


def test_schema_enforced(tiny):
    assert tiny.triples.columns == ["s", "p", "o"]
