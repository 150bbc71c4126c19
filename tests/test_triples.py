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


def test_triples_from_pandas_roundtrip(spark):
    pdf = pd.DataFrame({"s": ["x"], "p": ["q"], "o": ["7"]})
    df = triples_from_pandas(spark, pdf)
    assert df.collect()[0].asDict() == {"s": "x", "p": "q", "o": "7"}


def test_schema_enforced(tiny):
    assert tiny.triples.columns == ["s", "p", "o"]
