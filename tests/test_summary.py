"""Unit tests for the structural summary (RDFQuotient substrate)."""
import pytest

from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import RDF_TYPE, TripleStore, triples_from_rows


@pytest.fixture(scope="module")
def store(spark):
    rows = [
        ("a", "p1", "x"), ("a", "p2", "1"),
        ("b", "p1", "y"), ("b", "p2", "2"),
        ("c", "p1", "z"),
        ("d", RDF_TYPE, "T"), ("d", "p1", "w"), ("d", "p2", "3"),
    ]
    s = TripleStore(triples_from_rows(spark, rows))
    yield s
    s.unpersist()


def test_num_classes(store):
    # {p1,p2} x3 (a, b, d - rdf:type is excluded from the signature),
    # {p1} x1 (c).
    summary = StructuralSummary(store)
    assert summary.num_classes() == 2
    summary.unpersist()


def test_class_sizes_ordered(store):
    summary = StructuralSummary(store)
    assert [c.size for c in summary.classes] == [3, 1]
    summary.unpersist()


def test_class_property_sets(store):
    summary = StructuralSummary(store)
    assert summary.classes[0].properties == frozenset({"p1", "p2"})
    assert summary.classes[1].properties == frozenset({"p1"})
    summary.unpersist()


def test_members(store):
    summary = StructuralSummary(store)
    big = {r["cf"] for r in summary.members(0).collect()}
    assert big == {"a", "b", "d"}
    assert {r["cf"] for r in summary.members(1).collect()} == {"c"}
    summary.unpersist()


def test_all_properties(store):
    summary = StructuralSummary(store)
    assert summary.all_properties() == frozenset({"p1", "p2"})
    summary.unpersist()


def test_classes_partition_subjects(store):
    summary = StructuralSummary(store)
    all_members = set()
    for c in summary.classes:
        members = {r["cf"] for r in summary.members(c.class_id).collect()}
        assert not (all_members & members), "classes must be disjoint"
        all_members |= members
    assert all_members == {"a", "b", "c", "d"}
    summary.unpersist()


def test_types(spark):
    # "e" has rdf:type only: a node of its type, in no class.
    rows = [("d", RDF_TYPE, "T"), ("d", RDF_TYPE, "U"), ("d", "p1", "w"),
            ("e", RDF_TYPE, "T"), ("f", "p1", "x")]
    store = TripleStore(triples_from_rows(spark, rows))
    summary = StructuralSummary(store)
    assert summary.type_sizes == {"T": 2, "U": 1}
    assert {r["cf"] for r in summary.members_of_type("T").collect()} == {"d", "e"}
    assert [c.size for c in summary.classes] == [2]  # d, f
    summary.unpersist()
    store.unpersist()
