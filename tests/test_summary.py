"""Unit tests for the structural summary (RDFQuotient substrate)."""
import pytest

from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import RDF_TYPE, TripleStore, triples_from_rows
from tests.helpers import subjects_with_properties


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
    assert len(summary.classes) == 2
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


@pytest.fixture(scope="module")
def typed(spark):
    # "e" has rdf:type only: a node with a type, in no class.
    rows = [
        ("a", RDF_TYPE, "T1"), ("a", "p1", "x"), ("a", "p1", "y"), ("a", "p2", "1"),
        ("b", RDF_TYPE, "T1"), ("b", RDF_TYPE, "T2"), ("b", "p2", "2"),
        ("c", "p3", "a"),
        ("e", RDF_TYPE, "T3"),
    ]
    store = TripleStore(triples_from_rows(spark, rows))
    summary = StructuralSummary(store)
    yield store, summary
    summary.unpersist()
    store.unpersist()


def _having(summary, props):
    df, size = summary.members_having(props)
    members = {r["cf"] for r in df.collect()}
    assert len(members) == size
    return members


def test_members_having_single(typed):
    _, summary = typed
    assert _having(summary, ["p2"]) == {"a", "b"}


def test_members_having_conjunctive(typed):
    _, summary = typed
    assert _having(summary, ["p1", "p2"]) == {"a"}
    assert _having(summary, ["p1", "p3"]) == set()


@pytest.mark.parametrize(
    "props", [[RDF_TYPE], [RDF_TYPE, "p2"], ["p1", RDF_TYPE], ["p3", RDF_TYPE]],
    ids=lambda p: "+".join(p),
)
def test_members_having_type_match_reference(typed, props):
    # rdf:type counts as a property: its nodes have at least one type.
    store, summary = typed
    reference = {r["cf"] for r in subjects_with_properties(store, props).collect()}
    assert _having(summary, props) == reference
