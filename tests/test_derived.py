"""Unit tests for derived property enumeration (counts, kw, lang, paths)."""
import pytest

from repro.core.attributes import direct_part, offline_property_stats
from repro.core.config import SpadeConfig
from repro.core.derived import (
    count_attribute,
    derivations,
    derive_attributes,
    enumerate_path_pairs,
    kw_attribute,
    lang_attribute,
    path_attribute,
)
from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import TripleStore, triples_from_rows


@pytest.fixture(scope="module")
def store(spark):
    rows = [
        ("n1", "nationality", "Angola"),
        ("n2", "nationality", "France"),
        ("n2", "nationality", "Brazil"),
        ("n1", "company", "c1"),
        ("n1", "company", "c2"),
        ("n2", "company", "c2"),
        ("c1", "area", "Diamond"),
        ("c2", "area", "Automotive"),
        ("n1", "bio", "the daughter of the president with petroleum interests"),
        ("n2", "bio", "le directeur de la production automobile avec une carriere"),
    ]
    s = TripleStore(triples_from_rows(spark, rows))
    yield s
    s.unpersist()


@pytest.fixture(scope="module")
def direct(store):
    return direct_part(store)


@pytest.fixture(scope="module")
def stats(store, direct):
    return offline_property_stats(direct, StructuralSummary(store).nodes)


def _pairs(direct, attribute):
    """The (s, o) rows of one derived attribute."""
    rows = [r for q in derivations(direct, [attribute], 4) for r in q.run().collect()]
    assert {r["a"] for r in rows} <= {attribute.name}
    return {(r["s"], r["o"]) for r in rows}


def test_count_attribute(direct):
    got = _pairs(direct, count_attribute("nationality"))
    assert got == {("n1", "1"), ("n2", "2")}


def test_count_attribute_name_and_lineage():
    a = count_attribute("nationality")
    assert a.name == "count(nationality)"
    assert a.derived_from == frozenset({"nationality"})


def test_kw_attribute_extracts_long_words(direct):
    got = _pairs(direct, kw_attribute("bio"))
    assert ("n1", "petroleum") in got
    assert ("n1", "daughter") in got


def test_kw_attribute_drops_stopwords_and_short(direct):
    got = _pairs(direct, kw_attribute("bio"))
    words = {w for _, w in got}
    assert "the" not in words and "of" not in words and "de" not in words


def test_lang_attribute(direct):
    got = _pairs(direct, lang_attribute("bio"))
    assert ("n1", "en") in got
    assert ("n2", "fr") in got


def test_path_attribute(direct):
    got = _pairs(direct, path_attribute("company", "area"))
    assert got == {
        ("n1", "Diamond"),
        ("n1", "Automotive"),
        ("n2", "Automotive"),
    }


def test_path_attribute_lineage():
    a = path_attribute("company", "area")
    assert a.name == "company/area"
    assert a.derived_from == frozenset({"company", "area"})


def test_enumerate_path_pairs(direct):
    pairs = enumerate_path_pairs(direct, ["company"])
    assert ("company", "area", 2) in pairs


def test_enumerate_path_pairs_empty(direct):
    assert enumerate_path_pairs(direct, []) == []


def test_derive_attributes_kinds(direct, stats):
    config = SpadeConfig()
    derived, counts = derive_attributes(direct, stats, config)
    names = {a.name for a in derived}
    assert "count(nationality)" in names
    assert "count(company)" in names
    assert "kw(bio)" in names and "lang(bio)" in names
    assert "company/area" in names
    assert counts.total == len(derived)


def test_derivations_disabled(direct, stats):
    config = SpadeConfig(enable_derivations=False)
    derived, counts = derive_attributes(direct, stats, config)
    assert derived == [] and counts.total == 0


def test_no_path_through_non_ref(direct, stats):
    config = SpadeConfig()
    derived, _ = derive_attributes(direct, stats, config)
    # nationality values are not graph nodes: no nationality/* paths.
    assert not any(a.name.startswith("nationality/") for a in derived)


def test_max_paths_cap(direct, stats):
    config = SpadeConfig(max_paths=0)
    derived, counts = derive_attributes(direct, stats, config)
    assert counts.path == 0
