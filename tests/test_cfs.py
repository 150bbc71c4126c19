"""Unit tests for Candidate Fact Set selection."""
import pytest

from repro.core.cfs import analyzable, graph_cfss, select_cfss
from repro.core.config import SpadeConfig
from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import RDF_TYPE, TripleStore, triples_from_rows
from tests.helpers import subjects_with_properties


@pytest.fixture(scope="module")
def setup(spark):
    rows = []
    for i in range(30):
        rows += [(f"a{i}", "rdf:type", "T1"), (f"a{i}", "p1", "x"), (f"a{i}", "p2", "y")]
    for i in range(5):
        rows += [(f"b{i}", "rdf:type", "T2"), (f"b{i}", "p1", "x")]
    store = TripleStore(triples_from_rows(spark, rows))
    summary = StructuralSummary(store)
    yield summary, graph_cfss(summary)
    summary.unpersist()
    store.unpersist()


def test_type_based_cfss(setup):
    summary, graph = setup
    cfss = select_cfss(summary, graph, SpadeConfig(min_cfs_size=1))
    names = {c.name for c in cfss if c.source == "type"}
    assert names == {"type:T1", "type:T2"}


def test_summary_based_cfss(setup):
    summary, graph = setup
    cfss = select_cfss(summary, graph, SpadeConfig(min_cfs_size=1))
    sizes = sorted(c.size for c in cfss if c.source == "summary")
    assert sizes == [5, 30]


def test_property_based_cfss(setup):
    summary, graph = setup
    config = SpadeConfig(property_cfss=(("p1", "p2"),))
    cfss = select_cfss(summary, graph, config)
    prop = [c for c in cfss if c.source == "property"]
    assert len(prop) == 1 and prop[0].size == 30


def test_sizes_match_members(setup):
    summary, graph = setup
    for c in select_cfss(summary, graph, SpadeConfig(min_cfs_size=1)):
        assert c.df.count() == c.size


def test_sorted_by_size(setup):
    summary, graph = setup
    cfss = select_cfss(summary, graph, SpadeConfig(min_cfs_size=1))
    sizes = [c.size for c in cfss]
    assert sizes == sorted(sizes, reverse=True)


def test_analyzable_min_size(setup):
    summary, graph = setup
    cfss = select_cfss(summary, graph, SpadeConfig(min_cfs_size=1))
    big = analyzable(cfss, SpadeConfig(min_cfs_size=10, max_cfss=None))
    assert all(c.size >= 10 for c in big)


def test_analyzable_cap(setup):
    summary, graph = setup
    cfss = select_cfss(summary, graph, SpadeConfig(min_cfs_size=1))
    top = analyzable(cfss, SpadeConfig(min_cfs_size=1, max_cfss=2))
    assert len(top) == 2 and top[0].size >= top[1].size


def test_summary_min_size_filter(setup):
    summary, graph = setup
    cfss = select_cfss(summary, graph, SpadeConfig(min_cfs_size=10))
    assert all(c.size >= 10 for c in cfss if c.source == "summary")


def test_graph_cfss_match_types_and_summary(ceos_store, ceos_offline, test_config):
    # One CFS per rdf:type and per summary class at or above the size
    # threshold, sized as pandas counts them (Table 2's #CFSs).
    store, summary = ceos_store, ceos_offline.summary
    typed = store.triples.toPandas().query("p == 'rdf:type'").drop_duplicates()
    cfss = select_cfss(summary, ceos_offline.cfss, test_config)
    by_source = {src: {c.name: c.size for c in cfss if c.source == src}
                 for src in ("type", "summary")}
    assert by_source["type"] == {
        f"type:{t}": n for t, n in typed.groupby("o")["s"].nunique().items()
    }
    assert len(by_source["summary"]) == sum(
        c.size >= test_config.min_cfs_size for c in summary.classes
    )
    assert len(cfss) == len(by_source["type"]) + len(by_source["summary"])


def test_property_cfss_match_reference_aggregate(ceos_store, ceos_offline):
    # A property-based CFS is the union of the summary classes whose
    # property set contains the CFS's: the same members and size as an
    # aggregate over the triples, rdf:type included.
    store, summary = ceos_store, ceos_offline.summary
    props = sorted(summary.all_properties())
    sets = [[p] for p in props] + [list(pq) for pq in zip(props, props[1:])]
    sets += [[RDF_TYPE]] + [[RDF_TYPE, p] for p in props[:4]]
    config = SpadeConfig(min_cfs_size=1, property_cfss=tuple(map(tuple, sets)))
    got = {c.name: c for c in select_cfss(summary, ceos_offline.cfss, config)
           if c.source == "property"}
    assert len(got) == len(sets)
    for ps in sets:
        cfs = got["props:" + "+".join(ps)]
        members = {r["cf"] for r in cfs.df.collect()}
        reference = {r["cf"] for r in subjects_with_properties(store, ps).collect()}
        assert members == reference and cfs.size == len(reference), ps
