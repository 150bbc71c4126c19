"""Unit tests for Candidate Fact Set selection."""
import pytest

from repro.core.cfs import analyzable, graph_cfss, select_cfss
from repro.core.config import SpadeConfig
from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import TripleStore, triples_from_rows


@pytest.fixture(scope="module")
def setup(spark):
    rows = []
    for i in range(30):
        rows += [(f"a{i}", "rdf:type", "T1"), (f"a{i}", "p1", "x"), (f"a{i}", "p2", "y")]
    for i in range(5):
        rows += [(f"b{i}", "rdf:type", "T2"), (f"b{i}", "p1", "x")]
    store = TripleStore(triples_from_rows(spark, rows))
    summary = StructuralSummary(store)
    yield store, graph_cfss(summary)
    summary.unpersist()
    store.unpersist()


def test_type_based_cfss(setup):
    store, graph = setup
    cfss = select_cfss(store, graph, SpadeConfig(min_cfs_size=1))
    names = {c.name for c in cfss if c.source == "type"}
    assert names == {"type:T1", "type:T2"}


def test_summary_based_cfss(setup):
    store, graph = setup
    cfss = select_cfss(store, graph, SpadeConfig(min_cfs_size=1))
    sizes = sorted(c.size for c in cfss if c.source == "summary")
    assert sizes == [5, 30]


def test_property_based_cfss(setup):
    store, graph = setup
    config = SpadeConfig(property_cfss=(("p1", "p2"),))
    cfss = select_cfss(store, graph, config)
    prop = [c for c in cfss if c.source == "property"]
    assert len(prop) == 1 and prop[0].size == 30


def test_sizes_match_members(setup):
    store, graph = setup
    for c in select_cfss(store, graph, SpadeConfig(min_cfs_size=1)):
        assert c.df.count() == c.size


def test_sorted_by_size(setup):
    store, graph = setup
    cfss = select_cfss(store, graph, SpadeConfig(min_cfs_size=1))
    sizes = [c.size for c in cfss]
    assert sizes == sorted(sizes, reverse=True)


def test_analyzable_min_size(setup):
    store, graph = setup
    cfss = select_cfss(store, graph, SpadeConfig(min_cfs_size=1))
    big = analyzable(cfss, SpadeConfig(min_cfs_size=10, max_cfss=None))
    assert all(c.size >= 10 for c in big)


def test_analyzable_cap(setup):
    store, graph = setup
    cfss = select_cfss(store, graph, SpadeConfig(min_cfs_size=1))
    top = analyzable(cfss, SpadeConfig(min_cfs_size=1, max_cfss=2))
    assert len(top) == 2 and top[0].size >= top[1].size


def test_summary_min_size_filter(setup):
    store, graph = setup
    cfss = select_cfss(store, graph, SpadeConfig(min_cfs_size=10))
    assert all(c.size >= 10 for c in cfss if c.source == "summary")


def test_graph_cfss_match_types_and_summary(ceos_offline, test_config):
    # One CFS per rdf:type and per summary class at or above the size
    # threshold, sized as pandas counts them (Table 2's #CFSs).
    store, summary = ceos_offline.store, ceos_offline.summary
    typed = store.triples.toPandas().query("p == 'rdf:type'").drop_duplicates()
    cfss = select_cfss(store, ceos_offline.cfss, test_config)
    by_source = {src: {c.name: c.size for c in cfss if c.source == src}
                 for src in ("type", "summary")}
    assert by_source["type"] == {
        f"type:{t}": n for t, n in typed.groupby("o")["s"].nunique().items()
    }
    assert len(by_source["summary"]) == sum(
        c.size >= test_config.min_cfs_size for c in summary.classes
    )
    assert len(cfss) == len(by_source["type"]) + len(by_source["summary"])
