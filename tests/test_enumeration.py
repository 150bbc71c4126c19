"""Unit tests for aggregate enumeration (Step 3 rules)."""
import pytest

from repro.core.attributes import (
    AnalyzedAttribute,
    Attribute,
    AttributeStats,
    analyze_attributes,
    analyzed,
)
from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.enumeration import (
    LatticeSpec,
    count_distinct_mdas,
    dimension_transactions,
    eligible_dimensions,
    eligible_measures,
    enumerate_lattices,
)
from repro.rdf.triples import TripleStore, triples_from_rows
from tests.helpers import union_of


def _aa(name, *, support=100, n_distinct=5, numeric=False, kind="direct",
        derived_from=frozenset(), df=None):
    return AnalyzedAttribute(
        Attribute(name, df, kind, derived_from),
        AttributeStats(support, support, n_distinct, 0, numeric, 0.0, 0.0,
                       0.0 if numeric else None, 1.0 if numeric else None),
    )


CONFIG = SpadeConfig()


def test_dimension_support_rule():
    attrs = [_aa("good", support=80), _aa("rare", support=10)]
    got = eligible_dimensions(attrs, 100, CONFIG)
    assert [a.name for a in got] == ["good"]


def test_dimension_distinct_rule():
    attrs = [_aa("ok", n_distinct=20), _aa("id-like", n_distinct=90)]
    got = eligible_dimensions(attrs, 100, CONFIG)  # max = min(100, 50)
    assert [a.name for a in got] == ["ok"]


def test_dimension_needs_two_values():
    attrs = [_aa("const", n_distinct=1)]
    assert eligible_dimensions(attrs, 100, CONFIG) == []


def test_measures_must_be_numeric_and_frequent():
    attrs = [
        _aa("m", numeric=True, support=90),
        _aa("t", numeric=False, support=90),
        _aa("rare", numeric=True, support=10),
    ]
    got = eligible_measures(attrs, 100, CONFIG)
    assert [a.name for a in got] == ["m"]


@pytest.fixture(scope="module")
def enum_store(spark):
    rows = []
    for i in range(40):
        s = f"n{i}"
        rows.append((s, "rdf:type", "T"))
        rows.append((s, "d1", f"v{i % 4}"))
        rows.append((s, "d2", f"w{i % 3}"))
        rows.append((s, "m", str(float(i))))
        if i % 2 == 0:
            rows.append((s, "d3", f"u{i % 5}"))
    store = TripleStore(triples_from_rows(spark, rows))
    yield store
    store.unpersist()


@pytest.fixture(scope="module")
def enum_attrs(enum_store):
    attrs = [
        Attribute(n, enum_store.property_table(n), "direct")
        for n in ("d1", "d2", "d3", "m")
    ]
    stats, patterns = analyze_attributes(
        enum_store.nodes_of_type("T"), attrs, union_of(attrs)
    )
    return patterns, analyzed(attrs, stats)


def test_dimension_transactions(enum_attrs):
    patterns, alist = enum_attrs
    dims = [a for a in alist if a.name in ("d1", "d2", "d3")]
    tx = dimension_transactions(patterns, dims)
    as_dict = {t: w for t, w in tx}
    assert as_dict[frozenset({"d1", "d2", "d3"})] == 20
    assert as_dict[frozenset({"d1", "d2"})] == 20


def test_enumerate_lattices_mfs(enum_attrs):
    patterns, alist = enum_attrs
    specs = enumerate_lattices("T", 40, alist, patterns, SpadeConfig())
    # d3 has support 0.5 => {d1, d2, d3} is frequent at the 0.5
    # threshold and is the single maximal set.
    assert len(specs) == 1
    assert set(specs[0].dims) == {"d1", "d2", "d3"}


def test_enumerate_lattices_higher_threshold(enum_attrs):
    patterns, alist = enum_attrs
    specs = enumerate_lattices(
        "T", 40, alist, patterns, SpadeConfig(mfs_min_support_frac=0.75,
                                              min_support_frac=0.75)
    )
    assert len(specs) == 1 and set(specs[0].dims) == {"d1", "d2"}


def test_measures_exclude_dims(enum_attrs):
    patterns, alist = enum_attrs
    specs = enumerate_lattices("T", 40, alist, patterns, SpadeConfig())
    assert specs[0].measures == ("m",)


def test_dims_ordered_by_distinct_count(enum_attrs):
    patterns, alist = enum_attrs
    specs = enumerate_lattices("T", 40, alist, patterns, SpadeConfig())
    by_name = {a.name: a.stats.n_distinct for a in alist}
    counts = [by_name[d] for d in specs[0].dims]
    assert counts == sorted(counts, reverse=True)


def test_conflict_resolution_derived_dim():
    # nationality and count(nationality) may not share a lattice.
    base = _aa("nat", support=100, n_distinct=5)
    derived = AnalyzedAttribute(
        Attribute("count(nat)", None, "count", frozenset({"nat"})),
        AttributeStats(90, 90, 3, 0, True, 0.0, 0.0, 1.0, 4.0),
    )
    from repro.core.enumeration import _resolve_conflicts

    got = _resolve_conflicts(
        frozenset({"nat", "count(nat)"}),
        {"nat": base, "count(nat)": derived},
    )
    assert got == frozenset({"nat"})  # higher support wins


def test_measure_conflicting_with_dim_excluded(enum_store):
    # count(d1) cannot measure a lattice whose dimension is d1.
    cfs = enum_store.nodes_of_type("T")
    attrs = [
        Attribute("d1", enum_store.property_table("d1"), "direct"),
        Attribute("d2", enum_store.property_table("d2"), "direct"),
        Attribute(
            "count(d1)",
            enum_store.property_table("d1").groupBy("s").count()
            .selectExpr("s", "cast(count as string) as o"),
            "count",
            frozenset({"d1"}),
        ),
        Attribute("m", enum_store.property_table("m"), "direct"),
    ]
    stats, patterns = analyze_attributes(cfs, attrs, union_of(attrs))
    specs = enumerate_lattices("T", 40, analyzed(attrs, stats), patterns, SpadeConfig())
    for spec in specs:
        if "d1" in spec.dims:
            assert "count(d1)" not in spec.measures


def test_n_aggregates_formula():
    spec = LatticeSpec("c", ("a", "b"), ("m1", "m2"),
                       {"m1": ("sum", "avg"), "m2": ("count",)})
    # 4 nodes x (1 count(*) + 3 measure-func pairs).
    assert spec.n_aggregates == 16


def test_mda_keys_cover_all_nodes():
    spec = LatticeSpec("c", ("a", "b"), ("m",), {"m": ("sum",)})
    keys = spec.mda_keys()
    nodes = {node for node, _, _ in keys}
    assert nodes == {frozenset(), frozenset({"a"}), frozenset({"b"}),
                     frozenset({"a", "b"})}
    assert (frozenset({"a"}), COUNT_STAR, "count") in keys


def test_count_distinct_mdas_dedupes_shared_nodes():
    s1 = LatticeSpec("c", ("a", "b"), (), {})
    s2 = LatticeSpec("c", ("a",), (), {})
    # s2's lattice ({a}, {}) is contained in s1's.
    assert count_distinct_mdas([s1, s2]) == count_distinct_mdas([s1])


def test_max_lattice_dims_cap(enum_attrs):
    patterns, alist = enum_attrs
    specs = enumerate_lattices("T", 40, alist, patterns,
                               SpadeConfig(max_lattice_dims=2))
    assert all(len(s.dims) <= 2 for s in specs)
