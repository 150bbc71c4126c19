"""The offline phase's attribute layer (graph load).

The load builds every attribute table of a graph as one tagged union
(a, s, o) from a fixed set of statements over the triple frame. Its
rows, the attribute tables sliced from it and the offline statistics
are checked against pandas over the triples; its Spark cost must not
grow with the attribute count, and it must leave no cached frame but
the triples, the summary's node frame and the union. The load leaves
the caller's session settings as they were.
"""
import re

import pandas as pd
import pytest

from repro.core import spade
from repro.core.attributes import AttributeStats
from repro.core.config import SpadeConfig
from repro.core.derived import _ALL_STOPWORDS, LANG_STOPWORDS, DerivationCounts
from repro.rdf.triples import RDF_TYPE, TripleStore, triples_from_rows


@pytest.fixture(scope="module")
def fig1_offline(fig1, test_config):
    return spade.offline_phase(fig1, test_config)


@pytest.fixture(scope="module", params=["ceos", "fig1"])
def loaded(request, ceos_store, fig1, ceos_offline, fig1_offline):
    """(offline artifacts, the graph's distinct non-type triples, the
    derivation counts the graph had before the union was one plan)."""
    offline = {"ceos": ceos_offline, "fig1": fig1_offline}[request.param]
    store = {"ceos": ceos_store, "fig1": fig1}[request.param]
    triples = store.triples.toPandas()
    direct = (
        triples[triples["p"] != RDF_TYPE]
        .rename(columns={"p": "a"})[["a", "s", "o"]]
        .drop_duplicates()
    )
    counts = {
        "ceos": DerivationCounts(kw=2, lang=2, count=4, path=6),
        "fig1": DerivationCounts(count=2, path=1),
    }[request.param]
    return offline, triples, direct, counts


def _tokens(value: str) -> list[str]:
    return re.split(r"[^a-z]+", value.lower())


def _lang(value: str) -> str | None:
    """The language with the most distinct stopwords, first on ties."""
    hits = [(len(set(_tokens(value)) & set(ws)), tag) for tag, ws in LANG_STOPWORDS.items()]
    best = max(hits, key=lambda h: h[0])  # max keeps the first maximum
    return best[1] if best[0] > 0 else None


def _reference_rows(attribute, direct: pd.DataFrame, kw_min_len: int) -> set:
    """The (s, o) rows of one attribute, from the triples."""
    base = sorted(attribute.derived_from)
    if attribute.kind == "direct":
        t = direct[direct["a"] == attribute.name]
        return set(zip(t["s"], t["o"]))
    t = direct[direct["a"] == base[0]]
    if attribute.kind == "count":
        n = t.groupby("s")["o"].count()
        return {(s, str(c)) for s, c in n.items()}
    if attribute.kind == "kw":
        return {
            (s, w)
            for s, o in zip(t["s"], t["o"])
            for w in _tokens(o)
            if len(w) >= kw_min_len and w not in _ALL_STOPWORDS
        }
    if attribute.kind == "lang":
        return {(s, _lang(o)) for s, o in zip(t["s"], t["o"]) if _lang(o)}
    assert attribute.kind == "path"
    (ref, target), = [
        (r, b) for r in base for b in base if f"{r}/{b}" == attribute.name
    ]
    x = direct[direct["a"] == ref]
    y = direct[direct["a"] == target]
    joined = x.merge(y, left_on="o", right_on="s", suffixes=("", "_y"))
    return set(zip(joined["s"], joined["o_y"]))


def test_union_equals_pandas_reference(loaded, test_config):
    offline, _, direct, counts = loaded
    union = offline.attr_union.toPandas()
    assert not union.duplicated().any()
    assert offline.derivations == counts
    assert {a.kind for a in offline.attributes} >= {"direct", "count", "path"}
    expected = {
        (a.name, s, o)
        for a in offline.attributes
        for s, o in _reference_rows(a, direct, test_config.kw_min_len)
    }
    assert set(zip(union["a"], union["s"], union["o"])) == expected
    assert len(union) == len(expected)


def test_every_kind_derived_on_ceos(ceos_offline):
    kinds = {a.kind for a in ceos_offline.attributes}
    assert kinds == {"direct", "count", "kw", "lang", "path"}


def test_attribute_tables_are_union_slices(loaded):
    offline, _, _, _ = loaded
    union = offline.attr_union.toPandas()
    for a in offline.attributes:
        rows = union[union["a"] == a.name]
        got = a.df.toPandas()
        assert list(got.columns) == ["s", "o"]
        assert set(zip(got["s"], got["o"])) == set(zip(rows["s"], rows["o"])), a.name
        assert len(got) == len(rows)


def _reference_stats(direct: pd.DataFrame, nodes: set) -> dict[str, AttributeStats]:
    out = {}
    for a, t in direct.groupby("a"):
        o = t["o"]
        v = pd.to_numeric(o, errors="coerce")
        numeric = bool(v.notna().all()) and o.notna().sum() > 0
        per_s = t.groupby("s")["o"].count()
        out[a] = AttributeStats(
            support=t["s"].nunique(),
            n_values=int(o.notna().sum()),
            n_distinct=o.nunique(),
            multi_count=int((per_s > 1).sum()),
            is_numeric=numeric,
            text_frac=float(o.str.contains(r"\s").mean()),
            ref_frac=float(o.isin(nodes).mean()),
            vmin=float(v.min()) if numeric else None,
            vmax=float(v.max()) if numeric else None,
        )
    return out


def test_offline_stats_equal_pandas_reference(loaded):
    offline, triples, direct, _ = loaded
    # is_node: the object is a subject of the graph.
    expected = _reference_stats(direct, set(triples["s"]))
    assert offline.offline_stats == expected
    assert sorted(a.name for a in offline.attributes if a.kind == "direct") == sorted(
        expected
    )


# -- cost of a load -----------------------------------------------------------
def _graph(spark, n_extra: int) -> TripleStore:
    """CEOs-like graph: a multi-valued ref property (count, path), a text
    property (kw, lang), a categorical property of the referred nodes
    (the path's end) and ``n_extra`` numeric single-valued properties,
    which derive nothing."""
    rows = []
    for i in range(6):
        rows += [(f"c{i}", RDF_TYPE, "Company"), (f"c{i}", "area", f"area{i % 3}")]
    for i in range(30):
        f = f"p{i}"
        rows += [
            (f, RDF_TYPE, "Person"),
            (f, "company", f"c{i % 6}"),
            (f, "company", f"c{(i + 1) % 6}"),
            (f, "bio", f"the owner of company number {i} with petroleum assets"),
        ]
        rows += [(f, f"x{j}", str(i * (j + 1))) for j in range(n_extra)]
    return TripleStore(triples_from_rows(spark, rows))


def _stages(spark, group, fn):
    """fn's result and the Spark stages its jobs ran, with adaptive
    execution off: it plans each shuffle stage as a job of its own."""
    sc = spark.sparkContext
    adaptive = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc._jsc.clearJobGroup()
        spark.conf.set("spark.sql.adaptive.enabled", adaptive)
    tracker = sc.statusTracker()
    stages = {
        sid
        for job in tracker.getJobIdsForGroup(group)
        for sid in tracker.getJobInfo(job).stageIds
    }
    return out, len(stages)


def test_load_stages_independent_of_attribute_count(spark):
    config = SpadeConfig()
    stages = {}
    for n_extra in (0, 9):
        store = _graph(spark, n_extra)
        spade.offline_phase(store, config)  # warm
        offline, stages[n_extra] = _stages(
            spark, f"test-load-{n_extra}", lambda: spade.offline_phase(store, config)
        )
        assert offline.n_direct == 3 + n_extra
        assert offline.derivations == DerivationCounts(kw=1, lang=1, count=1, path=1)
        store.unpersist()
    assert stages[0] == stages[9]


def _persisted(sc) -> set[int]:
    return {int(i) for i in sc._jsc.getPersistentRDDs().keySet()}


def test_load_caches_only_triples_summary_and_union(spark):
    sc = spark.sparkContext
    before = _persisted(sc)
    store = _graph(spark, 3)
    offline = spade.offline_phase(store, SpadeConfig())
    new = _persisted(sc) - before
    assert len(new) == 3
    union_rdd = offline.attr_union._jdf.queryExecution().logical().rdd().id()
    assert union_rdd in new
    store.unpersist()
    offline.summary.unpersist()
    assert _persisted(sc) - before == {union_rdd}


def _partitioning(df) -> str:
    return df._jdf.queryExecution().executedPlan().outputPartitioning().toString()


@pytest.mark.parametrize("adaptive", ["true", "false"])
def test_load_leaves_session_settings(spark, adaptive):
    # The checkpoints report their subject partitioning, into the
    # caller's partition count, with adaptive execution on or off.
    conf = spark.conf
    keys = ("spark.sql.adaptive.enabled", "spark.sql.shuffle.partitions")
    before = [conf.get(k) for k in keys]
    conf.set("spark.sql.adaptive.enabled", adaptive)
    conf.set("spark.sql.shuffle.partitions", "3")
    store = _graph(spark, 0)
    try:
        offline = spade.offline_phase(store, SpadeConfig())
        assert [conf.get(k) for k in keys] == [adaptive, "3"]
        for frame in (offline.attr_union, offline.summary.nodes):
            assert re.fullmatch(r"hashpartitioning\(s#\d+, 3\)", _partitioning(frame))
            assert frame.rdd.getNumPartitions() == 3
        offline.summary.unpersist()
    finally:
        store.unpersist()
        for k, v in zip(keys, before):
            conf.set(k, v)
