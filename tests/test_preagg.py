"""Unit tests for per-CF pre-aggregated measures."""
import math

import pytest

from repro.core.attributes import Attribute
from repro.core.preagg import preaggregate
from repro.rdf.triples import TripleStore, triples_from_rows
from tests.helpers import property_table, union_of


@pytest.fixture(scope="module")
def preagg(spark):
    rows = [
        ("a", "m", "1"), ("a", "m", "3"),
        ("b", "m", "10"),
        ("a", "w", "5.5"),
        ("c", "w", "bad-value"),  # non-numeric values are dropped
        ("c", "w", "2"),
    ]
    store = TripleStore(triples_from_rows(spark, rows))
    attrs = [
        Attribute("m", property_table(store, "m"), "direct"),
        Attribute("w", property_table(store, "w"), "direct"),
    ]
    pa = preaggregate(union_of(attrs), ["m", "w"])
    rows_by_cf = {r["cf"]: r.asDict() for r in pa.query.run().collect()}
    yield pa, rows_by_cf
    store.unpersist()


def test_measure_positions(preagg):
    pa, _ = preagg
    assert pa.measures == ("m", "w")
    assert pa.index_of("w") == 1
    assert pa.columns_for("m")["sum"] == "m0_sum"


def test_multivalued_cnt_sum(preagg):
    _, rows = preagg
    assert rows["a"]["m0_cnt"] == 2 and rows["a"]["m0_sum"] == 4.0


def test_min_max(preagg):
    _, rows = preagg
    assert rows["a"]["m0_min"] == 1.0 and rows["a"]["m0_max"] == 3.0


def test_single_valued(preagg):
    _, rows = preagg
    assert rows["b"]["m0_cnt"] == 1 and rows["b"]["m0_sum"] == 10.0


def test_missing_measure_is_null(preagg):
    _, rows = preagg
    assert rows["b"]["m1_cnt"] is None  # b has no w


def test_dirty_values_dropped(preagg):
    _, rows = preagg
    assert rows["c"]["m1_cnt"] == 1 and rows["c"]["m1_sum"] == 2.0


def test_outer_join_keeps_all_cfs(preagg):
    _, rows = preagg
    assert set(rows) == {"a", "b", "c"}
