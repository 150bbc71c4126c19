"""Sanity checks that the DuckDB oracle wiring catches real issues, on
small hand-made line-item and order frames."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

LINEITEM = [  # (l_orderkey, l_quantity, l_returnflag)
    (1, 17.0, "N"),
    (1, 36.0, "N"),
    (2, 8.0, "R"),
    (3, 28.0, "A"),
    (3, 24.0, "R"),
    (4, 30.0, "N"),
    (5, 15.0, "A"),
]
ORDERS = [  # (o_orderkey, o_orderpriority)
    (1, "1-URGENT"),
    (2, "5-LOW"),
    (3, "1-URGENT"),
    (4, "3-MEDIUM"),
    (5, "5-LOW"),
    (6, "2-HIGH"),  # no line items
]


@pytest.fixture(scope="module")
def lineitem(spark):
    return spark.createDataFrame(
        LINEITEM, "l_orderkey INT, l_quantity DOUBLE, l_returnflag STRING"
    )


@pytest.fixture(scope="module")
def orders(spark):
    return spark.createDataFrame(ORDERS, "o_orderkey INT, o_orderpriority STRING")


def test_lineitem_groupby_matches_duckdb(lineitem):
    got = (
        lineitem.groupBy("l_returnflag")
        .agg(F.sum("l_quantity").alias("qty"), F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
        "FROM lineitem GROUP BY l_returnflag",
        lineitem=lineitem,
    )


def test_join_aggregate_matches_duckdb(lineitem, orders):
    got = (
        lineitem.join(orders, lineitem.l_orderkey == orders.o_orderkey)
        .groupBy("o_orderpriority")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        "SELECT o_orderpriority, COUNT(*) AS n FROM lineitem l "
        "JOIN orders o ON l.l_orderkey = o.o_orderkey GROUP BY o_orderpriority",
        lineitem=lineitem,
        orders=orders,
    )


def test_oracle_detects_wrong_result(lineitem):
    wrong = lineitem.groupBy("l_returnflag").agg(
        (F.sum("l_quantity") + 1).alias("qty")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT l_returnflag, SUM(l_quantity) AS qty FROM lineitem "
            "GROUP BY l_returnflag",
            lineitem=lineitem,
        )
