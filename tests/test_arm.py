"""Unit tests for the Aggregate Result Manager and top-k computation."""
import pandas as pd
import pytest

from repro.core.arm import AggregateResultManager
from repro.core.mda import MDAKey


def _key(i):
    return MDAKey("cfs", ("d",), f"m{i}", "sum")


def _result(values):
    return pd.DataFrame({"d": [f"g{i}" for i in range(len(values))],
                         "value": values})


def test_add_and_len():
    arm = AggregateResultManager()
    arm.add(_key(1), _result([1.0, 2.0]))
    assert len(arm) == 1 and _key(1) in arm


def test_scores_variance():
    arm = AggregateResultManager()
    arm.add(_key(1), _result([1.0, 1.0, 1.0]))  # uniform: score 0
    arm.add(_key(2), _result([1.0, 100.0]))  # outlier: high score
    scores = arm.scores("variance")
    assert scores[_key(1)] == 0.0 and scores[_key(2)] > 1000


def test_top_k_order_and_size():
    arm = AggregateResultManager()
    for i, spread in enumerate([1.0, 50.0, 10.0]):
        arm.add(_key(i), _result([0.0, spread]))
    top2 = arm.top_k("variance", 2)
    assert [r.key for r in top2] == [_key(1), _key(2)]


def test_top_k_more_than_available():
    arm = AggregateResultManager()
    arm.add(_key(1), _result([0.0, 1.0]))
    assert len(arm.top_k("variance", 10)) == 1


def test_top_k_deterministic_ties():
    arm = AggregateResultManager()
    arm.add(_key(2), _result([0.0, 1.0]))
    arm.add(_key(1), _result([0.0, 1.0]))
    top = arm.top_k("variance", 2)
    assert [r.key for r in top] == sorted([_key(1), _key(2)])


def test_add_all_and_keys():
    arm = AggregateResultManager()
    arm.add_all({_key(1): _result([1.0]), _key(2): _result([2.0])})
    assert arm.keys() == sorted([_key(1), _key(2)])


def test_key_sorts_dims():
    a = MDAKey("c", ("b", "a"), "m", "sum")
    b = MDAKey("c", ("a", "b"), "m", "sum")
    assert a == b and a.dims == ("a", "b")


def test_key_label():
    assert "count(*)" in MDAKey("c", ("d",), "*", "count").label()
    assert "sum(m) by d" in MDAKey("c", ("d",), "m", "sum").label()
