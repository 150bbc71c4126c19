"""Unit tests for the lattice of aggregates."""
import pytest

from repro.core.lattice import Lattice


@pytest.fixture(scope="module")
def lat3():
    # The Example 3 lattice: nationality, company/area, gender.
    return Lattice(("nationality", "company/area", "gender"))


def test_node_count(lat3):
    assert len(set(lat3.topological_order())) == 8  # 2^3


def test_topological_order_parents_first(lat3):
    order = lat3.topological_order()
    pos = {d: i for i, d in enumerate(order)}
    for dims in order:
        for parent in (dims | {d} for d in range(3) if d not in dims):
            assert pos[parent] < pos[dims]


def test_names_by_position(lat3):
    assert lat3.names(frozenset({0, 2})) == ("nationality", "gender")


def test_single_dim_lattice():
    lat = Lattice(("d",))
    assert lat.topological_order() == [frozenset({0}), frozenset()]
