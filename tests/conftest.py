"""Session-scoped stores and pipeline artifacts shared across tests.

Everything here is derived from the root conftest's ``spark`` fixture;
graphs are tiny (SF<=0.1-equivalent) so the whole suite stays fast.
"""
from __future__ import annotations

import os

# Tiny test graphs do not need 64-way shuffles; the root conftest reads
# this env var when building the session (must be set at import time,
# before the fixture instantiates the session).
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import pytest

from repro.core import spade
from repro.core.config import SpadeConfig
from repro.datagen import real_graphs
from tests.helpers import figure1_store


@pytest.fixture(scope="session")
def fig1(spark):
    """The paper's Figure 1 running-example graph."""
    store = figure1_store(spark)
    yield store
    store.unpersist()


@pytest.fixture(scope="session")
def ceos_store(spark):
    """A small CEOs analog (heterogeneous, multi-valued)."""
    store = real_graphs.build(spark, "CEOs", sf=0.12)
    yield store
    store.unpersist()


@pytest.fixture(scope="session")
def airline_store(spark):
    """A small Airline analog (single-valued, relational-style)."""
    store = real_graphs.build(spark, "Airline", sf=0.05)
    yield store
    store.unpersist()


@pytest.fixture(scope="session")
def test_config():
    """Pipeline knobs sized for the tiny test graphs."""
    return SpadeConfig(
        min_cfs_size=10,
        max_cfss=2,
        max_lattices_per_cfs=2,
        max_measures_per_lattice=2,
        funcs=("count", "sum", "avg"),
        max_paths=10,
    )


@pytest.fixture(scope="session")
def ceos_offline(ceos_store, test_config):
    """The CEOs analog's offline phase (its graph-level artifacts)."""
    return spade.offline_phase(ceos_store, test_config)
