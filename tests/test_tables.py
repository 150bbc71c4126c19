"""Smoke + shape tests for the table-reproduction harnesses.

These assert the *shapes* the paper reports: Airline has no
derivations and no PGCube errors (Table 2/3); the multi-valued CEOs
analog has both; early-stop prunes without destroying the top-k
(Table 4). Small scale factors keep them fast — the jobs/ entrypoints
run the same harnesses at full scale.
"""
import math
from dataclasses import replace

import pytest

from repro.core import spade
from repro.core.config import SpadeConfig
from repro.tables.table2 import profile_dataset
from repro.tables.table3 import (
    _evaluate_all,
    analyze_dataset_errors,
    dataset_errors,
    error_ratios,
    results_differ,
)
from repro.tables.table4 import earlystop_effectiveness

CFG = SpadeConfig(
    min_cfs_size=10,
    max_cfss=2,
    max_lattices_per_cfs=2,
    max_measures_per_lattice=2,
    funcs=("count", "sum", "avg"),
    max_paths=10,
)


# ---------------------------------------------------------------------------
# results_differ / error_ratios unit behavior
# ---------------------------------------------------------------------------
import pandas as pd


def test_results_differ_equal():
    a = pd.DataFrame({"d": ["x"], "value": [1.0]})
    assert not results_differ(a, a.copy())


def test_results_differ_value():
    a = pd.DataFrame({"d": ["x"], "value": [1.0]})
    b = pd.DataFrame({"d": ["x"], "value": [2.0]})
    assert results_differ(a, b)


def test_results_differ_groups():
    a = pd.DataFrame({"d": ["x"], "value": [1.0]})
    b = pd.DataFrame({"d": ["x", "y"], "value": [1.0, 1.0]})
    assert results_differ(a, b)


def test_error_ratios():
    m = pd.DataFrame({"d": ["x", "y"], "value": [2.0, 4.0]})
    p = pd.DataFrame({"d": ["x", "y"], "value": [6.0, 4.0]})
    assert sorted(error_ratios(m, p)) == [1.0, 3.0]


def test_error_ratios_no_dims():
    m = pd.DataFrame({"value": [2.0]})
    p = pd.DataFrame({"value": [5.0]})
    assert error_ratios(m, p) == [2.5]


# ---------------------------------------------------------------------------
# Table 2 shapes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["Airline", "CEOs"])
def test_table2_profile(spark, name):
    row = profile_dataset(spark, name, sf=0.08, config=CFG)
    assert row.n_triples > 100
    assert row.n_cfss >= 1 and row.n_p >= 4
    if name == "Airline":
        # R1 shape: relational data yields no derivations, woD == wD.
        assert row.dp_kw == row.dp_lang == row.dp_count == row.dp_path == 0
        assert row.n_a_wod == row.n_a_wd
    else:
        # Native RDF: derivations enlarge the aggregate space.
        assert row.dp_count > 0 and row.dp_path > 0
        assert row.n_a_wd >= row.n_a_wod


# ---------------------------------------------------------------------------
# Table 3 shapes
# ---------------------------------------------------------------------------
def test_table3_airline_no_errors(spark):
    e = analyze_dataset_errors(spark, "Airline", sf=0.05, config=CFG)
    assert e.n_aggregates > 0
    assert e.wrong_star == 0 and e.wrong_distinct == 0


def test_table3_ceos_has_errors(spark):
    e = analyze_dataset_errors(spark, "CEOs", sf=0.1, config=CFG)
    assert e.n_aggregates > 0
    # R4 shape: multi-valued data breaks PGCube; count(distinct) helps
    # but cannot fix sum/avg.
    assert e.wrong_star > 0
    assert 0 < e.wrong_distinct <= e.wrong_star
    # R5 shape: ratios are >= 1 (PGCube only overestimates).
    assert all(r >= 1.0 - 1e-9 for r in e.ratios)
    assert max(e.ratios, default=1.0) > 1.0


@pytest.fixture(scope="module")
def ceos_all(ceos_offline, test_config):
    """Every analyzable CFS of the CEOs fixture, measure-less ones too."""
    analyses = spade.analyze_and_enumerate(
        ceos_offline, replace(test_config, max_cfss=8), {}
    )
    assert any(a.lattices and not any(sp.measures for sp in a.lattices)
               for a in analyses)
    return analyses


def test_table3_evaluates_what_requests_evaluate(spark, ceos_all, test_config):
    mvd, *_ = _evaluate_all(ceos_all)
    arm = spade.evaluate_analyses(spark, ceos_all, test_config).arm
    assert sorted(mvd) == arm.keys()
    for key, res in mvd.items():
        assert not results_differ(res, arm.get(key).result), key


def test_table3_counts_count_star_of_measureless_cfs(ceos_all):
    bare = [
        replace(a, lattices=[replace(sp, measures=(), funcs={}) for sp in a.lattices])
        for a in ceos_all if a.cfs.name == "type:CEO"
    ]
    e = dataset_errors("CEOs", bare)
    nodes = {(a.cfs.name, dims) for a in bare for sp in a.lattices
             for dims, _, _ in sp.mda_keys()}
    assert e.n_aggregates == len(nodes) > 0
    # Lemma 1: nodes that drop company/area count its CEOs once per
    # area under PGCube*; count(DISTINCT cf) counts them once.
    assert e.wrong_star > 0 == e.wrong_distinct


# ---------------------------------------------------------------------------
# Table 4 shapes
# ---------------------------------------------------------------------------
def test_table4_earlystop_rows(spark, ceos_store):
    rows = earlystop_effectiveness(
        spark, "CEOs", ks=(3,), config=CFG, store=ceos_store
    )
    (row,) = rows
    assert row.k == 3
    assert row.t_mvd_ms > 0 and row.t_mvd_es_ms > 0
    assert 0.0 <= row.pruned_pct <= 100.0
    assert 0.0 <= row.accuracy_pct <= 100.0
