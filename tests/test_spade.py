"""End-to-end tests of the Spade pipeline (Figure 2)."""
import re
from dataclasses import replace

import pandas as pd
import pytest

from repro.core import mvdcube, spade
from repro.core.config import SpadeConfig
from repro.core.earlystop import draw_root_samples
from repro.core.mda import MDAKey
from repro.tables.table3 import results_differ


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


# ---------------------------------------------------------------------------
# Every CFS of a request in one statement
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixed_analyses(ceos_offline, test_config):
    """Several CFSs with lattices: some with multi-valued dimensions, at
    least one with none."""
    analyses = spade.analyze_and_enumerate(
        ceos_offline, replace(test_config, max_cfss=4), {}
    )
    with_lattices = [a for a in analyses if a.lattices]
    assert len(with_lattices) >= 2
    assert {bool(a.multi_valued_dims) for a in with_lattices} == {True, False}
    return analyses


@pytest.mark.parametrize("evaluator", ["mvdcube", "pgcube*"])
def test_cfss_evaluated_together_equal_each_alone(
    spark, mixed_analyses, test_config, evaluator
):
    together = spade.evaluate_analyses(
        spark, mixed_analyses, test_config, evaluator=evaluator
    ).arm
    keys = []
    for a in mixed_analyses:
        alone = spade.evaluate_analyses(spark, [a], test_config, evaluator=evaluator).arm
        keys += alone.keys()
        for key in alone.keys():
            assert not results_differ(
                together.get(key).result, alone.get(key).result
            ), key
    assert sorted(keys) == together.keys()


def test_cfss_sampled_together_equal_each_alone(mixed_analyses, test_config):
    def samples(analyses):
        """The pre-aggregates and each lattice's sample."""
        preagg, roots = spade.cube_inputs(analyses)
        lattices = [spec for a in analyses for spec in a.lattices]
        drawn = draw_root_samples(
            [(root, len(spec.dims)) for spec, root in zip(lattices, roots)],
            preagg,
            capacity=test_config.es_sample_size,
            seed=test_config.seed,
        )
        return [(preagg, spec, sample) for spec, sample in zip(lattices, drawn)]

    together = samples(mixed_analyses)
    alone = [s for a in mixed_analyses if a.lattices for s in samples([a])]
    assert len(alone) == len(together)
    for (preagg, spec, mixed), (own_preagg, own_spec, own) in zip(together, alone):
        assert own_spec == spec
        base = [f"d{i}" for i in range(len(spec.dims))] + ["cf", "__prio", "n"]
        pd.testing.assert_frame_equal(mixed.rows[base], own.rows[base])
        for m in spec.measures:
            cols, own_cols = preagg.columns_for(m), own_preagg.columns_for(m)
            for f in cols:
                # A count is an integer column unless a null widens it.
                pd.testing.assert_series_equal(
                    mixed.rows[cols[f]], own.rows[own_cols[f]],
                    check_names=False, check_dtype=False,
                )


def test_distinct_planned_per_cfs(spark, mixed_analyses, test_config, monkeypatch):
    planned = []
    kernel = mvdcube.cube_query

    def recorded(lattices, *args, **kwargs):
        query = kernel(lattices, *args, **kwargs)
        planned.append((lattices, query.text))
        return query

    monkeypatch.setattr(mvdcube, "cube_query", recorded)
    spade.evaluate_analyses(spark, mixed_analyses, test_config)
    [(lattices, text)] = planned
    deduped = set(re.findall(
        r"SELECT DISTINCT \* FROM \(SELECT cf AS cf, inline\(.*?\) FROM (r\d+)\)", text
    ))
    multi = {a.cfs.name: a.multi_valued_dims for a in mixed_analyses}
    cfss = [nodes[0].cfs_name for _, _, nodes, _ in lattices]
    assert len(set(cfss)) >= 2 and deduped
    for li, name in enumerate(cfss):
        if not multi[name]:
            assert f"r{li}" not in deduped, name
