"""Table 2 + Experiment 1 (R1): dataset profiles and derivation benefit.

For each (synthetic analog of a) real dataset, reports the columns of
the paper's Table 2: #triples, #CFSs, #P (direct properties), #DP by
kind (kw / lang / count / path), and the number of candidate
aggregates without (#A_woD) and with (#A_wD) derivations. Experiment 1
additionally compares the best interestingness scores in the two
settings (the paper's Figure 7 "derivations increase interestingness
of the best aggregates").
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import spade
from repro.core.cfs import select_cfss
from repro.core.config import SpadeConfig
from repro.core.enumeration import count_distinct_mdas
from repro.datagen import real_graphs


@dataclass
class Table2Row:
    """One dataset's profile (one row of Table 2)."""

    dataset: str
    n_triples: int
    n_cfss: int
    n_p: int  # direct properties
    dp_kw: int
    dp_lang: int
    dp_count: int
    dp_path: int
    n_a_wod: int  # candidate MDAs without derivations
    n_a_wd: int  # candidate MDAs with derivations
    best_score_wod: float
    best_score_wd: float


def profile_dataset(
    spark: SparkSession,
    name: str,
    *,
    sf: float = 1.0,
    config: SpadeConfig | None = None,
    with_scores: bool = False,
    k: int = 3,
) -> Table2Row:
    """Profile one dataset analog in both woD and wD settings."""
    config = config or SpadeConfig()
    store = real_graphs.build(spark, name, sf=sf)
    n_triples = store.num_triples()

    # wD: full offline phase with derivations.
    off_wd = spade.offline_phase(store, config)
    n_cfss = len(select_cfss(off_wd.summary, off_wd.cfss, config))
    times: dict[str, float] = {}
    analyses_wd = spade.analyze_and_enumerate(off_wd, config, times)
    n_a_wd = count_distinct_mdas([sp for a in analyses_wd for sp in a.lattices])

    # woD: derivations disabled.
    cfg_wod = replace(config, enable_derivations=False)
    off_wod = spade.offline_phase(store, cfg_wod)
    analyses_wod = spade.analyze_and_enumerate(off_wod, cfg_wod, times)
    n_a_wod = count_distinct_mdas([sp for a in analyses_wod for sp in a.lattices])

    best_wd = best_wod = float("nan")
    if with_scores:
        res_wd = spade.evaluate_analyses(spark, analyses_wd, config, k=k)
        best_wd = res_wd.topk[0].score if res_wd.topk else 0.0
        res_wod = spade.evaluate_analyses(spark, analyses_wod, cfg_wod, k=k)
        best_wod = res_wod.topk[0].score if res_wod.topk else 0.0

    row = Table2Row(
        dataset=name,
        n_triples=n_triples,
        n_cfss=n_cfss,
        n_p=off_wd.n_direct,
        dp_kw=off_wd.derivations.kw,
        dp_lang=off_wd.derivations.lang,
        dp_count=off_wd.derivations.count,
        dp_path=off_wd.derivations.path,
        n_a_wod=n_a_wod,
        n_a_wd=n_a_wd,
        best_score_wod=best_wod,
        best_score_wd=best_wd,
    )
    store.unpersist()
    return row


def table2(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    datasets: list[str] | None = None,
    config: SpadeConfig | None = None,
    with_scores: bool = False,
) -> pd.DataFrame:
    """The full Table 2 as a pandas frame (paper column order)."""
    rows = [
        profile_dataset(spark, d, sf=sf, config=config, with_scores=with_scores)
        for d in (datasets or real_graphs.all_datasets())
    ]
    return pd.DataFrame([r.__dict__ for r in rows])
