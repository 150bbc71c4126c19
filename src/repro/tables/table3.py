"""Table 3 + Experiments 2-3 (R2-R5): PGCube errors and run times.

For each dataset analog we evaluate every enumerated lattice with
MVDCube (ground truth) and with PGCube* / PGCube^d, then

* count the aggregates with incorrect results (#wrong aggs, Table 3);
* record the per-group error ratios p/m of PGCube^d for count and sum
  aggregates, taking the *maximum* over lattices that share an
  aggregate (Experiment 3 / Figure 10);
* time the three evaluation methods (Experiment 2 / Figure 9).

MVDCube evaluates all the lattices of a graph in one statement, PGCube
one per lattice, so part of MVDCube's time gain is statement fusion.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import pgcube, spade
from repro.core.config import SpadeConfig
from repro.core.mda import MDAKey
from repro.core.mvdcube import MVDCubeEvaluator
from repro.datagen import real_graphs

RTOL = 1e-9


def results_differ(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """True when two MDA results differ in groups or values."""
    dims = [c for c in a.columns if c != "value"]
    if sorted(a.columns) != sorted(b.columns):
        return True
    merged = a.merge(b, on=dims, how="outer", suffixes=("_a", "_b")) if dims else (
        pd.concat([a.reset_index(drop=True), b.reset_index(drop=True)], axis=1)
        .set_axis(["value_a", "value_b"], axis=1)
    )
    if merged[["value_a", "value_b"]].isna().any().any():
        return True
    return not np.allclose(merged["value_a"], merged["value_b"], rtol=RTOL)


def error_ratios(correct: pd.DataFrame, wrong: pd.DataFrame) -> list[float]:
    """Per-group ratios p/m (PGCube value over true value), for groups
    where the true value is positive — Experiment 3's metric."""
    dims = [c for c in correct.columns if c != "value"]
    if dims:
        merged = correct.merge(wrong, on=dims, suffixes=("_m", "_p"))
    else:
        merged = pd.concat(
            [correct.reset_index(drop=True), wrong.reset_index(drop=True)], axis=1
        ).set_axis(["value_m", "value_p"], axis=1)
    out = []
    for m, p in zip(merged["value_m"], merged["value_p"]):
        if pd.notna(m) and pd.notna(p) and m > 0:
            out.append(float(p) / float(m))
    return out


@dataclass
class DatasetErrors:
    """Per-dataset outcome of Experiment 2/3."""

    dataset: str
    n_aggregates: int
    wrong_star: int
    wrong_distinct: int
    ratios: list[float] = field(default_factory=list)  # PGCube^d, count+sum
    t_mvd: float = 0.0
    t_pg_star: float = 0.0
    t_pg_distinct: float = 0.0


def _evaluate_all(analyses):
    """MVD results, per-lattice PGCube*/^d results, timings: every
    evaluator reads the cube inputs a request builds."""
    lattices = [spec for a in analyses for spec in a.lattices]
    preagg, roots = spade.cube_inputs(analyses)
    t0 = time.perf_counter()
    ev = MVDCubeEvaluator(preagg)
    multi = {a.cfs.name: a.multi_valued_dims for a in analyses}
    ev.evaluate_many(lattices, roots, multi)
    t_mvd = time.perf_counter() - t0
    pg, t_pg = {}, {}  # PGCube's by distinct_count
    for distinct in (False, True):
        t0 = time.perf_counter()
        pg[distinct] = [
            pgcube.evaluate(spec, root, preagg, distinct_count=distinct)
            for spec, root in zip(lattices, roots)
        ]
        t_pg[distinct] = time.perf_counter() - t0
    return ev.results, pg[False], pg[True], t_mvd, t_pg[False], t_pg[True]


def analyze_dataset_errors(
    spark: SparkSession,
    name: str,
    *,
    sf: float = 1.0,
    config: SpadeConfig | None = None,
) -> DatasetErrors:
    """Run Experiment 2/3 on one dataset analog."""
    config = config or SpadeConfig()
    store = real_graphs.build(spark, name, sf=sf)
    off = spade.offline_phase(store, config)
    out = dataset_errors(name, spade.analyze_and_enumerate(off, config, {}))
    store.unpersist()
    return out


def dataset_errors(name: str, analyses: list[spade.CFSAnalysis]) -> DatasetErrors:
    """Experiment 2/3 over the analyzed CFSs of one graph."""
    mvd, pg_star, pg_dist, t_mvd, t_star, t_dist = _evaluate_all(analyses)
    wrong_star: set[MDAKey] = set()
    wrong_dist: set[MDAKey] = set()
    for per_lattice, wrong in ((pg_star, wrong_star), (pg_dist, wrong_dist)):
        for lattice_res in per_lattice:
            for key, res in lattice_res.items():
                if key in mvd and results_differ(mvd[key], res):
                    wrong.add(key)
    # Experiment 3: PGCube^d per-group ratios p/m for count and sum
    # aggregates; an aggregate shared by several lattices records the
    # lattice with the worst maximum ratio ("worst-case risk").
    ratios: dict[MDAKey, list[float]] = {}
    for lattice_res in pg_dist:
        for key, res in lattice_res.items():
            if key not in wrong_dist or key.func not in ("count", "sum"):
                continue
            r = error_ratios(mvd[key], res)
            cur = ratios.get(key)
            if cur is None or (r and max(r) > max(cur, default=0.0)):
                ratios[key] = r
    all_ratios = [x for rs in ratios.values() for x in rs]
    return DatasetErrors(
        dataset=name,
        n_aggregates=len(mvd),
        wrong_star=len(wrong_star),
        wrong_distinct=len(wrong_dist),
        ratios=all_ratios,
        t_mvd=t_mvd,
        t_pg_star=t_star,
        t_pg_distinct=t_dist,
    )


def table3(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    datasets: list[str] | None = None,
    config: SpadeConfig | None = None,
) -> pd.DataFrame:
    """Table 3 (+Fig 9 timings, +Fig 10 ratio stats) as a pandas frame."""
    rows = []
    for d in datasets or real_graphs.all_datasets():
        e = analyze_dataset_errors(spark, d, sf=sf, config=config)
        r = np.array(e.ratios) if e.ratios else np.array([1.0])
        rows.append(
            {
                "dataset": e.dataset,
                "n_aggregates": e.n_aggregates,
                "wrong_star": e.wrong_star,
                "wrong_distinct": e.wrong_distinct,
                "wrong_star_pct": 100.0 * e.wrong_star / max(1, e.n_aggregates),
                "wrong_distinct_pct": 100.0 * e.wrong_distinct / max(1, e.n_aggregates),
                "ratio_median": float(np.median(r)),
                "ratio_p90": float(np.percentile(r, 90)),
                "ratio_max": float(r.max()),
                "t_mvd_s": e.t_mvd,
                "t_pg_star_s": e.t_pg_star,
                "t_pg_distinct_s": e.t_pg_distinct,
                "gain_vs_star_pct": 100.0 * (e.t_pg_star - e.t_mvd) / max(e.t_pg_star, 1e-9),
                "gain_vs_distinct_pct": 100.0 * (e.t_pg_distinct - e.t_mvd) / max(e.t_pg_distinct, 1e-9),
            }
        )
    return pd.DataFrame(rows)
