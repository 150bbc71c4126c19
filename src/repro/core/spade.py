"""Spade end-to-end pipeline (Figure 2).

Offline phase: structural summary, the graph's type- and summary-based
CFSs, offline attribute analysis, derived property enumeration, and the
cached attribute tables. Online phase: CFS selection (filtering the
graph's CFSs; no Spark job) → online attribute analysis (two Spark jobs
per CFS) → aggregate enumeration (no Spark job, from the analysis's
attribute-set patterns) → aggregate evaluation (MVDCube or PGCube,
optionally with early-stop) → top-k computation. Every step is
wall-clock timed (`SpadeResult.times`) for Experiment 5's breakdown.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core.arm import AggregateResultManager, RankedMDA
from repro.core.attributes import (
    AnalyzedAttribute,
    Attribute,
    AttributeStats,
    analyze_attributes,
    analyzed,
    attribute_union,
    offline_property_stats,
)
from repro.core.cfs import CandidateFactSet, analyzable, graph_cfss, select_cfss
from repro.core.config import SpadeConfig
from repro.core.derived import DerivationCounts, derive_attributes, direct_attributes
from repro.core.earlystop import (
    EarlyStopResult,
    build_candidates,
    draw_root_samples,
    early_stop_prune,
)
from repro.core.enumeration import LatticeSpec, enumerate_lattices
from repro.core.mda import MDAKey
from repro.core.mvdcube import MVDCubeEvaluator, release_root, translate
from repro.core.pgcube import PGCubeEvaluator
from repro.core.preagg import preaggregate
from repro.rdf.summary import StructuralSummary
from repro.rdf.triples import TripleStore


@contextmanager
def _timed(times: dict[str, float], step: str):
    t0 = time.perf_counter()
    yield
    times[step] = times.get(step, 0.0) + (time.perf_counter() - t0)


@dataclass
class OfflineArtifacts:
    """Everything the offline phase produces."""

    store: TripleStore
    summary: StructuralSummary
    offline_stats: dict[str, AttributeStats]
    attributes: list[Attribute]  # direct + derived
    derivations: DerivationCounts
    cfss: list[CandidateFactSet]  # type- and summary-based, sorted by size
    attr_union: DataFrame | None = None  # cached tagged union (a, s, o)
    times: dict[str, float] = field(default_factory=dict)

    @property
    def n_direct(self) -> int:
        return sum(1 for a in self.attributes if a.kind == "direct")


def offline_phase(store: TripleStore, config: SpadeConfig) -> OfflineArtifacts:
    """Load-time processing: summary, CFSs, stats, derivations (Figure 2
    left)."""
    times: dict[str, float] = {}
    with _timed(times, "summary"):
        summary = StructuralSummary(store)
        cfss = graph_cfss(summary)
    with _timed(times, "offline_attribute_analysis"):
        stats = offline_property_stats(store)
    with _timed(times, "derived_property_enumeration"):
        attrs = direct_attributes(store)
        derived, counts = derive_attributes(store, stats, config)
        attrs.extend(derived)
        # Cache every attribute table: the online phase reads each one
        # several times (analysis, transactions, translation, preagg) —
        # the analog of the paper's attribute tables stored in the DB.
        attrs = [
            Attribute(a.name, a.df.cache(), a.kind, a.derived_from) for a in attrs
        ]
        # Hash-partitioned by subject like the CFS frames (the summary's
        # node frame): the online analysis's join with a CFS and its
        # per-subject groupBys then shuffle neither side, and it runs one
        # task per shuffle partition, not one per partition of every
        # attribute table. An explicit count, which adaptive execution
        # does not coalesce.
        conf = store.triples.sparkSession.conf
        partitions = int(conf.get("spark.sql.shuffle.partitions"))
        union = (
            attribute_union(attrs).repartition(partitions, "s").cache()
            if attrs
            else None
        )
    return OfflineArtifacts(
        store, summary, stats, attrs, counts, cfss, union, times
    )


@dataclass
class CFSAnalysis:
    """Per-CFS outcome of online analysis + enumeration."""

    cfs: CandidateFactSet
    attributes: list[AnalyzedAttribute]
    lattices: list[LatticeSpec]


@dataclass
class SpadeResult:
    """Outcome of one online run."""

    topk: list[RankedMDA]
    arm: AggregateResultManager
    times: dict[str, float]
    analyses: list[CFSAnalysis]
    es: EarlyStopResult | None = None
    evaluator: str = "mvdcube"

    @property
    def lattices(self) -> list[LatticeSpec]:
        return [sp for a in self.analyses for sp in a.lattices]


def analyze_and_enumerate(
    offline: OfflineArtifacts, config: SpadeConfig, times: dict[str, float]
) -> list[CFSAnalysis]:
    """Steps 1-3 for every analyzable CFS: two Spark jobs per CFS (the
    online analysis), none for selection or enumeration."""
    with _timed(times, "cfs_selection"):
        cfss = analyzable(select_cfss(offline.store, offline.cfss, config), config)
    analyses: list[CFSAnalysis] = []
    for cfs in cfss:
        with _timed(times, "online_attribute_analysis"):
            stats, patterns = analyze_attributes(
                cfs.df, offline.attributes, offline.attr_union
            )
            present = [a for a in offline.attributes if stats[a.name].support > 0]
            alist = analyzed(present, stats)
        with _timed(times, "aggregate_enumeration"):
            lattices = enumerate_lattices(cfs.name, cfs.size, alist, patterns, config)
        analyses.append(CFSAnalysis(cfs, alist, lattices))
    return analyses


def evaluate_analyses(
    spark: SparkSession,
    analyses: list[CFSAnalysis],
    config: SpadeConfig,
    *,
    evaluator: str = "mvdcube",  # mvdcube | pgcube* | pgcubed
    early_stop: bool = False,
    h: str = "variance",
    k: int = 10,
) -> SpadeResult:
    """Steps 4-5 over pre-analyzed CFSs (lets callers time evaluation
    alone, as the paper does when comparing evaluation methods)."""
    assert evaluator in ("mvdcube", "pgcube*", "pgcubed")
    assert not (early_stop and evaluator != "mvdcube"), "ES plugs into MVDCube"
    times: dict[str, float] = {}
    arm = AggregateResultManager()
    es_result: EarlyStopResult | None = None

    with _timed(times, "aggregate_evaluation"):
        all_candidates = []
        per_cfs: list[tuple[CFSAnalysis, object, dict[str, Attribute], object, list[tuple[LatticeSpec, DataFrame]]]] = []
        for analysis in analyses:
            if not analysis.lattices:
                continue
            attr_map = {a.name: a.attribute for a in analysis.attributes}
            stats_map = {a.name: a.stats for a in analysis.attributes}
            measure_names = sorted(
                {m for sp in analysis.lattices for m in sp.measures}
            )
            if not measure_names:
                measure_names = []
            measures = [attr_map[m] for m in measure_names]
            preagg = preaggregate(measures) if measures else preaggregate(
                [analysis.attributes[0].attribute]
            )
            roots: list[tuple[LatticeSpec, DataFrame]] = []
            for spec in analysis.lattices:
                dim_attrs = [attr_map[d] for d in spec.dims]
                # localCheckpoint truncates the join lineage so the
                # 2^N expand branches reference a short plan (Catalyst
                # re-analyzes each branch; a deep join tree per branch
                # dominates run time at small data sizes); coalesce
                # keeps the branch union's map-task count bounded
                # (branches multiply the root's partition count).
                root = (
                    translate(analysis.cfs.df, dim_attrs)
                    .coalesce(2)
                    .localCheckpoint()
                )
                roots.append((spec, root))
            if early_stop:
                # All reservoirs of the CFS fill in one accumulator pass
                # (sampling runs during/over Data Translation, §5.3).
                samples = draw_root_samples(
                    spark,
                    [
                        (root.join(preagg.df, "cf", "left"), len(spec.dims))
                        for spec, root in roots
                    ],
                    measures=preagg.measures,
                    capacity=config.es_sample_size,
                    seed=config.seed,
                )
                for (spec, _), sample in zip(roots, samples):
                    bounds = {
                        m: (stats_map[m].vmin, stats_map[m].vmax)
                        for m in spec.measures
                        if stats_map[m].vmin is not None
                    }
                    all_candidates.extend(
                        build_candidates(
                            sample,
                            spec,
                            capacity=config.es_sample_size,
                            value_bounds=bounds,
                        )
                    )
            per_cfs.append((analysis, preagg, attr_map, stats_map, roots))

        skip: set[MDAKey] = set()
        if early_stop and all_candidates:
            es_result = early_stop_prune(
                all_candidates, k=k, h_name=h, config=config
            )
            skip = es_result.pruned

        for analysis, preagg, attr_map, stats_map, roots in per_cfs:
            cards = {
                name: stats_map[name].n_distinct for name in attr_map
            }
            if evaluator == "mvdcube":
                ev = MVDCubeEvaluator(
                    analysis.cfs.name, attr_map, preagg, analysis.cfs.df
                )
                # All lattices of the CFS in one action (shared scan,
                # shared measures — the paper's one-pass + reuse); the
                # online stats feed Theorem 1's multi-valued-dims set.
                md = {
                    name
                    for name, st in stats_map.items()
                    if st.multi_count > 0
                }
                ev.evaluate_many(
                    [spec for spec, _ in roots],
                    root_dfs=[root for _, root in roots],
                    skip=skip,
                    dim_cardinalities=cards,
                    multi_valued_dims=md,
                )
                arm.add_all(ev.results)
            else:
                ev = PGCubeEvaluator(
                    analysis.cfs.name,
                    attr_map,
                    preagg,
                    analysis.cfs.df,
                    distinct_count=(evaluator == "pgcubed"),
                )
                for spec, root in roots:
                    for key, res in ev.evaluate(spec, root_df=root).items():
                        if key not in arm:  # first lattice wins (no reuse)
                            arm.add(key, res)
            for _, root in roots:
                release_root(root)
            preagg.unpersist()

    with _timed(times, "topk"):
        topk = arm.top_k(h, k)
    return SpadeResult(topk, arm, times, analyses, es_result, evaluator)


def run_online(
    spark: SparkSession,
    offline: OfflineArtifacts,
    config: SpadeConfig,
    **kwargs,
) -> SpadeResult:
    """The full online pipeline (Figure 2 right): Steps 1-5."""
    times: dict[str, float] = {}
    analyses = analyze_and_enumerate(offline, config, times)
    result = evaluate_analyses(spark, analyses, config, **kwargs)
    result.times.update(times)
    return result


def run(
    spark: SparkSession,
    store: TripleStore,
    config: SpadeConfig | None = None,
    **kwargs,
) -> SpadeResult:
    """Convenience wrapper: offline + online in one call."""
    config = config or SpadeConfig()
    offline = offline_phase(store, config)
    result = run_online(spark, offline, config, **kwargs)
    result.times.update({f"offline_{k}": v for k, v in offline.times.items()})
    return result
