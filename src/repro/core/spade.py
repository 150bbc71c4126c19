"""Spade end-to-end pipeline (Figure 2).

Offline phase: structural summary, the graph's type- and summary-based
CFSs, offline attribute analysis, derived property enumeration, and the
checkpointed attribute union. Online phase: CFS selection (filtering the
graph's CFSs; no Spark job) → online attribute analysis (one Spark
statement for all the analyzed CFSs) → aggregate enumeration (no Spark
job, from the analysis's attribute-set patterns) → aggregate evaluation
(MVDCube or PGCube, optionally with early-stop) → top-k computation.
Every evaluator reads the same ``cube_inputs`` of all the CFSs (one
pre-aggregate and one Data Translation root per lattice), MVDCube in
one statement; Table 3 evaluates through them too. Every step is
wall-clock timed (`SpadeResult.times`) for Experiment 5's breakdown.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from pyspark.sql import DataFrame, SparkSession

from repro.core import pgcube
from repro.core.arm import AggregateResultManager, RankedMDA
from repro.core.attributes import (
    AnalyzedAttribute,
    Attribute,
    AttributeStats,
    analyze_attributes,
    analyzed,
    attribute_union,
    direct_part,
    offline_property_stats,
)
from repro.core.cfs import CandidateFactSet, analyzable, graph_cfss, select_cfss
from repro.core.config import SpadeConfig
from repro.core.derived import DerivationCounts, derivations, derive_attributes
from repro.core.earlystop import (
    EarlyStopResult,
    build_candidates,
    draw_root_samples,
    early_stop_prune,
)
from repro.core.enumeration import LatticeSpec, enumerate_lattices
from repro.core.mda import MDAKey
from repro.core.mvdcube import MVDCubeEvaluator, translate
from repro.core.preagg import PreAggregatedMeasures, preaggregate
from repro.core.query import Query
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

    summary: StructuralSummary
    offline_stats: dict[str, AttributeStats]
    attributes: list[Attribute]  # direct + derived
    derivations: DerivationCounts
    cfss: list[CandidateFactSet]  # type- and summary-based, sorted by size
    attr_union: DataFrame | None = None  # checkpointed tagged union (a, s, o)
    times: dict[str, float] = field(default_factory=dict)

    @property
    def n_direct(self) -> int:
        return sum(1 for a in self.attributes if a.kind == "direct")


def offline_phase(store: TripleStore, config: SpadeConfig) -> OfflineArtifacts:
    """Load-time processing: summary, CFSs, stats, derivations and the
    attribute union (Figure 2 left), in a fixed number of statements
    whatever the attribute count."""
    times: dict[str, float] = {}
    with _timed(times, "summary"):
        summary = StructuralSummary(store)
        cfss = graph_cfss(summary)
    # The statistics, the path pairs and the union all read the direct
    # part: cached while they run, released once the union holds it.
    direct = direct_part(store).cache()
    try:
        with _timed(times, "offline_attribute_analysis"):
            stats = offline_property_stats(direct, summary.nodes)
        with _timed(times, "derived_property_enumeration"):
            derived, counts = derive_attributes(direct, stats, config)
            union = (
                attribute_union(direct, derivations(direct, derived, config.kw_min_len))
                if stats
                else None
            )
    finally:
        direct.unpersist()
    direct_attrs = [Attribute(p, None, "direct") for p in sorted(summary.all_properties())]
    attrs = [replace(a, union=union) for a in direct_attrs + derived]
    return OfflineArtifacts(summary, stats, attrs, counts, cfss, union, times)


@dataclass
class CFSAnalysis:
    """Per-CFS outcome of online analysis + enumeration."""

    cfs: CandidateFactSet
    attributes: list[AnalyzedAttribute]
    lattices: list[LatticeSpec]
    union: DataFrame | None  # the attribute union the evaluation reads

    @property
    def multi_valued_dims(self) -> set[str]:
        """Theorem 1's set: the attributes with several values on some
        fact; only a node that projects one away can count a fact twice."""
        return {a.name for a in self.attributes if a.stats.multi_count > 0}


@dataclass
class SpadeResult:
    """Outcome of one online run."""

    topk: list[RankedMDA]
    arm: AggregateResultManager
    times: dict[str, float]
    analyses: list[CFSAnalysis]
    es: EarlyStopResult | None = None

    @property
    def lattices(self) -> list[LatticeSpec]:
        return [sp for a in self.analyses for sp in a.lattices]


def analyze_and_enumerate(
    offline: OfflineArtifacts, config: SpadeConfig, times: dict[str, float]
) -> list[CFSAnalysis]:
    """Steps 1-3 for every analyzable CFS: one Spark statement and one
    action (the online analysis of all the CFSs), none for selection or
    enumeration."""
    with _timed(times, "cfs_selection"):
        cfss = analyzable(select_cfss(offline.summary, offline.cfss, config), config)
    with _timed(times, "online_attribute_analysis"):
        results = analyze_attributes(
            [c.df for c in cfss], offline.attributes, offline.attr_union
        )
    analyses: list[CFSAnalysis] = []
    for cfs, (stats, patterns) in zip(cfss, results):
        present = [a for a in offline.attributes if stats[a.name].support > 0]
        alist = analyzed(present, stats)
        with _timed(times, "aggregate_enumeration"):
            lattices = enumerate_lattices(cfs.name, cfs.size, alist, patterns, config)
        analyses.append(CFSAnalysis(cfs, alist, lattices, offline.attr_union))
    return analyses


def cube_inputs(analyses: list[CFSAnalysis]) -> tuple[PreAggregatedMeasures | None, list[Query]]:
    """What every evaluator of a request reads: the pre-aggregates of
    every lattice's measures (None when no lattice has a measure:
    count(*) reads none) and one Data Translation root per lattice of
    ``analyses``, in order, root i reading its CFS from slot
    ``l{i}_cfs``. Both are SQL fragments, planned into the statements
    that read them."""
    lattices = [(a, spec) for a in analyses for spec in a.lattices]
    measures = sorted({m for _, spec in lattices for m in spec.measures})
    preagg = preaggregate(analyses[0].union, measures) if measures else None
    roots = [
        translate(a.cfs.df, a.union, spec.dims, f"l{i}_")
        for i, (a, spec) in enumerate(lattices)
    ]
    return preagg, roots


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
    alone, as the paper does when comparing evaluation methods).

    Every evaluator reads the same ``cube_inputs`` of all the CFSs: one
    statement for the request (MVDCube) or one per lattice (PGCube);
    early-stop samples the same fragments in one more statement."""
    assert evaluator in ("mvdcube", "pgcube*", "pgcubed")
    assert not (early_stop and evaluator != "mvdcube"), "ES plugs into MVDCube"
    times: dict[str, float] = {}
    arm = AggregateResultManager()
    es_result: EarlyStopResult | None = None

    with _timed(times, "aggregate_evaluation"):
        lattices = [spec for a in analyses for spec in a.lattices]
        preagg, roots = cube_inputs(analyses)
        skip: set[MDAKey] = set()
        if early_stop and lattices:
            # All reservoirs fill in one pass (sampling runs over Data
            # Translation, §5.3).
            samples = draw_root_samples(
                [(root, len(spec.dims)) for spec, root in zip(lattices, roots)],
                preagg,
                capacity=config.es_sample_size,
                seed=config.seed,
            )
            bounds = {
                a.cfs.name: {
                    at.name: (at.stats.vmin, at.stats.vmax)
                    for at in a.attributes
                    if at.stats.vmin is not None
                }
                for a in analyses
            }
            candidates = []
            for spec, sample in zip(lattices, samples):
                candidates += build_candidates(
                    sample, spec, capacity=config.es_sample_size,
                    value_bounds=bounds[spec.cfs_name],
                )
            es_result = early_stop_prune(candidates, k=k, h_name=h, config=config)
            skip = es_result.pruned

        if evaluator == "mvdcube":
            # All lattices of every CFS in one statement (shared scan,
            # shared measures — the paper's one-pass + reuse).
            ev = MVDCubeEvaluator(preagg)
            multi = {a.cfs.name: a.multi_valued_dims for a in analyses}
            ev.evaluate_many(lattices, roots, multi, skip=skip)
            arm.add_all(ev.results)
        else:
            for spec, root in zip(lattices, roots):
                results = pgcube.evaluate(
                    spec, root, preagg, distinct_count=evaluator == "pgcubed"
                )
                for key, res in results.items():
                    if key not in arm:  # first lattice wins (no reuse)
                        arm.add(key, res)

    with _timed(times, "topk"):
        topk = arm.top_k(h, k)
    return SpadeResult(topk, arm, times, analyses, es_result)


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
