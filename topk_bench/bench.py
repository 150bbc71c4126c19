"""The measured part of a run: graph loads, warm-up, the timed loop.

Timeline of one run (all in one process, one client). A graph load
ingests a fresh same-shape graph, runs ``offline_phase`` and
materializes its attribute tables, i.e. makes it explorable.

1. The first graph load: the process's cold start.
2. The ``WARMUP`` requests on that graph. The first exact answer is
   checked against DuckDB and becomes the run's reference answer.
3. The timed closed loop: exact and early-stop requests alternate until
   ``seconds`` of requests have run, ending on a complete pair. A
   traced run ends on a complete block of three pairs (traced,
   untraced, traced).
4. A full GC, then the JVM heap still in use (``heap_live_mb``).
5. The graph is released and a second one loaded: the timed load of
   ``load_p50_s``. It runs last, on a warm JVM and a just-collected
   heap, because the load right after the cold one varied by up to
   +40 % between runs.

Steps 1-2 and the session start are ``setup_s``; checks and trace
read-back run between requests and are excluded from every timing.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

import checks
from repro.core import spade
from repro.core.enumeration import count_distinct_mdas
from repro.rdf.triples import TripleStore, triples_from_pandas
from workloads import seeded_triples

#: The first request of each kind pays for the JVM's and Spark's lazy
#: set-up of its code path (up to 60 % slower than later requests).
#: Every run makes the same requests in the same order, so the n-th
#: measured request sits at the same warm-up stage in every run.
WARMUP = ("exact", "es")

#: (metric, unit, request kind it is taken from) of a traced run.
LAYER_METRICS = [
    ("core.cfs.select_s", "s", "exact"),
    ("core.cfs.cfss", "count", "exact"),
    ("core.attributes.analyze_s", "s", "exact"),
    ("core.attributes.spark_tasks", "count", "exact"),
    ("core.enumeration.enumerate_s", "s", "exact"),
    ("core.enumeration.spark_tasks", "count", "exact"),
    ("core.enumeration.lattices", "count", "exact"),
    ("core.enumeration.mdas", "count", "exact"),
    ("core.preagg.preaggregate_s", "s", "exact"),
    ("core.preagg.py4j_calls", "count", "exact"),
    ("core.mvdcube.translate_s", "s", "exact"),
    ("core.mvdcube.evaluate_s", "s", "exact"),
    ("core.mvdcube.spark_tasks", "count", "exact"),
    ("core.mvdcube.shuffle_mb", "MB", "exact"),
    ("core.mvdcube.nodes", "count", "exact"),
    ("core.arm.topk_s", "s", "exact"),
    ("core.spade.online_self_s", "s", "exact"),
    ("core.earlystop.sample_s", "s", "es"),
    ("core.earlystop.candidates_s", "s", "es"),
    ("core.earlystop.prune_s", "s", "es"),
    ("core.earlystop.pruned_frac", "fraction", "es"),
    ("spark.tasks", "count", "exact"),
    ("spark.executor_run_s", "s", "exact"),
    ("spark.gc_s", "s", "exact"),
    ("spark.failed_tasks", "count", "exact"),
    ("spark.py4j_calls", "count", "exact"),
    ("rdf.triples.load_s", "s", "load"),
    ("rdf.summary.build_s", "s", "load"),
    ("core.attributes.offline_s", "s", "load"),
    ("core.derived.derive_s", "s", "load"),
    ("core.derived.attributes", "count", "load"),
]


def sub_seed(seed: int, i: int) -> int:
    """The i-th independent seed derived from the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Run:
    """State of one benchmark run."""

    def __init__(self, spark, workload, seed: int, rss, tracer=None):
        self.spark = spark
        self.wl = workload
        self.seed = seed
        self.rss = rss  # callable: current VmHWM sum in MB
        self.tracer = tracer
        self.base = workload.base_triples()
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss = 0.0
        self.excluded_s = 0.0  # checks and trace read-back
        self.reference = None
        self.loads: list[dict] = []
        self.requests: list[dict] = []

    # -- operations -----------------------------------------------------------
    def _fail(self, op: str, problems: list[str]) -> None:
        self.failures.append(f"{op}: " + "; ".join(problems))

    def load(self, i: int):
        """Ingest graph i, run the offline phase, materialize it."""
        triples = seeded_triples(self.base, sub_seed(self.seed, i))
        tr = self.tracer
        if tr:
            tr.request = f"load{i}"
            tr.install()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("rdf.triples.load") if tr else nullcontext():
                store = TripleStore(triples_from_pandas(self.spark, triples),
                                    name=self.wl.name)
                store.num_triples()
            offline = spade.offline_phase(store, self.wl.config)
            offline.attr_union.count()  # materializes every attribute table
        finally:
            if tr:
                tr.uninstall()
        rec = {"load": i, "seconds": time.perf_counter() - t0}
        if tr:
            rec.update(self._load_layers(f"load{i}"))
        self.loads.append(rec)
        self.peak_rss = max(self.peak_rss, self.rss())
        return offline

    def request(self, offline, n: int, kind: str, phase: str, traced: bool):
        """One explore request, then its checks (outside the timing)."""
        config = replace(self.wl.config, seed=sub_seed(self.seed, 1000 + n))
        tr = self.tracer if traced else None
        if tr:
            tr.request = n
            tr.install()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = spade.run_online(self.spark, offline, config,
                                      early_stop=kind == "es",
                                      h=self.wl.h, k=self.wl.k)
        except Exception:  # one failed request must not end the run
            traceback.print_exc(file=sys.stderr)
            self._fail(f"request {n} ({kind})", ["raised"])
            return
        finally:
            if tr:
                tr.uninstall()
        seconds = time.perf_counter() - t0
        self.peak_rss = max(self.peak_rss, self.rss())
        t1 = time.perf_counter()
        rec = {"n": n, "kind": kind, "phase": phase, "traced": traced,
               "seconds": seconds}
        if kind == "exact" and self.reference is None:
            problems = checks.oracle_problems(self.spark, result)
            self.reference = result
        elif kind == "exact":
            problems = checks.exact_problems(result, self.reference)
        else:
            problems = checks.early_stop_problems(result, self.reference)
            rec["topk_overlap"] = checks.topk_overlap(result, self.reference)
        if problems:
            self._fail(f"request {n} ({kind})", problems)
        if tr:
            rec.update(self._request_layers(n, result))
        self.requests.append(rec)
        self.excluded_s += time.perf_counter() - t1

    # -- the run --------------------------------------------------------------
    def run(self, seconds: float, t_start: float) -> None:
        offline = self.load(0)
        n = 0
        for kind in WARMUP:
            self.request(offline, n, kind, "warmup", traced=False)
            n += 1
        self.setup_s = time.perf_counter() - t_start - self.excluded_s
        # A traced run measures pairs in blocks of three: traced,
        # untraced, traced. Both sides then sit at the same mean position
        # in the run, so a warm-up slope cancels out of the tracing
        # overhead reported next to the per-layer metrics.
        t0, excluded0 = time.perf_counter(), self.excluded_s
        pair = 0
        while True:
            traced = self.tracer is not None and pair % 3 != 1
            for kind in ("exact", "es"):
                self.request(offline, n, kind, "measure", traced)
                n += 1
            pair += 1
            busy = time.perf_counter() - t0 - (self.excluded_s - excluded0)
            if busy >= seconds and (self.tracer is None or pair % 3 == 0):
                break
        self.heap_live_mb = self._heap_live_mb()
        self.spark.catalog.clearCache()  # release the explored graph
        self.load(1)

    def _heap_live_mb(self) -> float:
        """JVM heap in use after a full GC, with the graph still loaded.

        The heap is pinned and pre-touched (see ``run.py``), so its use
        cannot show in ``peak_rss_mb``; this shows Spark's on-heap
        state, e.g. the cached attribute tables, instead.
        """
        jvm = self.spark.sparkContext._jvm
        jvm.System.gc()
        heap = jvm.java.lang.management.ManagementFactory.getMemoryMXBean()
        return heap.getHeapMemoryUsage().getUsed() / 2**20

    # -- trace read-back ------------------------------------------------------
    def _spans_by_name(self, request) -> tuple[dict, list]:
        tr = self.tracer
        roots = [i for i, sp in enumerate(tr.spans)
                 if sp.request == request and sp.parent is None]
        spans = [sp for i in roots for sp in tr.subtree(i)]
        tr.read_stages(spans)
        by = defaultdict(lambda: defaultdict(float))
        for sp in spans:
            agg = by[sp.name]
            agg["s"] += sp.seconds
            agg["py4j_calls"] += sp.py4j_calls
            for key, v in (*sp.stages.items(), *sp.counts.items()):
                agg[key] += v
        return by, spans

    def _load_layers(self, request) -> dict:
        by, _ = self._spans_by_name(request)
        return {
            "rdf.triples.load_s": by["rdf.triples.load"]["s"],
            "rdf.summary.build_s": by["rdf.summary.build"]["s"],
            "core.attributes.offline_s": by["core.attributes.offline"]["s"],
            "core.derived.derive_s": by["core.derived.derive"]["s"],
            "core.derived.attributes": by["core.derived.derive"]["attributes"],
        }

    def _request_layers(self, n: int, result) -> dict:
        by, spans = self._spans_by_name(n)
        root = spans[0]
        children = sum(sp.seconds for sp in spans
                       if sp.parent is not None and self.tracer.spans[sp.parent] is root)
        prune = by["core.earlystop.prune"]
        ev = by["core.mvdcube.evaluate"]
        return {
            "core.cfs.select_s": by["core.cfs.select"]["s"],
            "core.cfs.cfss": len(result.analyses),
            "core.attributes.analyze_s": by["core.attributes.analyze"]["s"],
            "core.attributes.spark_tasks": by["core.attributes.analyze"]["tasks"],
            "core.enumeration.enumerate_s": by["core.enumeration.enumerate"]["s"],
            "core.enumeration.spark_tasks": by["core.enumeration.enumerate"]["tasks"],
            "core.enumeration.lattices": len(result.lattices),
            "core.enumeration.mdas": count_distinct_mdas(result.lattices),
            "core.preagg.preaggregate_s": by["core.preagg.preaggregate"]["s"],
            "core.preagg.py4j_calls": by["core.preagg.preaggregate"]["py4j_calls"],
            "core.mvdcube.translate_s": by["core.mvdcube.translate"]["s"],
            "core.mvdcube.evaluate_s": ev["s"],
            "core.mvdcube.spark_tasks": ev["tasks"],
            "core.mvdcube.shuffle_mb": ev["shuffle_mb"],
            "core.mvdcube.nodes": ev["nodes"],
            "core.arm.topk_s": by["core.arm.topk"]["s"],
            "core.spade.online_self_s": root.seconds - children,
            "core.earlystop.sample_s": by["core.earlystop.sample"]["s"],
            "core.earlystop.candidates_s": by["core.earlystop.candidates"]["s"],
            "core.earlystop.prune_s": prune["s"],
            "core.earlystop.pruned_frac": (
                prune["pruned"] / prune["candidates"] if prune["candidates"] else 0.0
            ),
            "spark.tasks": sum(sp.stages["tasks"] for sp in spans),
            "spark.executor_run_s": sum(sp.stages["executor_run_s"] for sp in spans),
            "spark.gc_s": sum(sp.stages["gc_s"] for sp in spans),
            "spark.failed_tasks": sum(sp.stages["failed_tasks"] for sp in spans),
            "spark.py4j_calls": root.py4j_calls,
        }

    # -- results --------------------------------------------------------------
    def measured(self, kind: str, traced: bool | None = None) -> list[dict]:
        return [r for r in self.requests
                if r["phase"] == "measure" and r["kind"] == kind
                and (traced is None or r["traced"] == traced)]

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        ex = [r["seconds"] for r in self.measured("exact")]
        es = self.measured("es")
        failed = len(self.failures)
        return {
            "explore_p50_s": (median(ex), "s", len(ex)),
            "explore_es_p50_s": (median([r["seconds"] for r in es]), "s", len(es)),
            "load_p50_s": (median([r["seconds"] for r in self.loads[1:]]), "s",
                           len(self.loads) - 1),
            "setup_s": (self.setup_s, "s", 1),
            "peak_rss_mb": (self.peak_rss, "MB", 1),
            "heap_live_mb": (self.heap_live_mb, "MB", 1),
            "es_topk_overlap": (
                statistics.fmean(r["topk_overlap"] for r in es) if es else float("nan"),
                "fraction", len(es)),
            "ok_frac": (1 - failed / self.attempted, "fraction", self.attempted),
        }

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        source = {"exact": self.measured("exact", traced=True),
                  "es": self.measured("es", traced=True),
                  "load": self.loads[1:]}  # as load_p50_s: not the cold load
        out = {}
        for name, unit, kind in LAYER_METRICS:
            xs = [r[name] for r in source[kind]]
            out[name] = (median(xs), unit, len(xs))
        frac, traced, plain = self.trace_overhead()
        out["trace.overhead_frac"] = (frac, "fraction", len(traced) + len(plain))
        return out

    def trace_overhead(self) -> tuple[float, list[float], list[float]]:
        """Mean traced over mean untraced latency, minus 1, over the
        measured requests of both kinds (each side has as many of each
        kind)."""
        traced = [r["seconds"] for r in self.requests
                  if r["phase"] == "measure" and r["traced"]]
        plain = [r["seconds"] for r in self.requests
                 if r["phase"] == "measure" and not r["traced"]]
        return statistics.fmean(traced) / statistics.fmean(plain) - 1, traced, plain
