"""Per-layer spans around the public calls of each Spade module.

The tracer patches module attributes from the outside (nothing in
``src/`` knows about it). Each span runs under its own Spark job group,
so the stages it launched can be read back from the driver's status
store once the request has finished, outside the timed region. Spans
are kept in memory and dumped as JSON when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import spade
from repro.core.arm import AggregateResultManager
from repro.core.mvdcube import MVDCubeEvaluator


STAGE_METRICS = ("tasks", "failed_tasks", "executor_run_s", "gc_s", "shuffle_mb")


@dataclass
class Span:
    name: str
    group: str  # Spark job group of the jobs launched directly inside
    parent: int | None  # index of the enclosing span in Tracer.spans
    request: int | str | None  # request number, or "load<i>"
    start: float
    end: float = 0.0
    py4j_calls: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; counts py4j calls; reads Spark stage metrics."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self.request: int | str | None = None
        self._open: list[int] = []
        self._py4j = 0
        self._own = 0  # > 0 while the tracer itself talks to the JVM
        self._undo: list[tuple[object, str, object]] = []
        self._charged: set[int] = set()  # stage ids already charged to a span
        client = self.sc._gateway._gateway_client
        send = client.send_command

        def counted(*args, **kwargs):
            if not self._own:
                self._py4j += 1
            return send(*args, **kwargs)

        client.send_command = counted

    @contextmanager
    def _quiet(self):
        self._own += 1
        try:
            yield
        finally:
            self._own -= 1

    def _set_group(self, group: str | None) -> None:
        with self._quiet():
            if group is None:
                self.sc._jsc.clearJobGroup()
            else:
                self.sc.setJobGroup(group, group)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, f"tb-{len(self.spans)}", parent, self.request,
                  time.perf_counter())
        index = len(self.spans)
        self.spans.append(sp)
        self._open.append(index)
        self._set_group(sp.group)
        py4j0 = self._py4j
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.py4j_calls = self._py4j - py4j0
            self._open.pop()
            self._set_group(self.spans[parent].group if parent is not None else None)

    # -- patching -----------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                out = original(*args, **kwargs)
                if count:
                    sp.counts.update(count(args, out))
                return out

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Patch the public calls of every traced module."""
        w = self._wrap
        w(spade, "run_online", "core.spade.online")
        w(spade, "select_cfss", "core.cfs.select")
        w(spade, "analyze_attributes", "core.attributes.analyze")
        w(spade, "enumerate_lattices", "core.enumeration.enumerate")
        w(spade, "preaggregate", "core.preagg.preaggregate")
        w(spade, "translate", "core.mvdcube.translate")
        w(MVDCubeEvaluator, "evaluate_many", "core.mvdcube.evaluate",
          _nodes_evaluated)
        w(spade, "draw_root_samples", "core.earlystop.sample")
        w(spade, "build_candidates", "core.earlystop.candidates")
        w(spade, "early_stop_prune", "core.earlystop.prune", _pruned)
        w(AggregateResultManager, "top_k", "core.arm.topk")
        w(spade, "StructuralSummary", "rdf.summary.build")
        w(spade, "offline_property_stats", "core.attributes.offline")
        w(spade, "derive_attributes", "core.derived.derive", _derived)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- Spark stage metrics ---------------------------------------------------
    def read_stages(self, spans: list[Span]) -> None:
        """Fill ``Span.stages`` from the status store (call after the
        spans' jobs have finished, outside any timed region).

        A stage is charged once, to the span of the first job that lists
        it; later jobs list it again when they reuse its shuffle output.
        """
        with self._quiet():
            jsc = self.sc._jsc.sc()
            jsc.listenerBus().waitUntilEmpty(60_000)
            store = jsc.statusStore()
            tracker = self.sc.statusTracker()
            no_statuses = self.sc._jvm.java.util.ArrayList()
            no_quantiles = self.sc._gateway.new_array(self.sc._jvm.double, 0)
            jobs = []
            for sp in spans:
                sp.stages = dict.fromkeys(STAGE_METRICS, 0.0)
                jobs += [(job, sp) for job in tracker.getJobIdsForGroup(sp.group)]
            for job, sp in sorted(jobs, key=lambda js: js[0]):
                info = tracker.getJobInfo(job)
                for sid in info.stageIds if info is not None else ():
                    if sid in self._charged:
                        continue
                    self._charged.add(sid)
                    attempts = store.stageData(sid, False, no_statuses, False,
                                               no_quantiles)
                    for i in range(attempts.length()):
                        sd = attempts.apply(i)
                        st = sp.stages
                        st["tasks"] += sd.numCompleteTasks() + sd.numFailedTasks()
                        st["failed_tasks"] += sd.numFailedTasks()
                        st["executor_run_s"] += sd.executorRunTime() / 1e3
                        st["gc_s"] += sd.jvmGcTime() / 1e3
                        st["shuffle_mb"] += sd.shuffleWriteBytes() / 1e6

    def subtree(self, index: int) -> list[Span]:
        """A span and every span nested in it."""
        inside = {index}
        out = [self.spans[index]]
        for i in range(index + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(self.spans[i])
        return out


def _nodes_evaluated(args, out):
    # spade builds one evaluator per CFS and request, so its counter is
    # this call's node count.
    return {"nodes": args[0].nodes_evaluated}


def _pruned(args, out):
    return {"pruned": len(out.pruned),
            "candidates": len(out.pruned) + len(out.survivors)}


def _derived(args, out):
    return {"attributes": len(out[0])}
