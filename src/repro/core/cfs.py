"""Candidate Fact Set Selection (Section 3, Step 1).

Three strategies, as in the paper:
  (i)   type-based     — all nodes of each rdf:type;
  (ii)  property-based — all nodes having a user-specified set of
                         outgoing properties;
  (iii) summary-based  — each equivalence class of the structural
                         summary (RDFQuotient substrate).

Type- and summary-based CFSs are facts of the graph: ``graph_cfss``
builds them once per loaded graph from the structural summary, whose
one Spark job sizes its classes, the rdf:types and any property set. A
request then filters and caps that list and adds the user-given
property-based CFSs, filtered from the same summary (``select_cfss``,
``analyzable``), without a Spark job.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core.config import SpadeConfig
from repro.rdf.summary import StructuralSummary


@dataclass(frozen=True)
class CandidateFactSet:
    """A named set of candidate facts (single-column frame ``cf`` of
    distinct fact IDs)."""

    name: str
    df: DataFrame
    size: int
    source: str  # type | property | summary


def _by_size(cfss: list[CandidateFactSet]) -> list[CandidateFactSet]:
    """Decreasing size, ties by name: callers that cap at
    ``config.max_cfss`` analyze the largest populations first,
    mirroring the paper's preference for well-supported fact sets."""
    return sorted(cfss, key=lambda c: (-c.size, c.name))


def graph_cfss(summary: StructuralSummary) -> list[CandidateFactSet]:
    """The type- and summary-based CFSs of a graph (load time): filters
    over the summary's checkpointed per-node frame, sized by the summary's
    one job."""
    out = [
        CandidateFactSet(f"type:{t}", summary.members_of_type(t), n, "type")
        for t, n in summary.type_sizes.items()
    ]
    out += [
        CandidateFactSet(
            f"summary:{c.class_id}", summary.members(c.class_id), c.size, "summary"
        )
        for c in summary.classes
    ]
    return _by_size(out)


def select_cfss(
    summary: StructuralSummary,
    cfss: list[CandidateFactSet],
    config: SpadeConfig,
) -> list[CandidateFactSet]:
    """All CFSs of one request; the analyzed subset is capped downstream.

    ``cfss`` is the graph's list from ``graph_cfss``; summary classes
    below ``config.min_cfs_size`` are dropped. Property-based CFSs
    (``config.property_cfss``) are filters over the summary's node
    frame, like the others, sized by its counts: selection runs no
    Spark job and caches nothing. Returned sorted by decreasing size
    (ties by name).
    """
    out = [c for c in cfss if c.source != "summary" or c.size >= config.min_cfs_size]
    for props in config.property_cfss:
        df, size = summary.members_having(props)
        out.append(CandidateFactSet("props:" + "+".join(props), df, size, "property"))
    return _by_size(out)


def analyzable(cfss: list[CandidateFactSet], config: SpadeConfig) -> list[CandidateFactSet]:
    """The CFSs actually analyzed: large enough, capped in number."""
    big = [c for c in cfss if c.size >= config.min_cfs_size]
    return big[: config.max_cfss] if config.max_cfss else big
