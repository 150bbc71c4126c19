"""Workloads of the time-to-top-k benchmark.

Each workload fixes the *shape* of its graph and its request mix: node
counts, property sets, multi-valued shares and therefore the candidate
fact sets, lattices and MDAs a request works on, plus the
interestingness function h and k. The run seed only varies values and
hash priorities (see ``seeded_triples``), so two seeds do the same
amount of work and their latencies are comparable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.core.config import SpadeConfig
from repro.datagen.benchmark import benchmark_pandas
from repro.datagen.generator import generate_pandas
from repro.datagen.real_graphs import ceos_spec
from repro.rdf.triples import RDF_TYPE

#: Seed of the generators that fix a workload's graph shape; never the
#: run seed.
SHAPE_SEED = 20210620


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a fixed-shape graph and its request mix."""

    name: str
    why: str  # the one-line reason this workload exists
    config: SpadeConfig
    k: int
    h: str

    def base_triples(self) -> pd.DataFrame:
        """The workload's graph at the fixed shape seed (s, p, o)."""
        raise NotImplementedError


# Both graphs are sized so that a run stays near one minute; README.md
# ("Graph sizes") gives the measurements behind the sizes.


@dataclass(frozen=True)
class RdfExplore(Workload):
    #: Nodes per class of the CEOs analog. CEOs outnumber companies so
    #: that the largest CFS, the one a request analyzes, is the
    #: multi-valued type:CEO.
    counts: tuple[tuple[str, int], ...] = (
        ("CEO", 60), ("Company", 45), ("Politician", 20))

    def base_triples(self) -> pd.DataFrame:
        spec = ceos_spec(seed=SHAPE_SEED)
        counts = dict(self.counts)
        classes = tuple(replace(c, count=counts[c.name]) for c in spec.classes)
        return generate_pandas(replace(spec, classes=classes))


@dataclass(frozen=True)
class SynthScale(Workload):
    n_facts: int = 1500
    dim_cards: tuple[int, ...] = (100, 100, 100)
    n_measures: int = 5

    def base_triples(self) -> pd.DataFrame:
        return benchmark_pandas(
            n_facts=self.n_facts,
            dim_cards=self.dim_cards,
            n_measures=self.n_measures,
            sparsity=0.1,
            seed=SHAPE_SEED,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        RdfExplore(
            name="rdf-explore",
            why=(
                "heterogeneous native-RDF graph (CEOs analog): many derived "
                "attributes and multi-valued dims on its largest CFS, so "
                "attribute analysis and MFS enumeration dominate"
            ),
            config=SpadeConfig(
                min_cfs_size=10,
                max_cfss=1,
                max_lattices_per_cfs=1,
                max_measures_per_lattice=2,
                funcs=("count", "sum", "avg"),
                max_paths=2,
            ),
            k=5,
            h="variance",
        ),
        SynthScale(
            name="synth-scale",
            why=(
                "section 6.5 synthetic graph: one CFS, 3 single-valued dims "
                "of 100 values, 5 measures, so MVDCube evaluation (no-dedupe "
                "path) and plan building dominate"
            ),
            # type:Fact and its characteristic set are the same facts;
            # one CFS keeps the request to one evaluation of them.
            config=SpadeConfig(
                max_cfss=1,
                max_measures_per_lattice=None,
                max_lattices_per_cfs=None,
            ),
            k=10,
            h="variance",
        ),
    )
}


def _is_number(values: pd.Series) -> bool:
    return bool(pd.to_numeric(values, errors="coerce").notna().all())


def seeded_triples(base: pd.DataFrame, seed: int) -> pd.DataFrame:
    """A copy of ``base`` isomorphic in shape, with seeded values.

    * Node URIs are permuted within their rdf:type class, consistently
      in subject and object position: the graph is isomorphic to the
      base graph, but every hash over node ids (Spark partitioning,
      early-stop sample priorities) sees other inputs.
    * The distinct values of each numeric property are permuted among
      themselves: value sets, distinct counts, min/max and which facts
      share a value are unchanged, but which fact holds which value is
      not, so aggregates, interestingness and pruning change.

    Property sets, supports, multi-valued shares, cardinalities and text
    are untouched, hence so are the CFSs, attributes, lattices and MDAs.
    """
    rng = np.random.default_rng(seed)
    out = base.copy()
    types = out[out["p"] == RDF_TYPE]
    relabel: dict[str, str] = {}
    for _, members in sorted(types.groupby("o")["s"]):
        ids = members.to_numpy()
        relabel.update(zip(ids, ids[rng.permutation(len(ids))]))
    out["s"] = out["s"].map(relabel).fillna(out["s"])
    out["o"] = out["o"].map(relabel).fillna(out["o"])
    for prop in sorted(out["p"].unique()):
        rows = out["p"] == prop
        if prop == RDF_TYPE or not _is_number(out.loc[rows, "o"]):
            continue
        distinct = out.loc[rows, "o"].unique()
        perm = dict(zip(distinct, distinct[rng.permutation(len(distinct))]))
        out.loc[rows, "o"] = out.loc[rows, "o"].map(perm)
    return out
