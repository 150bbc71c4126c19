"""Early-stop aggregate pruning (Section 5).

Pipeline:

1. **Stratified reservoir sampling** during Data Translation: one SQL
   statement over the root fact-cell relations (joined with the
   pre-aggregated measures) keeps, per cell, the bottom-``capacity``
   facts by a deterministic per-row hash priority — a bottom-k sketch,
   equivalent to reservoir sampling [44] — and the cell's exact size.
2. **Propagation**: per-node samples are the root-cell samples
   projected onto the node's dimensions with facts deduplicated per
   child group — the bitmap-based sample propagation of Figure 5.
3. **Estimation** (Section 5.2): group means of per-CF pre-aggregated
   values; the interestingness estimate Ĥ_r(Ȳ) is bounded by the
   large-sample CI of Theorem 2 with
   ``ε_r = z_{1-α} sqrt(Σ_s (σ̂_s²/r_s) (∂Ĥ/∂y_s)²)``
   (the Delta-method variance; the paper's τ̂² with an extra /r is a
   notational slip — this is the quantity its proof standardizes).
   ``sum``/``count`` scale by estimated group sizes (Appendix B;
   sizes come from exact root-cell counts and are *overestimates* for
   non-root nodes, as the paper notes); ``min``/``max`` use sample
   extremes with a Popoviciu upper bound (Appendix C).
4. **Pruning loop** (Section 5.1): same sample size per group,
   processed in batches; after each batch an aggregate is pruned when
   its upper bound falls below the k-th best lower bound; the loop
   stops when the sample is exhausted or nothing was pruned for
   ``patience`` batches. Survivors go to full MVDCube evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
import pandas as pd

from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.enumeration import LatticeSpec
from repro.core.interestingness import get as get_h, negligible_variance
from repro.core.mda import MDAKey
from repro.core.preagg import PreAggregatedMeasures
from repro.core.query import Query, with_ctes

PRIO_COL = "__prio"


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------
@dataclass
class RootSample:
    """The stratified sample of one lattice root: its collected rows."""

    measures: tuple[str, ...]  # measure names by position
    # Columns d0.., cf, __prio, n (the cell's exact size) and m{i}_*
    # (NaN where the fact lacks the measure), sorted by priority. Every
    # root cell keeps at least one row.
    rows: pd.DataFrame


def draw_root_samples(
    roots: list[tuple[Query, int]],
    preagg: PreAggregatedMeasures | None,
    *,
    capacity: int,
    seed: int,
) -> list[RootSample]:
    """One statement sampling *several* lattice roots at once.

    ``roots`` lists (root fragment, n_dims) per lattice; each root is
    joined with the pre-aggregates (if there are any) and tagged with
    its lattice (dim columns padded to the widest lattice), and a window
    over each (lattice, cell) keeps the ``capacity`` facts of lowest
    priority ``xxhash64(seed, cf, cell)`` — a bottom-k sketch, equivalent to
    reservoir sampling [44] — plus the cell's exact size. All
    reservoirs of a request fill in one Spark action, but it is an action
    of its own: the evaluation statement translates the roots again.
    """
    assert roots
    max_n = max(n for _, n in roots)
    measures = preagg.measures if preagg else ()
    mcols = [c for m in measures for c in preagg.columns_for(m).values()]
    join = " LEFT JOIN pre USING (cf)" if preagg else ""
    cell = ", ".join(["lat"] + [f"d{i}" for i in range(max_n)])
    selects = []
    for li, (_, n) in enumerate(roots):
        dcols = [f"d{i}" if i < n else f"CAST(NULL AS STRING) AS d{i}" for i in range(max_n)]
        prio = f"xxhash64(:seed, cf{''.join(f', d{i}' for i in range(n))})"
        cols = [f"{li} AS lat", *dcols, "cf", f"{prio} AS {PRIO_COL}", *mcols]
        selects.append(f"SELECT {', '.join(cols)} FROM r{li}{join}")
    ctes = [(f"r{li}", root) for li, (root, _) in enumerate(roots)]
    pdf = with_ctes(
        ctes + ([("pre", preagg.query)] if preagg else []),
        f"SELECT * FROM (SELECT *, row_number() OVER (PARTITION BY {cell} "
        f"ORDER BY {PRIO_COL}) AS pos, count(1) OVER (PARTITION BY {cell}) AS n "
        f"FROM ({' UNION ALL '.join(selects)})) WHERE pos <= :capacity",
        seed=seed,
        capacity=capacity,
    ).run().toPandas().sort_values(PRIO_COL, kind="stable")
    return [
        RootSample(
            measures,
            pdf.loc[pdf["lat"] == li, [f"d{i}" for i in range(n)]
                    + ["cf", PRIO_COL, "n"] + mcols].reset_index(drop=True),
        )
        for li, (_, n) in enumerate(roots)
    ]


# ---------------------------------------------------------------------------
# Candidates (per-node samples via projection / propagation)
# ---------------------------------------------------------------------------
@dataclass
class ESCandidate:
    """One candidate aggregate with its propagated stratified sample,
    packed for vectorized estimation: group g's sampled per-fact values,
    in priority (random) order, are
    ``values[starts[g]:starts[g] + lengths[g]]``."""

    key: MDAKey
    func: str
    values: np.ndarray  # every group's sampled values, group after group
    starts: np.ndarray  # start offset of each group in values
    lengths: np.ndarray  # sample length of each group
    sizes: np.ndarray  # c_g: sum of the group's root-cell counts
    value_bounds: tuple[float, float] | None = None  # global attr (min,max)


def _pair_values(sub, midx: int, func: str) -> np.ndarray:
    """Per-fact (pre-aggregated) values of one (measure, func) pair over
    the sampled rows; NaN where the fact lacks the measure."""
    if midx < 0:  # count(*)
        return np.ones(len(sub), dtype=np.float64)
    cnt = sub[f"m{midx}_cnt"].to_numpy(np.float64)
    if func == "count":
        return cnt
    if func == "sum":
        return sub[f"m{midx}_sum"].to_numpy(np.float64)
    if func == "avg":
        return sub[f"m{midx}_sum"].to_numpy(np.float64) / cnt
    if func in ("min", "max"):
        return sub[f"m{midx}_{func}"].to_numpy(np.float64)
    raise ValueError(func)


def build_candidates(
    sample: RootSample,
    spec: LatticeSpec,
    *,
    capacity: int,
    value_bounds: dict[str, tuple[float, float]] | None = None,
) -> list[ESCandidate]:
    """Propagate the root sample to every (node, measure, func) MDA.

    Vectorized (pandas/numpy): for each node but the apex, root-cell
    samples are projected onto the node's dimensions, facts
    deduplicated per child group in priority order (the bitmap
    propagation of Figure 5), capped at ``capacity`` per group.
    """
    out: list[ESCandidate] = []
    df = sample.rows
    cells = df.drop_duplicates([f"d{i}" for i in range(len(spec.dims))])
    for pos in spec.nodes()[:-1]:
        dcols = [f"d{i}" for i in pos]
        # Null groups are not reported (Section 2): drop them.
        sub = df.dropna(subset=dcols)
        # Bitmap propagation: one row per (group, fact), keeping the
        # lowest-priority (random-first) row; cap at capacity.
        sub = sub.drop_duplicates(dcols + ["cf"], keep="first")
        sub = sub[sub.groupby(dcols, sort=False).cumcount() < capacity]
        # Contiguous groups, priority order within each group.
        sub = sub.sort_values(dcols, kind="stable")
        # One integer key per group (dimension tuple), shared by the
        # sample and the cells: numbered in order of first appearance,
        # so the sorted sample's keys ascend.
        csub = cells.dropna(subset=dcols)
        keys = (
            pd.concat([sub[dcols], csub[dcols]], ignore_index=True)
            .groupby(dcols, sort=False)
            .ngroup()
            .to_numpy()
        )
        # Estimated group sizes from exact root-cell counts
        # (overestimates under multi-valued dims; Appendix B).
        size_by_key = np.bincount(
            keys[len(sub) :], weights=csub["n"].to_numpy(np.float64)
        )
        gkey = keys[: len(sub)]
        node_names = tuple(spec.dims[i] for i in pos)
        for m, f in spec.pairs:
            midx = -1 if m == COUNT_STAR else sample.measures.index(m)
            vals = _pair_values(sub, midx, f)
            mask = ~np.isnan(vals)
            uk, starts, lengths = np.unique(
                gkey[mask], return_index=True, return_counts=True
            )
            out.append(
                ESCandidate(
                    MDAKey(spec.cfs_name, node_names, m, f),
                    f,
                    vals[mask],
                    starts.astype(np.int64),
                    lengths.astype(np.int64),
                    size_by_key[uk],
                    (value_bounds or {}).get(m),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Estimation (Theorem 2 + Appendices A-C)
# ---------------------------------------------------------------------------
def _numeric_gradient(h, y: np.ndarray) -> np.ndarray:
    """Central-difference gradient of h at y (used for skew/kurtosis;
    the closed-form partials of Appendix A are its analytic value)."""
    g = np.zeros_like(y)
    scale = max(1.0, float(np.abs(y).max()))
    eps = 1e-6 * scale
    for i in range(y.size):
        up, dn = y.copy(), y.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (h(up) - h(dn)) / (2 * eps)
    return g


def _variance_gradient(y: np.ndarray) -> np.ndarray:
    """Closed-form ∂Ĥ/∂y_s = 2/(G-1)(y_s - ȳ) (Section 5.2)."""
    G = y.size
    return 2.0 / (G - 1) * (y - y.mean())


def _skewness_gradient(y: np.ndarray) -> np.ndarray:
    """Analytic gradient of |m3 / m2^{3/2}| (Appendix A, vectorized)."""
    G = y.size
    d = y - y.mean()
    m2, m3 = (d**2).mean(), (d**3).mean()
    if negligible_variance(m2, 3.0):  # m2**-2.5 would overflow
        return np.zeros_like(y)
    dm2 = 2.0 / G * d
    dm3 = 3.0 / G * (d**2 - m2)
    ds = dm3 * m2**-1.5 - 1.5 * m3 * m2**-2.5 * dm2
    return np.sign(m3) * ds if m3 != 0 else ds


def _kurtosis_gradient(y: np.ndarray) -> np.ndarray:
    """Analytic gradient of |m4 / m2^2 - 3| (Appendix A, vectorized)."""
    G = y.size
    d = y - y.mean()
    m2, m3, m4 = (d**2).mean(), (d**3).mean(), (d**4).mean()
    if negligible_variance(m2, 3.0):  # m2**3 would underflow
        return np.zeros_like(y)
    dm2 = 2.0 / G * d
    dm4 = 4.0 / G * (d**3 - m3)
    dk = dm4 / m2**2 - 2.0 * m4 * dm2 / m2**3
    k = m4 / m2**2 - 3.0
    return np.sign(k) * dk if k != 0 else dk


def gradient(h_name: str, y: np.ndarray) -> np.ndarray:
    """∂Ĥ/∂y for the supported interestingness functions — the
    closed-form partials of Section 5.2 / Appendix A (the numeric
    gradient is their test oracle)."""
    if h_name == "variance":
        return _variance_gradient(y)
    if h_name == "skewness":
        return _skewness_gradient(y)
    if h_name == "kurtosis":
        return _kurtosis_gradient(y)
    return _numeric_gradient(get_h(h_name), y)


@dataclass
class Estimate:
    """Point estimate of h plus its (1-α) confidence interval."""

    score: float
    lower: float
    upper: float


def estimate_interestingness(
    cand: ESCandidate, r: int, *, h_name: str, alpha: float
) -> Estimate:
    """Ĥ_r(Ȳ) with the Theorem-2 large-sample CI at sample size r."""
    h = get_h(h_name)
    if cand.lengths.size < 2:
        return Estimate(0.0, 0.0, 0.0)

    if cand.func in ("min", "max"):
        # Appendix C: sample extreme as point estimate; Popoviciu's
        # inequality bounds the variance of values confined to the box
        # [global bound, observed extremes]; the lower bound is 0 (all
        # true extremes could coincide inside the box).
        take = np.minimum(cand.lengths, max(1, r))
        slices = np.ravel(np.column_stack([cand.starts, cand.starts + take]))
        reducer = np.minimum if cand.func == "min" else np.maximum
        # reduceat over [start, start+take) slices; odd positions are
        # the gaps between slices and are discarded.
        red = reducer.reduceat(np.append(cand.values, np.nan), slices)
        y = red[::2]
        score = h(y)
        if h_name != "variance" or cand.value_bounds is None:
            return Estimate(score, 0.0, float("inf"))
        blo, bhi = cand.value_bounds
        box_lo = blo if cand.func == "min" else float(y.min())
        box_hi = float(y.max()) if cand.func == "min" else bhi
        upper = 0.25 * (box_hi - box_lo) ** 2  # Popoviciu
        return Estimate(score, 0.0, max(upper, score))

    # Vectorized prefix mean/variance at sample size r over the packed
    # ragged arrays (pure numpy even with tens of thousands of groups).
    take = np.minimum(cand.lengths, max(1, r))
    csp = np.concatenate(([0.0], np.cumsum(cand.values)))
    cs2p = np.concatenate(([0.0], np.cumsum(cand.values**2)))
    sums = csp[cand.starts + take] - csp[cand.starts]
    sq = cs2p[cand.starts + take] - cs2p[cand.starts]
    means = sums / take
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(
            take >= 2, np.maximum(sq - take * means**2, 0.0) / np.maximum(take - 1, 1), 0.0
        )
    if cand.func in ("sum", "count"):
        # Appendix B: S_i = c_i * Ȳ_i with Var(S_i) = c_i² σ̂_i² / r.
        # count(*) sampled values are all 1, so S_i = c_i exactly.
        y = cand.sizes * means
        var_y = cand.sizes**2 * var / take
    else:  # avg
        y = means
        var_y = var / take
    score = h(y)
    grad = gradient(h_name, y)
    tau2 = float(np.sum(var_y * grad**2))
    # The paper's z_{1-α} is the 1 - α/2 quantile of the standard normal.
    eps = NormalDist().inv_cdf(1 - alpha / 2) * np.sqrt(max(tau2, 0.0))
    return Estimate(score, max(0.0, score - eps), score + eps)


# ---------------------------------------------------------------------------
# Pruning loop
# ---------------------------------------------------------------------------
@dataclass
class EarlyStopResult:
    """Outcome of the pruning loop over all candidates."""

    survivors: set[MDAKey]
    pruned: set[MDAKey]
    estimates: dict[MDAKey, Estimate] = field(default_factory=dict)
    batches_run: int = 0


def early_stop_prune(
    candidates: list[ESCandidate],
    *,
    k: int,
    h_name: str,
    config: SpadeConfig,
) -> EarlyStopResult:
    """Batch-wise pruning (Section 5.1, Figure 5 center).

    Prunes a candidate as soon as its CI upper bound falls below the
    current k-th best lower bound; never prunes below k candidates.
    """
    batch = max(1, config.es_sample_size // config.es_batches)
    by_key: dict[MDAKey, ESCandidate] = {}
    for c in candidates:  # dedupe MDAs shared across lattices
        by_key.setdefault(c.key, c)
    alive = set(by_key)
    pruned: set[MDAKey] = set()
    estimates: dict[MDAKey, Estimate] = {}
    batches_run = 0
    stale = 0
    for b in range(config.es_batches):
        r = batch * (b + 1)
        batches_run += 1
        for key in alive:
            estimates[key] = estimate_interestingness(
                by_key[key], r, h_name=h_name, alpha=config.es_alpha
            )
        lowers = sorted((estimates[key].lower for key in alive), reverse=True)
        if len(lowers) <= k:
            break
        kth = lowers[k - 1]
        to_prune = {
            key
            for key in alive
            if estimates[key].upper < kth
        }
        # Never drop below k alive candidates.
        if len(alive) - len(to_prune) < k:
            keep_back = sorted(
                to_prune, key=lambda key: -estimates[key].upper
            )[: k - (len(alive) - len(to_prune))]
            to_prune -= set(keep_back)
        alive -= to_prune
        pruned |= to_prune
        stale = stale + 1 if not to_prune else 0
        if stale >= config.es_patience:
            break
        if r >= config.es_sample_size:
            break
    return EarlyStopResult(alive, pruned, estimates, batches_run)
