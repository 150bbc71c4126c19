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
    """The stratified sample + exact cell counts of one lattice root."""

    n_dims: int
    measures: tuple[str, ...]  # measure names by position
    # cell -> list[(priority, cf, mvals)] sorted by priority; mvals is a
    # dict m{i}_{cnt|sum|min|max} -> float for non-null entries.
    cells: dict[tuple, list[tuple]]
    cell_counts: dict[tuple, int]

    def frame(self):
        """The sample as a pandas frame (d0.., cf, prio, measure cols),
        globally sorted by priority — built once, cached."""
        if not hasattr(self, "_frame"):
            dim_cols = [f"d{i}" for i in range(self.n_dims)]
            mcols = [
                f"m{i}_{f}"
                for i in range(len(self.measures))
                for f in ("cnt", "sum", "min", "max")
            ]
            records = []
            for cell_key, rows in self.cells.items():
                for prio, cf, mvals in rows:
                    rec = dict(zip(dim_cols, cell_key))
                    rec["cf"] = cf
                    rec["prio"] = prio
                    for c in mcols:
                        rec[c] = mvals.get(c, np.nan)
                    records.append(rec)
            df = pd.DataFrame(records, columns=dim_cols + ["cf", "prio"] + mcols)
            object.__setattr__(
                self, "_frame", df.sort_values("prio", kind="stable")
            )
        return self._frame

    def counts_frame(self):
        """Exact root-cell counts as a pandas frame (d0.., n)."""
        if not hasattr(self, "_counts"):
            dim_cols = [f"d{i}" for i in range(self.n_dims)]
            rows = [
                {**dict(zip(dim_cols, k)), "n": v}
                for k, v in self.cell_counts.items()
            ]
            object.__setattr__(
                self, "_counts", pd.DataFrame(rows, columns=dim_cols + ["n"])
            )
        return self._counts


def draw_root_samples(
    roots: list[tuple[Query, int]],
    preagg: PreAggregatedMeasures,
    *,
    capacity: int,
    seed: int,
) -> list[RootSample]:
    """One statement sampling *several* lattice roots at once.

    ``roots`` lists (root fragment, n_dims) per lattice; each root is
    joined with the pre-aggregates and tagged with its lattice (dim
    columns padded to the widest lattice), and a window over each
    (lattice, cell) keeps the ``capacity`` facts of lowest priority
    ``xxhash64(seed, cf, cell)`` — a bottom-k sketch, equivalent to
    reservoir sampling [44] — plus the cell's exact size. All
    reservoirs of a CFS fill in one Spark action, the
    sampling-overhead amortization that keeps early-stop a net win (the
    paper observed negative gains when sampling overhead dominates; see
    Table 4's Foodista/DBLP rows).
    """
    assert roots
    max_n = max(n for _, n in roots)
    mcols = [c for m in preagg.measures for c in preagg.columns_for(m).values()]
    cell = ", ".join(["lat"] + [f"d{i}" for i in range(max_n)])
    selects = []
    for li, (_, n) in enumerate(roots):
        dcols = [f"d{i}" if i < n else f"CAST(NULL AS STRING) AS d{i}" for i in range(max_n)]
        prio = f"xxhash64(:seed, cf{''.join(f', d{i}' for i in range(n))})"
        selects.append(
            f"SELECT {li} AS lat, {', '.join(dcols)}, cf, {prio} AS {PRIO_COL}, "
            f"{', '.join(mcols)} FROM r{li} LEFT JOIN pre USING (cf)"
        )
    pdf = with_ctes(
        [(f"r{li}", root) for li, (root, _) in enumerate(roots)] + [("pre", preagg.query)],
        f"SELECT * FROM (SELECT *, row_number() OVER (PARTITION BY {cell} "
        f"ORDER BY {PRIO_COL}) AS pos, count(1) OVER (PARTITION BY {cell}) AS n "
        f"FROM ({' UNION ALL '.join(selects)})) WHERE pos <= :capacity",
        seed=seed,
        capacity=capacity,
    ).run().toPandas()
    samples = [RootSample(n, preagg.measures, {}, {}) for _, n in roots]
    for rd in pdf.sort_values(PRIO_COL, kind="stable").to_dict("records"):
        sample = samples[rd["lat"]]
        key = tuple(
            None if pd.isna(v := rd[f"d{i}"]) else v for i in range(sample.n_dims)
        )
        mvals = {c: rd[c] for c in mcols if not pd.isna(rd[c])}
        sample.cells.setdefault(key, []).append((rd[PRIO_COL], rd["cf"], mvals))
        sample.cell_counts[key] = rd["n"]
    return samples


# ---------------------------------------------------------------------------
# Candidates (per-node samples via projection / propagation)
# ---------------------------------------------------------------------------
@dataclass
class GroupSample:
    """Sampled per-fact values of one aggregate group."""

    values: np.ndarray  # in priority (random) order
    size_estimate: int  # c_g: sum of contributing root-cell counts


@dataclass
class Packed:
    """Ragged per-group sample values packed for vectorized estimation."""

    concat: np.ndarray  # all group values concatenated
    starts: np.ndarray  # start offset of each group in concat
    lengths: np.ndarray  # sample length of each group
    sizes: np.ndarray  # c_g estimates


@dataclass
class ESCandidate:
    """One candidate aggregate with its propagated stratified sample."""

    key: MDAKey
    func: str
    groups: list[GroupSample]
    value_bounds: tuple[float, float] | None = None  # global attr (min,max)

    def packed(self) -> Packed:
        """Pack the ragged group samples once (cached) so batch
        estimation is pure numpy even with tens of thousands of groups."""
        if not hasattr(self, "_packed"):
            lengths = np.array([g.values.size for g in self.groups], dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if len(
                lengths
            ) else np.array([], dtype=np.int64)
            concat = (
                np.concatenate([g.values for g in self.groups])
                if self.groups
                else np.array([])
            )
            sizes = np.array(
                [g.size_estimate for g in self.groups], dtype=np.float64
            )
            object.__setattr__(self, "_packed", Packed(concat, starts, lengths, sizes))
        return self._packed


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

    Vectorized (pandas/numpy): for each node, root-cell samples are
    projected onto the node's dimensions, facts deduplicated per child
    group in priority order (the bitmap propagation of Figure 5),
    capped at ``capacity`` per group; the packed ragged arrays feed
    `estimate_interestingness` directly.
    """
    from itertools import combinations

    SEP = "\x1f"
    out: list[ESCandidate] = []
    n = len(spec.dims)
    pairs: list[tuple[int, str, str]] = [(-1, COUNT_STAR, "count")] + [
        (sample.measures.index(m), m, f)
        for m in spec.measures
        for f in spec.funcs[m]
    ]
    df = sample.frame()
    cnts = sample.counts_frame()
    for size in range(n, 0, -1):
        for pos in combinations(range(n), size):
            dcols = [f"d{i}" for i in pos]
            # Null groups are not reported (Section 2): drop them.
            sub = df.dropna(subset=dcols)
            # Bitmap propagation: one row per (group, fact), keeping the
            # lowest-priority (random-first) row; cap at capacity.
            sub = sub.drop_duplicates(dcols + ["cf"], keep="first")
            sub = sub[sub.groupby(dcols, sort=False).cumcount() < capacity]
            # Contiguous groups, priority order within each group.
            sub = sub.sort_values(dcols, kind="stable")
            gkey = sub[dcols[0]].astype(str)
            for c in dcols[1:]:
                gkey = gkey + SEP + sub[c].astype(str)
            gkey = gkey.to_numpy()
            # Estimated group sizes from exact root-cell counts
            # (overestimates under multi-valued dims; Appendix B).
            csub = cnts.dropna(subset=dcols)
            ckey = csub[dcols[0]].astype(str)
            for c in dcols[1:]:
                ckey = ckey + SEP + csub[c].astype(str)
            size_by_key = csub.groupby(ckey.to_numpy())["n"].sum().to_dict()
            node_names = tuple(sorted(spec.dims[i] for i in pos))
            for midx, m, f in pairs:
                vals = _pair_values(sub, midx, f)
                mask = ~np.isnan(vals)
                sel_keys = gkey[mask]
                sel_vals = vals[mask]
                uk, starts, lengths = np.unique(
                    sel_keys, return_index=True, return_counts=True
                )
                sizes = np.array(
                    [size_by_key.get(k, 0) or l for k, l in zip(uk, lengths)],
                    dtype=np.float64,
                )
                cand = ESCandidate(
                    MDAKey(spec.cfs_name, node_names, m, f),
                    f,
                    [],
                    (value_bounds or {}).get(m),
                )
                object.__setattr__(
                    cand,
                    "_packed",
                    Packed(sel_vals, starts.astype(np.int64),
                           lengths.astype(np.int64), sizes),
                )
                out.append(cand)
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
    r: int  # sample size per group used


def estimate_interestingness(
    cand: ESCandidate, r: int, *, h_name: str, alpha: float
) -> Estimate:
    """Ĥ_r(Ȳ) with the Theorem-2 large-sample CI at sample size r."""
    h = get_h(h_name)
    p = cand.packed()
    if p.lengths.size < 2:
        return Estimate(0.0, 0.0, 0.0, r)

    if cand.func in ("min", "max"):
        # Appendix C: sample extreme as point estimate; Popoviciu's
        # inequality bounds the variance of values confined to the box
        # [global bound, observed extremes]; the lower bound is 0 (all
        # true extremes could coincide inside the box).
        take = np.minimum(p.lengths, max(1, r))
        slices = np.ravel(np.column_stack([p.starts, p.starts + take]))
        reducer = np.minimum if cand.func == "min" else np.maximum
        # reduceat over [start, start+take) slices; odd positions are
        # the gaps between slices and are discarded.
        red = reducer.reduceat(
            np.append(p.concat, np.nan), np.minimum(slices, p.concat.size - 0)
        )
        y = red[::2]
        score = h(y)
        if h_name != "variance" or cand.value_bounds is None:
            return Estimate(score, 0.0, float("inf"), r)
        blo, bhi = cand.value_bounds
        box_lo = blo if cand.func == "min" else float(y.min())
        box_hi = float(y.max()) if cand.func == "min" else bhi
        upper = 0.25 * (box_hi - box_lo) ** 2  # Popoviciu
        return Estimate(score, 0.0, max(upper, score), r)

    # Vectorized prefix mean/variance at sample size r over the packed
    # ragged arrays (pure numpy even with tens of thousands of groups).
    p = cand.packed()
    take = np.minimum(p.lengths, max(1, r))
    csp = np.concatenate(([0.0], np.cumsum(p.concat)))
    cs2p = np.concatenate(([0.0], np.cumsum(p.concat**2)))
    sums = csp[p.starts + take] - csp[p.starts]
    sq = cs2p[p.starts + take] - cs2p[p.starts]
    means = sums / take
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(
            take >= 2, np.maximum(sq - take * means**2, 0.0) / np.maximum(take - 1, 1), 0.0
        )
    if cand.func in ("sum", "count"):
        # Appendix B: S_i = c_i * Ȳ_i with Var(S_i) = c_i² σ̂_i² / r.
        # count(*) sampled values are all 1, so S_i = c_i exactly.
        y = p.sizes * means
        var_y = p.sizes**2 * var / take
    else:  # avg
        y = means
        var_y = var / take
    score = h(y)
    grad = gradient(h_name, y)
    tau2 = float(np.sum(var_y * grad**2))
    eps = _z_quantile(1 - alpha) * np.sqrt(max(tau2, 0.0))
    return Estimate(score, max(0.0, score - eps), score + eps, r)


def _z_quantile(p: float) -> float:
    """Quantile z_p of the standard normal via Acklam's rational
    approximation (no scipy dependency); z_{0.95} ≈ 1.6449."""
    q = (p + 1) / 2  # the paper's z_p is the (p+1)/2 quantile of Φ
    # Acklam's algorithm.
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    if q < plow:
        ql = np.sqrt(-2 * np.log(q))
        return (((((c[0] * ql + c[1]) * ql + c[2]) * ql + c[3]) * ql + c[4]) * ql + c[5]) / (
            (((d[0] * ql + d[1]) * ql + d[2]) * ql + d[3]) * ql + 1
        )
    if q <= phigh:
        ql = q - 0.5
        rr = ql * ql
        return (((((a[0] * rr + a[1]) * rr + a[2]) * rr + a[3]) * rr + a[4]) * rr + a[5]) * ql / (
            ((((b[0] * rr + b[1]) * rr + b[2]) * rr + b[3]) * rr + b[4]) * rr + 1
        )
    ql = np.sqrt(-2 * np.log(1 - q))
    return -(((((c[0] * ql + c[1]) * ql + c[2]) * ql + c[3]) * ql + c[4]) * ql + c[5]) / (
        (((d[0] * ql + d[1]) * ql + d[2]) * ql + d[3]) * ql + 1
    )


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
