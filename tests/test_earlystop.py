"""Tests for early-stop: sampling, propagation, CIs, pruning loop."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.core.attributes import Attribute
from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.derived import path_attribute
from repro.core.earlystop import (
    PRIO_COL,
    ESCandidate,
    RootSample,
    _numeric_gradient,
    _variance_gradient,
    build_candidates,
    draw_root_samples,
    early_stop_prune,
    estimate_interestingness,
    gradient,
)
from repro.core.enumeration import LatticeSpec
from repro.core.mda import MDAKey
from repro.core.mvdcube import translate
from repro.core.preagg import preaggregate
from repro.core.interestingness import variance
from tests.helpers import nodes_of_type, property_table, union_of, with_table


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------
def test_variance_gradient_closed_form_matches_numeric():
    y = np.array([1.0, 4.0, 2.0, 7.0])
    num = _numeric_gradient(variance, y)
    assert np.allclose(_variance_gradient(y), num, atol=1e-4)


@pytest.mark.parametrize("h_name", ["skewness", "kurtosis"])
def test_moment_gradients_finite_when_variance_underflows(h_name):
    # m2 > 0, but m2**-2.5 overflows and m2**3 underflows.
    g = gradient(h_name, np.array([0.0, 8.1e-96]))
    assert np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# Sampling + propagation on the Figure 1 graph
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1_inputs(spark, fig1):
    cfs = nodes_of_type(fig1, "CEO")
    attrs = {
        "nationality": Attribute(
            "nationality", property_table(fig1, "nationality"), "direct"
        ),
        "company/area": with_table(fig1, path_attribute("company", "area")),
        "netWorth": Attribute("netWorth", property_table(fig1, "netWorth"), "direct"),
    }
    union = union_of(list(attrs.values()))
    return cfs, union, preaggregate(union, ["netWorth"])


def _sample(inputs, dim_sets, capacity):
    cfs, union, preagg = inputs
    roots = [
        (translate(cfs, union, dims, f"l{i}_"), len(dims))
        for i, dims in enumerate(dim_sets)
    ]
    return draw_root_samples(roots, preagg, capacity=capacity, seed=0)


@pytest.fixture(scope="module")
def fig1_sample(fig1_inputs):
    spec = LatticeSpec(
        "CEO",
        dims=("nationality", "company/area"),
        measures=("netWorth",),
        funcs={"netWorth": ("sum", "avg")},
    )
    (sample,) = _sample(fig1_inputs, [spec.dims], capacity=10)
    return sample, spec


DIMS2 = ["d0", "d1"]


def test_reservoir_merge_dedupes_by_cf(fig1_sample):
    sample, _ = fig1_sample
    assert not sample.rows.duplicated(DIMS2 + ["cf"]).any()  # facts dedupe by cf


def test_reservoir_trims_to_capacity_lowest_priority(fig1_inputs):
    (full,) = _sample(fig1_inputs, [("company/area",)], capacity=10)
    (trimmed,) = _sample(fig1_inputs, [("company/area",)], capacity=1)
    full_cell = full.rows[full.rows["d0"] == "Manufacturer"].reset_index(drop=True)
    trimmed_cell = trimmed.rows[trimmed.rows["d0"] == "Manufacturer"]
    assert len(full_cell) == 2
    pd.testing.assert_frame_equal(
        trimmed_cell.reset_index(drop=True), full_cell[:1], check_dtype=False
    )
    assert trimmed_cell["n"].tolist() == [2]  # exact count survives the trim


def test_reservoir_merges_cells_independently(fig1_inputs):
    dim_sets = [("company/area",), ("nationality",)]
    together = _sample(fig1_inputs, dim_sets, capacity=1)
    for dims, sample in zip(dim_sets, together):
        (alone,) = _sample(fig1_inputs, [dims], capacity=1)
        pd.testing.assert_frame_equal(sample.rows, alone.rows, check_dtype=False)


def test_sample_cell_counts_exact(fig1_sample):
    sample, _ = fig1_sample
    # 11 root cells, each holding exactly one fact.
    cells = sample.rows.drop_duplicates(DIMS2)
    assert cells["n"].sum() == 11
    assert (cells["n"] == 1).all()


def test_sample_holds_all_facts_under_capacity(fig1_sample):
    sample, _ = fig1_sample
    assert len(sample.rows) == 11


def test_sample_rows_carry_preaggregated_measures(fig1_sample):
    sample, _ = fig1_sample
    assert sample.rows["m0_sum"].isin([2.8, 0.12]).all()


def test_propagation_dedupes_facts_per_group(fig1_sample):
    sample, spec = fig1_sample
    cands = {c.key: c for c in build_candidates(sample, spec, capacity=10)}
    key = MDAKey("CEO", ("company/area",), COUNT_STAR, "count")
    cand = cands[key]
    # Manufacturer group: n1 + n2, each once despite multiple root cells.
    sizes = sorted(cand.lengths.tolist())
    assert sizes == [1, 1, 1, 2]


def test_propagation_size_estimates_overestimate(fig1_sample):
    # Appendix B: child group sizes from root-cell counts overestimate
    # under multi-valued dims (n2 counted once per nationality).
    sample, spec = fig1_sample
    cands = {c.key: c for c in build_candidates(sample, spec, capacity=10)}
    cand = cands[MDAKey("CEO", ("company/area",), COUNT_STAR, "count")]
    manufacturer = max(cand.sizes)
    assert manufacturer == 5  # 1 (n1) + 4 (n2's nationalities)


def test_candidates_cover_all_nodes_and_pairs(fig1_sample):
    sample, spec = fig1_sample
    cands = build_candidates(sample, spec, capacity=10)
    keys = {c.key for c in cands}
    # 3 non-apex nodes x (count* + sum + avg) = 9.
    assert len(keys) == 9


def _groups(cand):
    """A candidate's groups as sorted (values, size estimate) pairs."""
    return sorted(
        (tuple(cand.values[s : s + n].tolist()), float(c))
        for s, n, c in zip(cand.starts, cand.lengths, cand.sizes)
    )


def _fact_value(mvals, i, func):
    if i < 0:  # count(*)
        return 1.0
    if f"m{i}_cnt" not in mvals:  # the fact lacks the measure
        return None
    if func == "avg":
        return mvals[f"m{i}_sum"] / mvals[f"m{i}_cnt"]
    return mvals[f"m{i}_{'cnt' if func == 'count' else func}"]


def _loop_groups(sample, spec, capacity):
    """Reference propagation, one group at a time: per node, each fact
    once per group in priority order, at most ``capacity`` facts per
    group; the size estimate sums the group's root-cell counts."""
    n = len(spec.dims)
    rows, cell_counts = [], {}
    for rec in sample.rows.to_dict("records"):
        cell = tuple(None if pd.isna(rec[f"d{i}"]) else rec[f"d{i}"] for i in range(n))
        mvals = {c: v for c, v in rec.items() if c.startswith("m") and not pd.isna(v)}
        rows.append((rec[PRIO_COL], rec["cf"], mvals, cell))
        cell_counts[cell] = rec["n"]
    rows.sort(key=lambda row: row[:2])
    pairs = [(-1, COUNT_STAR, "count")] + [
        (sample.measures.index(m), m, f) for m in spec.measures for f in spec.funcs[m]
    ]
    out = {}
    for size in range(n, 0, -1):
        for pos in combinations(range(n), size):
            facts: dict[tuple, list] = {}
            for _, cf, mvals, cell in rows:
                g = tuple(cell[i] for i in pos)
                seen = facts.setdefault(g, [])
                if None not in g and cf not in [c for c, _ in seen] and len(seen) < capacity:
                    seen.append((cf, mvals))
            sizes = {g: 0 for g in facts}
            for cell, count in cell_counts.items():
                g = tuple(cell[i] for i in pos)
                if g in sizes:
                    sizes[g] += count
            node = tuple(sorted(spec.dims[i] for i in pos))
            for i, m, f in pairs:
                groups = []
                for g, seen in facts.items():
                    vals = [v for _, mv in seen if (v := _fact_value(mv, i, f)) is not None]
                    if vals:
                        groups.append((tuple(vals), float(sizes[g] or len(vals))))
                out[MDAKey(spec.cfs_name, node, m, f)] = sorted(groups)
    return out


@pytest.mark.parametrize("capacity", [10, 1])
def test_candidates_equal_loop_reference(fig1_inputs, fig1_sample, capacity):
    _, spec = fig1_sample
    (sample,) = _sample(fig1_inputs, [spec.dims], capacity=capacity)
    cands = build_candidates(sample, spec, capacity=capacity)
    assert {c.key: _groups(c) for c in cands} == _loop_groups(sample, spec, capacity)


def test_group_keys_keep_dimension_tuples_apart():
    # Joined as text with a separator, these two cells would be one group.
    spec = LatticeSpec("c", dims=("x", "y"), measures=(), funcs={})
    rows = pd.DataFrame({"d0": ["a\x1fb", "a"], "d1": ["c", "b\x1fc"], "cf": ["f1", "f2"],
                         PRIO_COL: [1, 2], "n": [3, 3]})
    sample = RootSample((), rows)
    cands = {c.key: c for c in build_candidates(sample, spec, capacity=10)}
    cand = cands[MDAKey("c", ("x", "y"), COUNT_STAR, "count")]
    assert _groups(cand) == [((1.0,), 3.0), ((1.0,), 3.0)]


# ---------------------------------------------------------------------------
# Estimation: point estimates and CI behavior
# ---------------------------------------------------------------------------
def _cand(groups, func="avg", measure="m", bounds=None):
    """A candidate from its groups' (sampled values, size estimate)."""
    lengths = np.array([len(v) for v, _ in groups], dtype=np.int64)
    return ESCandidate(
        MDAKey("c", ("d",), measure, func),
        func,
        np.concatenate([np.asarray(v, dtype=np.float64) for v, _ in groups]),
        np.cumsum(lengths) - lengths,
        lengths,
        np.array([c for _, c in groups], dtype=np.float64),
        bounds,
    )


def test_ci_half_width_is_normal_quantile_times_tau():
    # Group means 2 and 7 with sample variances 2 and 8 at r = 2:
    # Var(Ȳ) = (1, 4), ∂Ĥ/∂y = 2 (y - ȳ) = (-5, 5), so τ̂² = 125.
    cand = _cand([([1.0, 3.0], 2), ([5.0, 9.0], 2)])
    est = estimate_interestingness(cand, r=2, h_name="variance", alpha=0.05)
    assert est.score == pytest.approx(12.5)
    assert est.upper - est.score == pytest.approx(1.959964 * np.sqrt(125.0), rel=1e-6)


def test_full_sample_avg_estimate_exact():
    cand = _cand([([1.0, 3.0], 2), ([5.0, 7.0], 2)])
    est = estimate_interestingness(cand, r=2, h_name="variance", alpha=0.05)
    assert est.score == pytest.approx(variance(np.array([2.0, 6.0])))


def test_ci_contains_estimate():
    cand = _cand([([1.0, 3.0, 2.0], 3), ([5.0, 7.0, 9.0], 3)])
    est = estimate_interestingness(cand, r=2, h_name="variance", alpha=0.05)
    assert est.lower <= est.score <= est.upper


def test_ci_shrinks_with_sample_size():
    rng = np.random.default_rng(0)
    groups = [(rng.normal(loc, 1.0, 50), 50) for loc in (0.0, 5.0, 10.0)]
    cand = _cand(groups)
    small = estimate_interestingness(cand, r=5, h_name="variance", alpha=0.05)
    big = estimate_interestingness(cand, r=50, h_name="variance", alpha=0.05)
    assert (big.upper - big.lower) < (small.upper - small.lower)


def test_count_star_zero_width_ci():
    cand = _cand([([1.0, 1.0], 4), ([1.0], 9)], func="count", measure=COUNT_STAR)
    est = estimate_interestingness(cand, r=2, h_name="variance", alpha=0.05)
    # S_i = c_i exactly: variance of (4, 9).
    assert est.score == pytest.approx(variance(np.array([4.0, 9.0])))
    assert est.lower == est.upper == pytest.approx(est.score)


def test_sum_estimator_scales_by_group_size():
    # Appendix B: S_i = c_i * mean of per-fact sums.
    cand = _cand([([2.0, 4.0], 10), ([1.0, 1.0], 6)], func="sum")
    est = estimate_interestingness(cand, r=2, h_name="variance", alpha=0.05)
    assert est.score == pytest.approx(variance(np.array([30.0, 6.0])))


def test_single_group_scores_zero():
    cand = _cand([([1.0, 2.0], 2)])
    est = estimate_interestingness(cand, r=2, h_name="variance", alpha=0.05)
    assert est.score == est.lower == est.upper == 0.0


def test_min_func_popoviciu_upper_bound():
    cand = _cand([([3.0], 1), ([8.0], 1)], func="min", bounds=(0.0, 10.0))
    est = estimate_interestingness(cand, r=1, h_name="variance", alpha=0.05)
    assert est.lower == 0.0
    assert est.upper >= est.score
    assert est.upper <= 0.25 * (10.0 - 0.0) ** 2 + 1e-9


def test_min_func_without_bounds_never_prunable():
    cand = _cand([([3.0], 1), ([8.0], 1)], func="min", bounds=None)
    est = estimate_interestingness(cand, r=1, h_name="variance", alpha=0.05)
    assert est.upper == float("inf")


def test_skewness_estimation_runs():
    rng = np.random.default_rng(1)
    cand = _cand([(rng.normal(i, 1, 20), 20) for i in (0, 1, 8)])
    est = estimate_interestingness(cand, r=20, h_name="skewness", alpha=0.05)
    assert np.isfinite(est.score) and est.lower <= est.score <= est.upper


def test_ci_coverage_statistical():
    # Simulated sampling: the 95% CI should contain the true score in
    # well over half of the draws (asymptotic guarantee; small-sample
    # slack allowed). Deterministic seed keeps this stable.
    rng = np.random.default_rng(7)
    pops = [rng.normal(loc, 2.0, 400) for loc in (0.0, 4.0, 9.0, 1.0)]
    true = variance(np.array([p.mean() for p in pops]))
    hits = 0
    trials = 40
    for _ in range(trials):
        groups = [(rng.choice(p, 40, replace=False), len(p)) for p in pops]
        cand = _cand(groups)
        est = estimate_interestingness(cand, r=40, h_name="variance", alpha=0.05)
        if est.lower <= true <= est.upper:
            hits += 1
    assert hits / trials >= 0.7


# ---------------------------------------------------------------------------
# Pruning loop
# ---------------------------------------------------------------------------
def _uniform_cand(i, value=1.0):
    return _cand([(np.full(30, value), 30) for _ in range(4)], measure=f"u{i}")


def _spiky_cand(i, spread):
    rng = np.random.default_rng(i)
    groups = [
        (rng.normal(loc, 0.1, 30), 30)
        for loc in (0.0, spread, 2 * spread, 0.5)
    ]
    return _cand(groups, measure=f"s{i}")


def test_prune_uniform_keeps_interesting():
    config = SpadeConfig(es_sample_size=30, es_batches=3)
    cands = [_spiky_cand(i, 50.0) for i in range(3)] + [
        _uniform_cand(i) for i in range(5)
    ]
    res = early_stop_prune(cands, k=3, h_name="variance", config=config)
    spiky = {c.key for c in cands[:3]}
    assert spiky <= res.survivors
    assert len(res.pruned) == 5


def test_never_prunes_below_k():
    config = SpadeConfig(es_sample_size=30, es_batches=2)
    cands = [_uniform_cand(i) for i in range(4)] + [_spiky_cand(9, 100.0)]
    res = early_stop_prune(cands, k=4, h_name="variance", config=config)
    assert len(res.survivors) >= 4


def test_no_pruning_when_fewer_than_k():
    config = SpadeConfig()
    cands = [_uniform_cand(i) for i in range(3)]
    res = early_stop_prune(cands, k=5, h_name="variance", config=config)
    assert res.pruned == set() and len(res.survivors) == 3


def test_dedupes_shared_candidates():
    config = SpadeConfig()
    c = _spiky_cand(1, 10.0)
    res = early_stop_prune([c, c], k=1, h_name="variance", config=config)
    assert len(res.survivors) + len(res.pruned) == 1


def test_estimates_reported_for_all():
    config = SpadeConfig(es_sample_size=30, es_batches=2)
    cands = [_spiky_cand(i, 20.0) for i in range(2)] + [_uniform_cand(7)]
    res = early_stop_prune(cands, k=1, h_name="variance", config=config)
    assert set(res.estimates) == {c.key for c in cands}
    assert res.batches_run >= 1
