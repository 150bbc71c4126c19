"""Tests for early-stop: sampling, propagation, CIs, pruning loop."""
import numpy as np
import pytest

from repro.core.attributes import Attribute
from repro.core.config import COUNT_STAR, SpadeConfig
from repro.core.derived import path_attribute
from repro.core.earlystop import (
    ESCandidate,
    GroupSample,
    _numeric_gradient,
    _variance_gradient,
    _z_quantile,
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
from tests.helpers import union_of, with_table


# ---------------------------------------------------------------------------
# Normal quantile + gradients
# ---------------------------------------------------------------------------
def test_z_quantile_known_values():
    # z_p is the (p+1)/2 quantile of Phi (paper's notation).
    assert _z_quantile(0.95) == pytest.approx(1.95996, abs=1e-3)
    assert _z_quantile(0.90) == pytest.approx(1.64485, abs=1e-3)


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
    cfs = fig1.nodes_of_type("CEO")
    attrs = {
        "nationality": Attribute(
            "nationality", fig1.property_table("nationality"), "direct"
        ),
        "company/area": with_table(fig1, path_attribute("company", "area")),
        "netWorth": Attribute("netWorth", fig1.property_table("netWorth"), "direct"),
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


def test_reservoir_merge_dedupes_by_cf(fig1_sample):
    sample, _ = fig1_sample
    for rows in sample.cells.values():
        facts = [cf for _, cf, _ in rows]
        assert len(facts) == len(set(facts))  # facts dedupe by cf


def test_reservoir_trims_to_capacity_lowest_priority(fig1_inputs):
    (full,) = _sample(fig1_inputs, [("company/area",)], capacity=10)
    (trimmed,) = _sample(fig1_inputs, [("company/area",)], capacity=1)
    manufacturer = ("Manufacturer",)
    assert len(full.cells[manufacturer]) == 2
    assert trimmed.cells[manufacturer] == full.cells[manufacturer][:1]
    assert trimmed.cell_counts[manufacturer] == 2  # exact count survives the trim


def test_reservoir_merges_cells_independently(fig1_inputs):
    dim_sets = [("company/area",), ("nationality",)]
    together = _sample(fig1_inputs, dim_sets, capacity=1)
    for dims, sample in zip(dim_sets, together):
        (alone,) = _sample(fig1_inputs, [dims], capacity=1)
        assert sample.cells == alone.cells
        assert sample.cell_counts == alone.cell_counts


def test_sample_cell_counts_exact(fig1_sample):
    sample, _ = fig1_sample
    # 11 root cells, each holding exactly one fact.
    assert sum(sample.cell_counts.values()) == 11
    assert all(v == 1 for v in sample.cell_counts.values())


def test_sample_holds_all_facts_under_capacity(fig1_sample):
    sample, _ = fig1_sample
    assert sum(len(rows) for rows in sample.cells.values()) == 11


def test_sample_rows_carry_preaggregated_measures(fig1_sample):
    sample, _ = fig1_sample
    for rows in sample.cells.values():
        for _, cf, mvals in rows:
            assert mvals["m0_sum"] in (2.8, 0.12)


def test_propagation_dedupes_facts_per_group(fig1_sample):
    sample, spec = fig1_sample
    cands = {c.key: c for c in build_candidates(sample, spec, capacity=10)}
    key = MDAKey("CEO", ("company/area",), COUNT_STAR, "count")
    cand = cands[key]
    # Manufacturer group: n1 + n2, each once despite multiple root cells.
    sizes = sorted(cand.packed().lengths.tolist())
    assert sizes == [1, 1, 1, 2]


def test_propagation_size_estimates_overestimate(fig1_sample):
    # Appendix B: child group sizes from root-cell counts overestimate
    # under multi-valued dims (n2 counted once per nationality).
    sample, spec = fig1_sample
    cands = {c.key: c for c in build_candidates(sample, spec, capacity=10)}
    cand = cands[MDAKey("CEO", ("company/area",), COUNT_STAR, "count")]
    manufacturer = max(cand.packed().sizes)
    assert manufacturer == 5  # 1 (n1) + 4 (n2's nationalities)


def test_candidates_cover_all_nodes_and_pairs(fig1_sample):
    sample, spec = fig1_sample
    cands = build_candidates(sample, spec, capacity=10)
    keys = {c.key for c in cands}
    # 3 non-apex nodes x (count* + sum + avg) = 9.
    assert len(keys) == 9


# ---------------------------------------------------------------------------
# Estimation: point estimates and CI behavior
# ---------------------------------------------------------------------------
def _cand(groups, func="avg", measure="m", bounds=None):
    return ESCandidate(
        MDAKey("c", ("d",), measure, func),
        func,
        [GroupSample(np.asarray(v, dtype=np.float64), c) for v, c in groups],
        bounds,
    )


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
    return ESCandidate(
        MDAKey("c", ("d",), f"u{i}", "avg"),
        "avg",
        [GroupSample(np.full(30, value), 30) for _ in range(4)],
    )


def _spiky_cand(i, spread):
    rng = np.random.default_rng(i)
    groups = [
        GroupSample(rng.normal(loc, 0.1, 30), 30)
        for loc in (0.0, spread, 2 * spread, 0.5)
    ]
    return ESCandidate(MDAKey("c", ("d",), f"s{i}", "avg"), "avg", groups)


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
