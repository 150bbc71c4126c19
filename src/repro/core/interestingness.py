"""Interestingness functions h over aggregate results (Sections 2-3).

Spade natively supports variance, skewness, and kurtosis: variance
detects deviation from uniform aggregate values; skewness and kurtosis
detect deviation from a normal distribution. Each takes the vector of
aggregated values {t_1.v ... t_W.v} and returns a non-negative score
(we use absolute skewness/excess-kurtosis so "deviates more" always
scores higher, matching h's contract of a positive real number).

Definitions:
* variance — the unbiased estimator of Eq. 1: 1/(G-1) Σ (y_i - ȳ)²;
* skewness — m3 / m2^{3/2} over population central moments (the
  paper's Appendix A prints a normalization exponent of 2/3, an
  apparent typo for the standard -3/2; see DESIGN.md);
* kurtosis — m4 / m2² - 3, exactly the paper's Appendix A formula.

Degenerate inputs (fewer than two groups, or a zero variance, or one
whose powers underflow, where a moment ratio would divide by zero)
score 0 — such aggregates are uninteresting by construction.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def variance(values: np.ndarray) -> float:
    """Unbiased variance of the aggregated values (Eq. 1)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return 0.0
    return float(np.var(v, ddof=1))


def _central_moments(v: np.ndarray) -> tuple[float, float, float]:
    mean = v.mean()
    d = v - mean
    return float((d**2).mean()), float((d**3).mean()), float((d**4).mean())


def negligible_variance(m2: float, power: float = 2.0) -> bool:
    """True for a zero variance, and for one so small that ``m2**power``
    leaves float64's normal range (e.g. the values [0, 8.1e-96]): the
    moment ratios would divide by zero or by rounding noise."""
    return m2 <= 0 or m2**power < np.finfo(np.float64).tiny


def skewness(values: np.ndarray) -> float:
    """|m3| / m2^{3/2}; 0 when undefined."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return 0.0
    m2, m3, _ = _central_moments(v)
    if negligible_variance(m2):
        return 0.0
    return float(abs(m3) / m2**1.5)


def kurtosis(values: np.ndarray) -> float:
    """|m4 / m2² - 3| (excess kurtosis magnitude); 0 when undefined."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return 0.0
    m2, _, m4 = _central_moments(v)
    if negligible_variance(m2):
        return 0.0
    return float(abs(m4 / m2**2 - 3.0))


FUNCTIONS: dict[str, Callable[[np.ndarray], float]] = {
    "variance": variance,
    "skewness": skewness,
    "kurtosis": kurtosis,
}


def get(name: str) -> Callable[[np.ndarray], float]:
    """Look up an interestingness function by name."""
    return FUNCTIONS[name]
