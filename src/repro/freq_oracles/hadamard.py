"""Hadamard Response (HR) frequency oracle.

Acharya et al. (2019): communication-optimal for large domains — each user
sends a single index into a Hadamard matrix of order ``K`` (the smallest
power of two above ``d``).  A user whose value maps to matrix row ``r``
reports an index from the +1 support of that row with probability
``p = e^eps / (e^eps + 1)``, else from the complement.  By orthogonality,
rows other than ``r`` split any support set evenly, so the debiasing
baseline is exactly 1/2:

    f_hat[v] = (support_count[v]/n - 1/2) / (p - 1/2).

The count-level sampler is cell-wise exact (each support count is a sum of
independent Bernoullis with per-user probability ``p`` or ``1/2``);
cross-cell correlations of the true protocol are not reproduced, which is
irrelevant for every per-cell mean/variance analysis in this library and
is documented here for honesty.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SeedLike, ensure_rng
from .base import FrequencyOracle, register_oracle


def hadamard_order(domain_size: int) -> int:
    """Smallest power of two strictly greater than ``domain_size``.

    Strictly greater because row 0 (all ones) cannot encode a value — its
    support is the whole index set and carries no signal.
    """
    order = 1
    while order <= domain_size:
        order *= 2
    return order


def hadamard_entry(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Sylvester Hadamard entries ``(-1)^popcount(row & col)`` as ±1."""
    conjunction = np.bitwise_and(
        np.asarray(row, dtype=np.uint64), np.asarray(col, dtype=np.uint64)
    )
    parity = np.zeros_like(conjunction)
    value = conjunction.copy()
    while np.any(value):
        parity ^= value & 1
        value >>= 1
    return 1 - 2 * parity.astype(np.int64)


def hr_probability(epsilon: float) -> float:
    """Probability of reporting from the value's +1 support set."""
    e = math.exp(epsilon)
    return e / (e + 1.0)


@register_oracle
class HadamardResponse(FrequencyOracle):
    """Hadamard Response: one log2(K)-bit report per user."""

    name = "hr"

    def perturb(self, values, domain_size, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        values = self._check_values(values, domain_size)
        rng = ensure_rng(rng)
        order = hadamard_order(domain_size)
        rows = values + 1  # row 0 is the uninformative all-ones row
        p = hr_probability(epsilon)
        n = values.shape[0]
        in_support = rng.random(n) < p
        # Sample an index with the requested sign for each user's row.  For
        # any row r >= 1 exactly half the K indices carry each sign, and
        # flipping the lowest set bit of r in the column toggles the sign,
        # so we can sample uniformly and correct the sign cheaply.
        columns = rng.integers(0, order, size=n, dtype=np.uint64)
        signs = hadamard_entry(rows, columns)
        want = np.where(in_support, 1, -1)
        wrong = signs != want
        lowest_bit = (rows & -rows).astype(np.uint64)
        columns[wrong] = np.bitwise_xor(columns[wrong], lowest_bit[wrong])
        return columns.astype(np.int64)

    def support_probabilities(self, epsilon, domain_size):
        """HR's ``(p, 1/2)``: the off-value baseline is exactly 1/2 by
        Hadamard orthogonality, so the generic support debias reproduces
        the module docstring's estimator verbatim."""
        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)
        return hr_probability(epsilon), 0.5

    def aggregate_supports(self, reports, domain_size, epsilon):
        self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        reports = np.asarray(reports, dtype=np.int64)
        if reports.ndim != 1:
            raise ValueError("HR reports must be a 1-D index array")
        supports = np.empty(domain_size, dtype=np.int64)
        for v in range(domain_size):
            signs = hadamard_entry(np.int64(v + 1), reports)
            supports[v] = np.count_nonzero(signs == 1)
        return supports

    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        p = hr_probability(epsilon)
        if p == 0.5:  # epsilon below float resolution: no information
            return math.inf
        # Leading term: support count variance 1/4 per user at f ~ 0.
        return 0.25 / (n * (p - 0.5) ** 2)
