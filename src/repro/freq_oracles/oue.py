"""Optimized Unary Encoding (OUE) frequency oracle.

Wang et al. (USENIX Security 2017): each user encodes their value as a
one-hot bit vector and flips each bit independently — the 1-bit is kept with
probability ``p = 1/2`` and every 0-bit becomes 1 with probability
``q = 1/(e^eps + 1)``.  The asymmetric probabilities minimise estimation
variance, which becomes independent of the domain size.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SeedLike, ensure_rng
from .base import FrequencyOracle, register_oracle
from .variance import oue_mean_variance


def oue_probabilities(epsilon: float) -> tuple[float, float]:
    """Return OUE's ``(p, q)``: 1-bit keep probability and 0-bit flip rate."""
    return 0.5, 1.0 / (math.exp(epsilon) + 1.0)


@register_oracle
class OUE(FrequencyOracle):
    """Optimized Unary Encoding."""

    name = "oue"

    def perturb(self, values, domain_size, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        values = self._check_values(values, domain_size)
        rng = ensure_rng(rng)
        p, q = oue_probabilities(epsilon)
        n = values.shape[0]
        # Start from background q-noise on every bit, then overwrite each
        # user's own bit with a p-coin.
        bits = rng.random((n, domain_size)) < q
        bits[np.arange(n), values] = rng.random(n) < p
        return bits

    def support_probabilities(self, epsilon, domain_size):
        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)
        return oue_probabilities(epsilon)

    def aggregate_supports(self, reports, domain_size, epsilon):
        self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        reports = np.asarray(reports, dtype=bool)
        if reports.ndim != 2 or reports.shape[1] != domain_size:
            raise ValueError("OUE reports must be an (n, d) bit matrix")
        return reports.sum(axis=0, dtype=np.int64)

    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        return oue_mean_variance(epsilon, n, domain_size)
