"""Generalized Randomized Response (GRR) frequency oracle.

The paper's primary FO (Section 3.4, Eq. 1): a user with value ``v`` reports
``v`` with probability ``p = e^eps / (e^eps + d - 1)`` and each other value
with probability ``q = 1 / (e^eps + d - 1)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SeedLike, ensure_rng
from .base import FrequencyOracle, register_oracle
from .variance import grr_mean_variance


def grr_probabilities(epsilon: float, domain_size: int) -> tuple[float, float]:
    """Return GRR's ``(p, q)`` keep/flip probabilities (Eq. 1)."""
    e = math.exp(epsilon)
    p = e / (e + domain_size - 1)
    q = 1.0 / (e + domain_size - 1)
    return p, q


@register_oracle
class GRR(FrequencyOracle):
    """Generalized Randomized Response (a.k.a. k-RR / direct encoding)."""

    name = "grr"

    def perturb(self, values, domain_size, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        values = self._check_values(values, domain_size)
        rng = ensure_rng(rng)
        p, _ = grr_probabilities(epsilon, domain_size)
        n = values.shape[0]
        keep = rng.random(n) < p
        # A lying user reports uniformly among the d-1 *other* values: draw
        # from d-1 slots and shift slots >= v up by one to skip v itself.
        alternatives = rng.integers(0, domain_size - 1, size=n)
        alternatives += (alternatives >= values).astype(np.int64)
        return np.where(keep, values, alternatives)

    def support_probabilities(self, epsilon, domain_size):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        return grr_probabilities(epsilon, domain_size)

    def aggregate_supports(self, reports, domain_size, epsilon):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        reports = self._check_values(reports, domain_size)
        return np.bincount(reports, minlength=domain_size)

    def support_draw(self, epsilon, domain_size):
        p, _ = self.support_probabilities(epsilon, domain_size)
        # Users with true value k keep it with prob p; the liars spread
        # uniformly over the other d-1 values.  Row k of the spread matrix
        # is uniform with a zero on the diagonal, so one multinomial draws
        # all d liar spreads and no liar mass lands back on its own value.
        spread_rows = np.full(
            (domain_size, domain_size), 1.0 / (domain_size - 1)
        )
        np.fill_diagonal(spread_rows, 0.0)

        # Each round alternates a binomial with a multinomial, so rounds
        # cannot merge into one generator call without reordering the
        # bitstream: the loop stays, with the spread matrix hoisted.
        def draw(counts, n, rng):
            supports = np.empty(counts.shape, dtype=np.float64)
            for row, out in zip(counts, supports):
                keepers = rng.binomial(row, p)
                out[:] = keepers
                out += rng.multinomial(row - keepers, spread_rows).sum(axis=0)
            return supports

        return draw

    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        return grr_mean_variance(epsilon, n, domain_size)
