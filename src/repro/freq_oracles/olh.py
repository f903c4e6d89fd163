"""Optimal Local Hashing (OLH) frequency oracle.

Wang et al. (USENIX Security 2017): each user hashes their value into a
small range ``g = round(e^eps) + 1`` with a personal universal hash function
and then runs GRR over the hashed domain.  Communication is O(log g) instead
of O(d) while matching OUE's variance, which is why it is the standard
choice for large domains.

Reports are ``(a, b, y)`` rows: the user's hash coefficients plus the
GRR-perturbed hash value.  The aggregator counts, for every domain value
``k``, the users whose report *supports* ``k`` (``y == H_{a,b}(k)``).
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SeedLike, ensure_rng
from .base import FrequencyOracle, register_oracle
from .variance import olh_mean_variance

#: Mersenne prime for the pairwise-independent hash family.
_PRIME = (1 << 61) - 1


def olh_hash_range(epsilon: float) -> int:
    """Optimal hash range ``g = round(e^eps) + 1`` (at least 2)."""
    return max(2, int(round(math.exp(epsilon))) + 1)


def _hash(a: np.ndarray, b: np.ndarray, value: np.ndarray, g: int) -> np.ndarray:
    """Vectorised ``((a·(v+1) + b) mod P) mod g`` universal hash."""
    return ((a * (np.asarray(value, dtype=np.uint64) + 1) + b) % _PRIME % g).astype(
        np.int64
    )


@register_oracle
class OLH(FrequencyOracle):
    """Optimal Local Hashing."""

    name = "olh"

    def perturb(self, values, domain_size, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        values = self._check_values(values, domain_size)
        rng = ensure_rng(rng)
        g = olh_hash_range(epsilon)
        n = values.shape[0]
        a = rng.integers(1, _PRIME, size=n, dtype=np.uint64)
        b = rng.integers(0, _PRIME, size=n, dtype=np.uint64)
        hashed = _hash(a, b, values, g)
        # GRR over the hashed domain of size g.
        e = math.exp(epsilon)
        p = e / (e + g - 1)
        keep = rng.random(n) < p
        alternatives = rng.integers(0, g - 1, size=n)
        alternatives += (alternatives >= hashed).astype(np.int64)
        y = np.where(keep, hashed, alternatives)
        return np.column_stack(
            [a.astype(np.int64), b.astype(np.int64), y.astype(np.int64)]
        )

    def support_probabilities(self, epsilon, domain_size):
        # A report supports its owner's value with GRR's keep rate over the
        # g buckets, and (over the hash randomness) any other value w.p. 1/g.
        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)
        g = olh_hash_range(epsilon)
        e = math.exp(epsilon)
        return e / (e + g - 1), 1.0 / g

    def aggregate_supports(self, reports, domain_size, epsilon):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        reports = np.asarray(reports)
        if reports.ndim != 2 or reports.shape[1] != 3:
            raise ValueError("OLH reports must be (n, 3) rows of (a, b, y)")
        g = olh_hash_range(epsilon)
        a = reports[:, 0].astype(np.uint64)
        b = reports[:, 1].astype(np.uint64)
        y = reports[:, 2].astype(np.int64)
        supports = np.empty(domain_size, dtype=np.int64)
        for k in range(domain_size):
            supports[k] = np.count_nonzero(_hash(a, b, np.uint64(k), g) == y)
        return supports

    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        return olh_mean_variance(epsilon, n, domain_size)
