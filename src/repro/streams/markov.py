"""Vectorised per-user Markov value evolution.

The real-world datasets of Section 7.1.2 (taxi trajectories, check-ins, ad
clicks) share a structure: each user's categorical value is *sticky* over
time (a taxi stays in its grid cell for several 10-minute slots; a shopper
keeps browsing the same category) while the population-level distribution
drifts.  :class:`MarkovValueProcess` captures exactly that: at every step
each user independently keeps their value with probability
``1 - churn_rate`` and otherwise resamples from a (possibly time-varying)
target distribution.

This is the temporal-correlation substrate used by all three dataset
simulators in :mod:`repro.streams.simulators`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import SeedLike, ensure_rng


def _categorical_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Validated inverse-CDF table of a categorical distribution.

    The trailing run of entries equal to the last one is pinned to
    exactly ``1.0``.  ``cumsum(probs / total)`` can round its last entry
    below 1 (or above it), and a uniform ``u`` in ``[cdf[-1], 1)`` would
    then map to ``d``, outside the domain.  After pinning every ``u`` in
    ``[0, 1)`` lands in ``[0, d)`` on a category of positive mass, and
    every ``u < cdf[-1]`` keeps the index it had before.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidParameterError("probabilities must be 1-D and non-empty")
    total = probs.sum()
    if total <= 0 or (probs < 0).any():
        raise InvalidParameterError("probabilities must be non-negative, sum > 0")
    cdf = np.cumsum(probs / total)
    cdf[cdf >= cdf[-1]] = 1.0
    return cdf


def _inverse_cdf(
    cdf: np.ndarray, u: np.ndarray, table_size: Optional[int] = None
) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` by indexed search.

    Chen and Asau's guide table: ``guide[j]`` is the answer for
    ``u = j / M``.  ``M`` is a power of two (by default the smallest at
    least ``4d``), so ``u * M`` and ``j / M`` are exact and
    ``j = floor(u * M)`` satisfies ``j / M <= u``; the answer for ``u``
    is therefore at least ``guide[j]``, and stepping forward while
    ``cdf[idx] <= u`` reaches it exactly, ties included.
    ``cdf`` must come from :func:`_categorical_cdf` (last entry ``1.0``)
    and ``u`` must lie in ``[0, 1)``, so no index runs past ``d - 1``.
    """
    size = table_size or 1 << (4 * cdf.size - 1).bit_length()
    guide = cdf.searchsorted(np.arange(size) / size, side="right")
    idx = guide[(u * size).astype(np.intp)]
    ahead = (cdf[idx] <= u).nonzero()[0]
    while ahead.size:
        idx[ahead] += 1
        ahead = ahead[cdf[idx[ahead]] <= u[ahead]]
    return idx


def sample_categorical(
    probabilities: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` iid values from a categorical distribution.

    Inverse-CDF sampling of one ``rng.random(size)`` array through a
    guide table, which is much faster than ``rng.choice`` for large
    ``size`` and returns exactly what ``np.searchsorted`` would.
    """
    cdf = _categorical_cdf(probabilities)
    return _inverse_cdf(cdf, rng.random(size)).astype(np.int64, copy=False)


class MarkovValueProcess:
    """Per-user sticky categorical process.

    Parameters
    ----------
    n_users:
        Population size.
    target_distribution:
        Callable ``t -> (d,) probabilities`` giving the resampling target at
        each step; drives the population-level drift.
    churn_rate:
        Per-step probability that a user abandons their current value and
        resamples from the target.  ``churn_rate=1`` gives iid snapshots;
        small values give long-lived per-user values.
    """

    def __init__(
        self,
        n_users: int,
        target_distribution: Callable[[int], np.ndarray],
        churn_rate: float,
        seed: SeedLike = None,
    ):
        if not 0.0 <= churn_rate <= 1.0:
            raise InvalidParameterError(
                f"churn_rate must be in [0, 1], got {churn_rate}"
            )
        if n_users <= 0:
            raise InvalidParameterError(f"n_users must be positive, got {n_users}")
        self.n_users = int(n_users)
        self.target_distribution = target_distribution
        self.churn_rate = float(churn_rate)
        self._seed = seed
        self._rng = ensure_rng(seed)
        self._values: Optional[np.ndarray] = None
        # The movers' uniforms and the state are rewritten in place: a
        # fresh n_users-sized temporary per timestamp makes the allocator
        # hand memory back and page it in again on every step.
        self._uniforms = np.empty(self.n_users)

    def step(self, t: int) -> np.ndarray:
        """Advance to timestamp ``t`` and return the value snapshot."""
        out = np.empty((1, self.n_users), dtype=np.int64)
        self.fill(t, out)
        return out[0]

    def fill(self, t0: int, out: np.ndarray) -> None:
        """Advance through ``t0, t0 + 1, ...`` writing one row of ``out``
        (a ``(B, n_users)`` int64 block) per timestamp.

        Row ``i`` is the snapshot of timestamp ``t0 + i``, and the draws
        per timestamp are those of :meth:`step`: ``random(n_users)``
        picks the movers, then one ``random(n_movers)`` resamples them.
        So any split of a span into blocks gives the same rows.  The
        process keeps a copy of the last row as its state, never a view
        that would pin ``out``.
        """
        rng, n, churn = self._rng, self.n_users, self.churn_rate
        prev = self._values
        for i, row in enumerate(out):
            target = self.target_distribution(t0 + i)
            if prev is None:
                row[:] = sample_categorical(target, n, rng)
            else:
                row[:] = prev
                uniforms = rng.random(out=self._uniforms)
                movers = (uniforms < churn).nonzero()[0]
                if movers.size:
                    row[movers] = sample_categorical(target, movers.size, rng)
            prev = row
        if not len(out):
            return
        if self._values is None:
            self._values = prev.copy()
        else:
            self._values[:] = prev

    def rng_state(self) -> dict:
        """Snapshot of the process generator's current bit-level state."""
        return self._rng.bit_generator.state

    def reset(self, seed: SeedLike = None) -> None:
        """Forget all state and reseed (defaults to the original seed)."""
        self._rng = ensure_rng(self._seed if seed is None else seed)
        self._values = None
