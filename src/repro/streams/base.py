"""Stream dataset abstractions.

A *stream dataset* models the population side of Figure 1: ``n_users``
users, each holding one categorical value from a domain of size
``domain_size`` at every discrete timestamp.  Mechanisms only ever see
perturbed reports; the true per-user values are exposed here so the engine
can simulate the client side, and the true histograms are exposed for
evaluation.

Two concrete families exist:

* :class:`MaterializedStream` — values stored as an ``(T, n)`` matrix;
  random access; used for small/medium workloads and tests.
* :class:`GenerativeStream` — values produced lazily, in blocks of
  consecutive timestamps, from a seeded generator with an evolving
  internal state (e.g. per-user Markov chains).  Supports unbounded
  horizons (the "infinite" in LDP-IDS); enforces in-order access and
  caches the current snapshot so a mechanism may read it several times
  within a timestamp (M1 and M2 rounds).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..exceptions import InvalidParameterError, StreamAccessError


class StreamDataset(abc.ABC):
    """Interface shared by all stream datasets."""

    #: Whether arbitrary timestamps can be read in any order (and hence
    #: whether batched range queries can skip sequential generation).
    random_access: bool = False

    def __init__(self, n_users: int, domain_size: int, horizon: Optional[int]):
        if n_users <= 0:
            raise InvalidParameterError(f"n_users must be positive, got {n_users}")
        if domain_size < 2:
            raise InvalidParameterError(
                f"domain_size must be >= 2, got {domain_size}"
            )
        if horizon is not None and horizon <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {horizon}")
        self._n_users = int(n_users)
        self._domain_size = int(domain_size)
        self._horizon = None if horizon is None else int(horizon)

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of participating users ``N``."""
        return self._n_users

    @property
    def domain_size(self) -> int:
        """Size ``d`` of the categorical value domain."""
        return self._domain_size

    @property
    def horizon(self) -> Optional[int]:
        """Number of timestamps, or ``None`` for an unbounded stream."""
        return self._horizon

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def values(self, t: int) -> np.ndarray:
        """True values of all users at timestamp ``t`` (0-based).

        Returns an ``(n_users,)`` int64 array with entries in
        ``[0, domain_size)``.  Callers must not mutate the result.
        """

    def true_frequencies(self, t: int) -> np.ndarray:
        """True frequency histogram ``c_t`` at timestamp ``t`` (sums to 1)."""
        counts = np.bincount(self.values(t), minlength=self.domain_size)
        return counts.astype(np.float64) / self.n_users

    def true_counts(self, t: int) -> np.ndarray:
        """True per-value counts at timestamp ``t`` (sums to ``n_users``)."""
        return np.bincount(self.values(t), minlength=self.domain_size).astype(
            np.int64
        )

    def values_range(self, t0: int, t1: int) -> np.ndarray:
        """True values of all users for ``t0 <= t < t1``, shape (t1-t0, n).

        Row ``i`` equals ``values(t0 + i)``.  This is the bulk-ingestion
        feed: :meth:`repro.engine.session.StreamSession.observe_many`
        pulls one block per chunk and drives the whole span off it.  The
        base implementation stacks per-timestamp ``values`` (what online
        streams use).  Generative streams override it with one block
        fill, which *consumes* the span (the cursor ends at ``t1 - 1``),
        so a caller must either use only the block or only
        per-timestamp ``values`` for a given span, never both.
        Materialized streams override it with an O(1) view.  Callers
        must not mutate the result.
        """
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.n_users), dtype=np.int64)
        return np.stack([self.values(t) for t in range(t0, t1)])

    def true_frequencies_range(self, t0: int, t1: int) -> np.ndarray:
        """True frequency histograms for ``t0 <= t < t1``, shape (t1-t0, d).

        Row ``i`` is bit-identical to ``true_frequencies(t0 + i)``.  The
        base implementation walks timestamps one by one (the only legal
        order for sequential generative streams); random-access datasets
        override it with a vectorized batch, which is the fast path the
        shared-pass :class:`~repro.engine.group.SessionGroup` driver and
        chunked replay consumers use.
        """
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.domain_size), dtype=np.float64)
        return np.stack(
            [self.true_frequencies(t) for t in range(t0, t1)]
        )

    def frequency_matrix(self, horizon: Optional[int] = None) -> np.ndarray:
        """Stack ``true_frequencies`` for ``t = 0..horizon-1`` into (T, d)."""
        steps = horizon if horizon is not None else self.horizon
        if steps is None:
            raise StreamAccessError(
                "frequency_matrix needs an explicit horizon for unbounded streams"
            )
        return self.true_frequencies_range(0, steps)

    def _check_t(self, t: int) -> int:
        if t < 0:
            raise StreamAccessError(f"timestamp must be non-negative, got {t}")
        if self._horizon is not None and t >= self._horizon:
            raise StreamAccessError(
                f"timestamp {t} beyond stream horizon {self._horizon}"
            )
        return int(t)


class MaterializedStream(StreamDataset):
    """A stream fully stored in memory as a ``(T, n_users)`` value matrix."""

    random_access = True

    def __init__(self, values: np.ndarray, domain_size: Optional[int] = None):
        values = np.asarray(values)
        if values.ndim != 2:
            raise InvalidParameterError("values must be a (T, n_users) matrix")
        inferred = int(values.max()) + 1 if values.size else 2
        domain = domain_size if domain_size is not None else max(2, inferred)
        super().__init__(
            n_users=values.shape[1], domain_size=domain, horizon=values.shape[0]
        )
        if values.size and (values.min() < 0 or values.max() >= domain):
            raise InvalidParameterError("values outside [0, domain_size)")
        self._values = values.astype(np.int64, copy=False)

    def values(self, t: int) -> np.ndarray:
        t = self._check_t(t)
        return self._values[t]

    def values_range(self, t0: int, t1: int) -> np.ndarray:
        """O(1) block view of the stored value matrix."""
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.n_users), dtype=np.int64)
        self._check_t(t0)
        self._check_t(t1 - 1)
        return self._values[t0:t1]

    def true_frequencies_range(self, t0: int, t1: int) -> np.ndarray:
        """Vectorized batch histogram: one bincount for the whole range.

        Each row's integer counts match the per-timestamp bincount
        exactly, so dividing by ``n_users`` reproduces
        :meth:`StreamDataset.true_frequencies` bit for bit.
        """
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.domain_size), dtype=np.float64)
        self._check_t(t0)
        self._check_t(t1 - 1)
        d = self.domain_size
        block = self._values[t0:t1]
        offsets = np.arange(t1 - t0, dtype=np.int64)[:, None] * d
        counts = np.bincount(
            (block + offsets).ravel(), minlength=(t1 - t0) * d
        ).reshape(t1 - t0, d)
        return counts.astype(np.float64) / self.n_users


class GenerativeStream(StreamDataset):
    """A lazily generated stream with sequential state.

    Subclasses produce snapshots in order (t = 0, 1, 2, ...) by
    overriding either :meth:`_fill`, which writes a block of consecutive
    snapshots into a preallocated ``(B, n_users)`` int64 array, or the
    one-row :meth:`_advance`, which the default :meth:`_fill` calls per
    row.  :meth:`values` is the one-row case of :meth:`values_range`'s
    block fill.  The current snapshot is cached so repeated reads of the
    same ``t`` are cheap and consistent, which the two-round adaptive
    mechanisms rely on.  After a block, the cache is a *copy* of its last
    row: a view would keep the whole block alive as long as the stream.
    """

    def __init__(self, n_users: int, domain_size: int, horizon: Optional[int]):
        super().__init__(n_users, domain_size, horizon)
        self._cursor = -1
        self._current: Optional[np.ndarray] = None

    def _advance(self, t: int) -> np.ndarray:
        """Produce the value snapshot for timestamp ``t`` (called once per t)."""
        raise NotImplementedError(
            f"{type(self).__name__} must override _fill or _advance"
        )

    def _fill(self, t0: int, out: np.ndarray) -> None:
        """Write the snapshots of ``t0, t0 + 1, ...`` into the rows of ``out``.

        Called once per timestamp, in order.  The generator must not keep
        a view of ``out``.
        """
        for i, row in enumerate(out):
            row[:] = self._advance(t0 + i)

    def _generate(self, t0: int, out: np.ndarray) -> None:
        """Fill ``out`` from the next timestamp ``t0`` and move the cursor."""
        if t0 != self._cursor + 1:
            raise StreamAccessError(
                f"generative streams must be read in order: asked for t={t0} "
                f"while cursor is at {self._cursor}"
            )
        self._fill(t0, out)
        self._cursor = t0 + len(out) - 1

    def values(self, t: int) -> np.ndarray:
        t = self._check_t(t)
        if t != self._cursor:
            row = np.empty((1, self.n_users), dtype=np.int64)
            self._generate(t, row)
            self._current = row[0]
        return self._current

    def values_range(self, t0: int, t1: int) -> np.ndarray:
        """Fill one ``(t1-t0, n_users)`` block in a single generator pass.

        The span may start at the cursor (row 0 is then the cached
        snapshot) or just after it; it consumes the stream up to
        ``t1 - 1``.  Rows equal the per-timestamp :meth:`values` bit for
        bit, at any split of a span into blocks.
        """
        if t1 < t0:
            raise StreamAccessError(
                f"invalid range [{t0}, {t1}): end before start"
            )
        if t1 == t0:
            return np.empty((0, self.n_users), dtype=np.int64)
        self._check_t(t0)
        self._check_t(t1 - 1)
        block = np.empty((t1 - t0, self.n_users), dtype=np.int64)
        head = 0
        if t0 == self._cursor:
            block[0] = self._current
            head = 1
        if head < len(block):
            self._generate(t0 + head, block[head:])
            self._current = block[-1].copy()
        return block

    def reset(self) -> None:
        """Rewind the stream so it can be replayed from t = 0."""
        self._cursor = -1
        self._current = None
        self._reset_state()

    @abc.abstractmethod
    def _reset_state(self) -> None:
        """Restore any internal generator state to its initial value."""
