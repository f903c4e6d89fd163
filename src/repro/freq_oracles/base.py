"""Frequency-oracle (FO) abstraction.

A frequency oracle is the LDP building block used throughout the paper
(Section 3.4): each user holds a private value ``v`` in a categorical domain
of size ``d`` and sends a randomized report; the aggregator turns the set of
reports into an unbiased estimate of the value-frequency histogram.

Every oracle is characterised by a pair ``(p, q)``: a report supports its
owner's value with probability ``p`` and any other fixed value with
probability ``q``.  Two execution paths share that pair:

``perturb`` + ``aggregate``
    Per-user simulation: maps an array of true values to an array of
    reports, then counts each value's supports.  This is the literal
    protocol and is used in unit and property tests, and anywhere
    per-user artefacts matter.

``sample_aggregate`` and its batched forms
    Count-level simulation: each oracle's one sampling primitive,
    :meth:`FrequencyOracle.support_draw`, samples the perturbed
    support-count vectors directly from their exact distribution (sums
    of independent Bernoullis become binomials/multinomials).
    Statistically identical to running ``perturb`` + counting, but
    orders of magnitude faster for the large populations in the paper's
    experiments.  The moment comparisons in
    ``tests/freq_oracles/test_grr.py`` and ``test_unary.py`` check the
    two paths agree.  The single-round, run, prepared and stacked
    samplers are all derived from ``support_draw`` here, so they replay
    the same draws bit for bit.

Both paths end in the standard unbiased debiasing ``(c'/n - q) / (p - q)``
(:meth:`FrequencyOracle.estimate_from_supports`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Optional, Type

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FOEstimate:
    """Result of one frequency-oracle aggregation round.

    Attributes
    ----------
    frequencies:
        Unbiased estimate of the *reporting group's* value frequencies, one
        entry per domain element.  Not clipped and not normalised; see
        :mod:`repro.freq_oracles.postprocess` for consistency steps.
    n_reports:
        Number of users that contributed a report.
    epsilon:
        Per-report LDP budget used for this round.
    variance:
        Closed-form per-cell estimation variance, averaged over the domain,
        using the frequency-independent approximation of Eq. (2).
    supports:
        The round's *sufficient statistic*: the perturbed support-count
        vector the estimate was debiased from (``None`` on estimates
        built before support tracking, e.g. hand-constructed ones).
        Supports are additive across disjoint reporting groups — summing
        shard supports and re-debiasing reproduces the whole-group
        estimate bit-for-bit, which is what makes collection rounds
        shard-mergeable (see :meth:`repro.engine.collector.Collector.merge`).
    """

    frequencies: np.ndarray
    n_reports: int
    epsilon: float
    variance: float
    supports: Optional[np.ndarray] = None

    @property
    def domain_size(self) -> int:
        return int(self.frequencies.shape[0])


class FrequencyOracle(abc.ABC):
    """Abstract base class for LDP frequency oracles over ``{0, ..., d-1}``.

    Subclasses implement a specific randomized-response encoding:
    :meth:`perturb`, :meth:`support_probabilities`,
    :meth:`aggregate_supports` and :meth:`variance`, plus
    :meth:`support_draw` when the default two-binomial draw does not fit
    (GRR).  Every other aggregation and sampling entry point is derived
    here.  Oracles are stateless with respect to data: domain size and
    budget are passed per call, so a single oracle instance can serve
    every round of a streaming session (where the budget varies between
    rounds under budget division).
    """

    #: Registry name, e.g. ``"grr"``; set by subclasses.
    name: str = ""

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def perturb(
        self,
        values: np.ndarray,
        domain_size: int,
        epsilon: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Perturb an integer array of true values; return per-user reports.

        The report representation is oracle specific (a value for GRR, a bit
        vector row for unary encodings) but is always consumable by
        :meth:`aggregate`.
        """

    @abc.abstractmethod
    def support_probabilities(
        self, epsilon: float, domain_size: int
    ) -> tuple[float, float]:
        """The ``(p, q)`` constants of this oracle's support-count debias.

        ``p`` is the probability a report supports its owner's value,
        ``q`` the probability it supports any other fixed value (for HR
        the baseline is exactly 1/2 by Hadamard orthogonality).
        """

    @abc.abstractmethod
    def aggregate_supports(
        self,
        reports: np.ndarray,
        domain_size: int,
        epsilon: float,
    ) -> np.ndarray:
        """Integer support-count vector of a report set (length ``d``).

        This is the additive half of :meth:`aggregate`: supports of
        disjoint report sets sum exactly (they are integers), and
        :meth:`estimate_from_supports` turns a (summed) vector back into
        the estimate :meth:`aggregate` would have produced for the union.
        """

    def aggregate(
        self,
        reports: np.ndarray,
        domain_size: int,
        epsilon: float,
    ) -> FOEstimate:
        """Debias per-user reports into an unbiased frequency estimate."""
        supports = self.aggregate_supports(reports, domain_size, epsilon)
        return self.estimate_from_supports(
            supports, np.asarray(reports).shape[0], domain_size, epsilon
        )

    # ------------------------------------------------------------------
    # Sufficient statistics (shard mergeability)
    # ------------------------------------------------------------------
    # Every oracle in this library estimates frequencies as an affine map
    # of an integer *support-count* vector: ``f = (c/n - q) / (p - q)``
    # with oracle-specific constants ``(p, q)``.  The support counts of a
    # union of report sets are the integer sums of the per-set counts, so
    # exposing the two halves of ``aggregate`` separately makes collection
    # rounds mergeable across population shards with *no* loss:
    # ``estimate_from_supports(sum of shard supports)`` is bit-identical
    # to aggregating the whole population's reports in one process.

    def estimate_from_supports(
        self,
        supports: np.ndarray,
        n_reports: int,
        domain_size: int,
        epsilon: float,
    ) -> FOEstimate:
        """Debias a support-count vector into an :class:`FOEstimate`.

        Composes with :meth:`aggregate_supports`: for every oracle,
        ``aggregate(reports, d, eps)`` equals
        ``estimate_from_supports(aggregate_supports(reports, d, eps),
        len(reports), d, eps)`` bit-for-bit — same floating-point
        expressions on the same integers.
        """
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        supports = np.asarray(supports, dtype=np.float64)
        if supports.shape != (domain_size,):
            raise InvalidParameterError(
                f"supports must have shape ({domain_size},), got "
                f"{supports.shape}"
            )
        n = int(n_reports)
        if n <= 0:
            raise InvalidParameterError("cannot aggregate zero reports")
        p, q = self.support_probabilities(epsilon, domain_size)
        return FOEstimate(
            frequencies=self._debias(supports, n, p, q),
            n_reports=n,
            epsilon=epsilon,
            variance=self.variance(epsilon, n, domain_size),
            supports=supports,
        )

    # ------------------------------------------------------------------
    # Count-level sampling: one primitive, every entry point derived
    # ------------------------------------------------------------------
    def support_draw(self, epsilon: float, domain_size: int):
        """Build this oracle's count-level sampling primitive.

        Returns ``draw(counts, n, rng) -> supports``: ``counts`` is a
        ``(B, d)`` int64 matrix of exact per-round value histograms, ``n``
        its ``(B, 1)`` row totals, and ``supports`` the ``(B, d)`` float64
        perturbed support counts, each row distributed exactly as
        ``aggregate_supports(perturb(...))``.  Round ``b`` is drawn
        entirely before round ``b + 1``, so a ``B``-row draw consumes the
        generator exactly as ``B`` one-row draws do — the property every
        derived sampler's bit-identity rests on.

        The default fits every oracle whose report supports each value
        independently: per cell ``k``, ``Binomial(n_k, p)`` supports from
        its owners plus ``Binomial(n - n_k, q)`` from everyone else.  One
        element-wise binomial over the interleaved ``(B, 2, d)`` stack
        fills, in C order, row ``b``'s owner draws right before its
        background draws.
        """
        p, q = self.support_probabilities(epsilon, domain_size)
        probs = np.array([p, q]).reshape(1, 2, 1)

        def draw(counts, n, rng):
            trials = np.empty((counts.shape[0], 2, counts.shape[1]), np.int64)
            trials[:, 0] = counts
            np.subtract(n, counts, out=trials[:, 1])
            draws = rng.binomial(trials, probs)
            return (draws[:, 0] + draws[:, 1]).astype(np.float64)

        return draw

    def run_sampler(self, epsilon: float, domain_size: int):
        """Build a prepared *run* sampler for a fixed budget.

        Returns ``sample(true_counts, rng) -> (B, d)``: the unbiased
        frequency estimates of ``B`` consecutive rounds, **bit-identical**
        to calling :meth:`sample_aggregate` row by row on the same
        generator.  The budget and domain checks, the ``(p, q)`` debias
        constants and the draw's setup run once here, leaving the count
        checks, the draw and the debias per call; the collector memoizes
        one prepared sampler per budget
        (:meth:`repro.engine.collector.Collector.run_sampler`).
        """
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        p, q = self.support_probabilities(epsilon, domain_size)
        draw = self.support_draw(epsilon, domain_size)

        def sample(true_counts: np.ndarray, rng) -> np.ndarray:
            counts = self._check_batch_counts(true_counts)
            if counts.shape[1] != domain_size:
                raise InvalidParameterError(
                    f"true_counts must have {domain_size} columns, got "
                    f"{counts.shape[1]}"
                )
            n = counts.sum(axis=1, keepdims=True)
            if np.count_nonzero(n) < n.shape[0]:
                raise InvalidParameterError("cannot aggregate zero reports")
            return self._debias(draw(counts, n, rng), n, p, q)

        return sample

    def sample_aggregate_run(
        self,
        true_counts: np.ndarray,
        epsilon: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Sample a *run* of consecutive rounds from a ``(B, d)`` count
        matrix; the one-shot form of :meth:`run_sampler`.

        The output is **bit-identical** to calling
        :meth:`sample_aggregate` row by row on the same generator, which
        is what lets the chunked ingestion path
        (:meth:`repro.engine.session.StreamSession.observe_many`) batch
        whole spans of collection rounds without changing a single
        released float.
        """
        counts = self._check_batch_counts(true_counts)
        return self.run_sampler(epsilon, counts.shape[1])(
            counts, ensure_rng(rng)
        )

    def round_sampler(self, epsilon: float, domain_size: int):
        """Build a prepared single-round sampler for a fixed budget.

        Returns ``sample(true_counts, rng) -> frequencies``, one row of
        :meth:`run_sampler`, so **bit-identical** to
        ``sample_aggregate(true_counts, epsilon, rng=rng).frequencies``.
        The adaptive population kernels (LPD/LPA) lean on this: their
        pool draws interleave with the oracle draws on the shared
        generator, so their rounds cannot batch.
        """
        run = self.run_sampler(epsilon, domain_size)

        def sample(true_counts: np.ndarray, rng) -> np.ndarray:
            # The run's (B, d) check rejects anything but one 1-D round.
            return run(np.asarray(true_counts)[None], rng)[0]

        return sample

    def sample_aggregate(
        self,
        true_counts: np.ndarray,
        epsilon: float,
        rng: SeedLike = None,
    ) -> FOEstimate:
        """Sample an aggregation outcome directly from true per-value counts.

        ``true_counts`` is the exact histogram of the reporting group's
        values (length ``d``, sums to the group size).  The returned
        estimate is distributed exactly as ``aggregate(perturb(...))``.
        """
        epsilon = self._check_epsilon(epsilon)
        counts = self._check_batch_counts(true_counts, ndim=1)
        domain_size = self._check_domain(counts.shape[0])
        n = int(counts.sum())
        if n <= 0:
            raise InvalidParameterError("cannot aggregate zero reports")
        draw = self.support_draw(epsilon, domain_size)
        supports = draw(counts[None, :], np.array([[n]]), ensure_rng(rng))
        return self.estimate_from_supports(
            supports[0], n, domain_size, epsilon
        )

    def sample_aggregate_run_stacked(
        self,
        true_counts: np.ndarray,
        epsilons,
        rngs,
    ) -> np.ndarray:
        """Run-sample ``S`` private sessions over one shared count block.

        ``true_counts`` is the shared ``(B, d)`` block of exact per-round
        value histograms; ``epsilons[s]`` and ``rngs[s]`` are session
        ``s``'s per-round budget and **private** generator (``epsilons``
        may also be a scalar applied to every layer).  Returns an
        ``(S, B, d)`` stack whose layer ``s`` is **bit-identical** to
        ``sample_aggregate_run(true_counts, epsilons[s], rng=rngs[s])``:
        each layer's draws come from its own generator only, so stacking
        shares the count block and one prepared run sampler per distinct
        budget, never randomness.  This is the kernel the SoA scheduler
        (:mod:`repro.engine.soa`) drives a whole bucket of fused sessions
        through.
        """
        counts = self._check_batch_counts(true_counts)
        rngs = list(rngs)
        epsilons = self._stack_epsilons(epsilons, len(rngs))
        samplers = {
            eps: self.run_sampler(eps, counts.shape[1])
            for eps in dict.fromkeys(epsilons)
        }
        out = np.empty((len(rngs),) + counts.shape, dtype=np.float64)
        for layer, eps, rng in zip(out, epsilons, rngs):
            layer[:] = samplers[eps](counts, rng)
        return out

    @staticmethod
    def _stack_epsilons(epsilons, n_sessions: int) -> list:
        """Normalise a scalar-or-sequence budget spec to one per session."""
        if np.ndim(epsilons) == 0:
            return [float(epsilons)] * n_sessions
        epsilons = [float(eps) for eps in epsilons]
        if len(epsilons) != n_sessions:
            raise InvalidParameterError(
                f"got {len(epsilons)} epsilons for {n_sessions} sessions"
            )
        return epsilons

    @staticmethod
    def _check_batch_counts(true_counts, ndim: int = 2) -> np.ndarray:
        """Validate exact value histograms: a ``(B, d)`` matrix, or one
        round's length-``d`` vector when ``ndim=1``; integral and
        non-negative.  Returns them as int64."""
        counts = np.asarray(true_counts)
        if counts.ndim != ndim:
            expected = "a (B, d) matrix" if ndim == 2 else "a 1-D vector"
            raise InvalidParameterError(
                f"true_counts must be {expected}, got shape {counts.shape}"
            )
        if counts.dtype.kind not in "biu":
            if not np.all(np.isfinite(counts) & (counts == np.round(counts))):
                raise InvalidParameterError("true_counts must be integral")
        if counts.size and counts.min() < 0:
            raise InvalidParameterError("true_counts must be non-negative")
        return counts.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # Closed-form error model
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        """Mean per-cell estimation variance ``V(eps, n)``.

        This is the frequency-independent form of Eq. (2) (the ``f_k`` term
        enters with weight ``(1/d)·Σf_k = 1/d``), used to predict the
        *potential publication error* before any data is collected
        (Section 5.3.2).
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_epsilon(epsilon: float) -> float:
        if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)):
            raise InvalidParameterError(f"epsilon must be finite, got {epsilon!r}")
        if epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
        return float(epsilon)

    @staticmethod
    def _check_domain(domain_size: int) -> int:
        if domain_size < 2:
            raise InvalidParameterError(
                f"domain_size must be at least 2, got {domain_size}"
            )
        return int(domain_size)

    @staticmethod
    def _check_values(values: np.ndarray, domain_size: int) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise InvalidParameterError("values must be a 1-D integer array")
        if values.size and (values.min() < 0 or values.max() >= domain_size):
            raise InvalidParameterError(
                "values contain entries outside [0, domain_size)"
            )
        return values.astype(np.int64, copy=False)

    @staticmethod
    def _debias(
        perturbed_counts: np.ndarray, n: int | np.ndarray, p: float, q: float
    ) -> np.ndarray:
        """Standard unbiased FO estimator ``(c'/n - q) / (p - q)``."""
        return (perturbed_counts / n - q) / (p - q)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[FrequencyOracle]] = {}


def register_oracle(cls: Type[FrequencyOracle]) -> Type[FrequencyOracle]:
    """Class decorator adding an oracle to the by-name registry."""
    if not cls.name:
        raise InvalidParameterError(f"{cls.__name__} must define a name")
    _REGISTRY[cls.name] = cls
    return cls


def get_oracle(name_or_instance) -> FrequencyOracle:
    """Resolve an oracle by registry name, class, or pass an instance through."""
    if isinstance(name_or_instance, FrequencyOracle):
        return name_or_instance
    if isinstance(name_or_instance, type) and issubclass(
        name_or_instance, FrequencyOracle
    ):
        return name_or_instance()
    try:
        return _REGISTRY[str(name_or_instance).lower()]()
    except KeyError:
        raise InvalidParameterError(
            f"unknown frequency oracle {name_or_instance!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None


def available_oracles() -> list[str]:
    """Names of all registered frequency oracles."""
    return sorted(_REGISTRY)
