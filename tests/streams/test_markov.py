"""Unit tests for the Markov value process substrate."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.streams import MarkovValueProcess, sample_categorical
from repro.streams.markov import _categorical_cdf, _inverse_cdf


class _StubRng:
    """Generator stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestSampleCategorical:
    def test_distribution_respected(self, rng):
        probs = np.array([0.7, 0.2, 0.1])
        draws = sample_categorical(probs, 50_000, rng)
        freqs = np.bincount(draws, minlength=3) / 50_000
        assert np.allclose(freqs, probs, atol=0.01)

    def test_unnormalised_weights_accepted(self, rng):
        draws = sample_categorical(np.array([7.0, 2.0, 1.0]), 20_000, rng)
        freqs = np.bincount(draws, minlength=3) / 20_000
        assert np.allclose(freqs, [0.7, 0.2, 0.1], atol=0.02)

    def test_rejects_bad_weights(self, rng):
        with pytest.raises(InvalidParameterError):
            sample_categorical(np.array([-1.0, 1.0]), 10, rng)
        with pytest.raises(InvalidParameterError):
            sample_categorical(np.array([0.0, 0.0]), 10, rng)
        with pytest.raises(InvalidParameterError):
            sample_categorical(np.empty(0), 10, rng)

    @pytest.mark.parametrize(
        "probs,expect",
        [
            # cumsum of ten 0.1s ends at 0.9999999999999999, below 1.
            (np.full(10, 0.1), 9),
            # A trailing zero-mass category must never be drawn.
            (np.append(np.full(10, 0.1), 0.0), 9),
        ],
    )
    def test_top_uniform_stays_in_domain(self, probs, expect):
        u = np.nextafter(1.0, 0.0)
        draws = sample_categorical(probs, 3, _StubRng(u))
        assert draws.tolist() == [expect] * 3


def _guide_cases():
    rng = np.random.default_rng(21)
    return [
        # zero-probability ties, inside one bucket and across buckets
        ("ties", np.array([0.25, 0.0, 0.0, 0.25, 0.0, 0.5, 0.0]), None),
        # cdf entries exactly on the bucket edges k/M
        ("on-edges", np.array([0.25, 0.25, 0.125, 0.375]), 8),
        ("d=2", np.array([0.3, 0.7]), None),
        ("d=2-skew", np.array([1e-12, 1.0]), None),
        # more categories than table entries: many per bucket
        ("d>table", rng.dirichlet(np.full(300, 0.3)), 16),
        ("zipf", 1.0 / np.arange(1, 118) ** 1.2, None),
    ]


class TestGuideTable:
    """The indexed search returns exactly ``searchsorted(side="right")``."""

    @pytest.mark.parametrize(
        "probs,table_size",
        [case[1:] for case in _guide_cases()],
        ids=[case[0] for case in _guide_cases()],
    )
    def test_matches_searchsorted(self, probs, table_size):
        cdf = _categorical_cdf(probs)
        size = table_size or 1 << (4 * cdf.size - 1).bit_length()
        edges = np.arange(size) / size
        u = np.concatenate(
            [
                edges,
                np.nextafter(edges, 1.0),
                np.nextafter(edges[1:], 0.0),
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 2.0),
                [0.0, np.nextafter(1.0, 0.0)],
                np.random.default_rng(5).random(5_000),
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        got = _inverse_cdf(cdf, u, table_size)
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
        assert got.max() < cdf.size


class TestMarkovValueProcess:
    @staticmethod
    def _uniform_target(t):
        return np.full(4, 0.25)

    def test_first_step_samples_target(self):
        process = MarkovValueProcess(
            20_000, self._uniform_target, churn_rate=0.5, seed=1
        )
        values = process.step(0)
        freqs = np.bincount(values, minlength=4) / 20_000
        assert np.allclose(freqs, 0.25, atol=0.02)

    def test_zero_churn_freezes_values(self):
        process = MarkovValueProcess(
            1_000, self._uniform_target, churn_rate=0.0, seed=1
        )
        first = process.step(0).copy()
        for t in range(1, 5):
            assert np.array_equal(process.step(t), first)

    def test_full_churn_resamples_everyone(self):
        process = MarkovValueProcess(
            50_000, self._uniform_target, churn_rate=1.0, seed=1
        )
        a = process.step(0).copy()
        b = process.step(1)
        # With churn 1 the overlap should be the chance level 1/d.
        overlap = float(np.mean(a == b))
        assert overlap == pytest.approx(0.25, abs=0.02)

    def test_partial_churn_stickiness(self):
        churn = 0.1
        process = MarkovValueProcess(
            50_000, self._uniform_target, churn_rate=churn, seed=1
        )
        a = process.step(0).copy()
        b = process.step(1)
        stay = float(np.mean(a == b))
        expected = (1 - churn) + churn * 0.25
        assert stay == pytest.approx(expected, abs=0.02)

    def test_tracks_moving_target(self):
        def moving_target(t):
            return np.array([0.9, 0.1]) if t < 5 else np.array([0.1, 0.9])

        process = MarkovValueProcess(20_000, moving_target, churn_rate=0.5, seed=1)
        for t in range(20):
            values = process.step(t)
        late_freq = np.bincount(values, minlength=2) / 20_000
        assert late_freq[1] > 0.8

    def test_invalid_churn_rejected(self):
        with pytest.raises(InvalidParameterError):
            MarkovValueProcess(10, self._uniform_target, churn_rate=1.5)
        with pytest.raises(InvalidParameterError):
            MarkovValueProcess(0, self._uniform_target, churn_rate=0.5)

    def test_reset_restarts(self):
        process = MarkovValueProcess(
            100, self._uniform_target, churn_rate=0.3, seed=9
        )
        process.step(0)
        process.step(1)
        process.reset(seed=9)
        values = process.step(0)
        assert values.shape == (100,)
