"""Unit tests for the real-world dataset simulators (Section 7.1.2 subs)."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.streams import (
    FoursquareSimulator,
    TaobaoSimulator,
    TaxiSimulator,
    zipf_weights,
)


class TestZipfWeights:
    def test_normalised(self):
        assert zipf_weights(20).sum() == pytest.approx(1.0)

    def test_rank_ordering(self):
        weights = zipf_weights(10, exponent=1.2)
        assert (np.diff(weights) < 0).all()

    def test_exponent_controls_skew(self):
        flat = zipf_weights(10, exponent=0.5)
        steep = zipf_weights(10, exponent=2.0)
        assert steep[0] > flat[0]


class TestPaperDimensions:
    """Simulators default to the exact N/T/d the paper reports."""

    def test_taxi(self):
        sim = TaxiSimulator(seed=1)
        assert sim.n_users == 10_357
        assert sim.horizon == 886
        assert sim.domain_size == 5

    def test_foursquare(self):
        sim = FoursquareSimulator(seed=1)
        assert sim.n_users == 265_149 // 8  # default scale 8
        assert sim.horizon == 447
        assert sim.domain_size == 77

    def test_taobao(self):
        sim = TaobaoSimulator(seed=1)
        assert sim.n_users == 1_023_154 // 32  # default scale 32
        assert sim.horizon == 432
        assert sim.domain_size == 117

    def test_scale_divides_population(self):
        sim = TaxiSimulator(scale=10, seed=1)
        assert sim.n_users == 10_357 // 10

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            TaxiSimulator(scale=0, seed=1)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: TaxiSimulator(n_users=2_000, horizon=40, seed=3),
        lambda: FoursquareSimulator(n_users=2_000, horizon=40, scale=1, seed=3),
        lambda: TaobaoSimulator(n_users=2_000, horizon=40, scale=1, seed=3),
    ],
    ids=["taxi", "foursquare", "taobao"],
)
class TestSimulatorBehaviour:
    def test_values_in_domain(self, factory):
        sim = factory()
        for t in range(10):
            values = sim.values(t)
            assert values.shape == (2_000,)
            assert values.min() >= 0
            assert values.max() < sim.domain_size

    def test_frequencies_sum_to_one(self, factory):
        sim = factory()
        for t in range(5):
            assert sim.true_frequencies(t).sum() == pytest.approx(1.0)

    def test_temporal_correlation(self, factory):
        """Consecutive histograms are closer than distant ones on average."""
        sim = factory()
        freqs = sim.frequency_matrix(40)
        near = np.mean(np.abs(np.diff(freqs, axis=0)))
        far = np.mean(np.abs(freqs[30:] - freqs[:10]))
        assert near < far

    def test_reset_replays_from_start(self, factory):
        sim = factory()
        sim.values(0)
        sim.values(1)
        sim.reset()
        values = sim.values(0)
        assert values.shape == (2_000,)

    def test_reset_replays_bit_identically(self, factory):
        """reset() must replay the exact stream — the equivalence the
        parallel engine relies on when workers rebuild datasets."""
        sim = factory()
        first = [sim.values(t).copy() for t in range(10)]
        sim.reset()
        replay = [sim.values(t) for t in range(10)]
        for a, b in zip(first, replay):
            assert (a == b).all()

    def test_fresh_build_matches_reset(self, factory):
        sim = factory()
        first = [sim.values(t).copy() for t in range(10)]
        fresh = factory()
        rebuilt = [fresh.values(t) for t in range(10)]
        for a, b in zip(first, rebuilt):
            assert (a == b).all()


#: SHA-256 of each simulator's first 64 snapshots (little-endian int64)
#: at ``n_users=300, horizon=64, scale=1, seed=7``.  Every reproduced
#: figure is a function of these bitstreams, so a change to the
#: generator's draws or arithmetic must show here, not only as a
#: disagreement between two of today's code paths.
PINNED_DIGESTS = {
    TaxiSimulator: (
        "150575dd109101e8026fe8e9fc5d48bd493824f15d70db3def0e806d20cde2b9"
    ),
    FoursquareSimulator: (
        "f20edfe2e5cce90f632f796c412fe6618e76c8f3683d2ae2129a26d5f79fff17"
    ),
    TaobaoSimulator: (
        "867694d1c4fc21d81a255ce1f9d15ba9b7d994514a50f2df7a0627a01db3ec54"
    ),
}


@pytest.mark.parametrize(
    "simulator", list(PINNED_DIGESTS), ids=lambda cls: cls.__name__
)
def test_bitstream_is_pinned(simulator):
    sim = simulator(n_users=300, horizon=64, scale=1, seed=7)
    block = sim.values_range(0, 64).astype("<i8")
    digest = hashlib.sha256(block.tobytes()).hexdigest()
    assert digest == PINNED_DIGESTS[simulator]


class TestTaxiDiurnalCycle:
    def test_distribution_shifts_through_day(self):
        sim = TaxiSimulator(n_users=5_000, horizon=200, seed=5, churn_rate=0.8)
        freqs = sim.frequency_matrix(200)
        # Region shares at opposite day phases (slot 0 vs slot 72) differ.
        morning = freqs[0:10].mean(axis=0)
        evening = freqs[72:82].mean(axis=0)
        assert np.abs(morning - evening).max() > 0.01


class TestTaobaoBursts:
    def test_burst_changes_target(self):
        sim = TaobaoSimulator(
            n_users=100,
            horizon=300,
            scale=1,
            seed=11,
            burst_probability=1.0,
            burst_boost=50.0,
            burst_length=5,
        )
        target = sim.target_distribution(0)
        # At t=0 the diurnal tilt is neutral, so without the burst the
        # target would equal the base Zipf weights; the boosted category
        # stands out as a large ratio against its base weight.
        ratio = target / sim._base
        assert ratio.max() / np.median(ratio) > 10.0

    def test_zipf_skew_present(self):
        sim = TaobaoSimulator(n_users=20_000, horizon=10, scale=1, seed=2)
        freqs = sim.true_frequencies(0)
        # Head category dominates the median category by a wide margin.
        assert freqs.max() > 10 * np.median(freqs[freqs > 0] + 1e-9)
