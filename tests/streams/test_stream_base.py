"""Unit tests for stream dataset base classes."""

import gc
import weakref

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, StreamAccessError
from repro.streams import (
    FoursquareSimulator,
    GenerativeStream,
    MaterializedStream,
    TaobaoSimulator,
    TaxiSimulator,
)


class TestMaterializedStream:
    def test_basic_properties(self, rng):
        values = rng.integers(0, 4, size=(10, 50))
        stream = MaterializedStream(values, domain_size=4)
        assert stream.n_users == 50
        assert stream.domain_size == 4
        assert stream.horizon == 10

    def test_values_random_access(self, rng):
        values = rng.integers(0, 4, size=(10, 50))
        stream = MaterializedStream(values, domain_size=4)
        assert np.array_equal(stream.values(7), values[7])
        assert np.array_equal(stream.values(0), values[0])

    def test_true_frequencies_sum_to_one(self, rng):
        values = rng.integers(0, 4, size=(5, 100))
        stream = MaterializedStream(values, domain_size=4)
        for t in range(5):
            assert stream.true_frequencies(t).sum() == pytest.approx(1.0)

    def test_true_counts_match_values(self):
        values = np.array([[0, 0, 1, 2, 2, 2]])
        stream = MaterializedStream(values, domain_size=3)
        assert np.array_equal(stream.true_counts(0), [2, 1, 3])

    def test_frequency_matrix_shape(self, rng):
        values = rng.integers(0, 3, size=(8, 20))
        stream = MaterializedStream(values, domain_size=3)
        assert stream.frequency_matrix().shape == (8, 3)

    def test_domain_inferred(self):
        stream = MaterializedStream(np.array([[0, 1, 2]]))
        assert stream.domain_size == 3

    def test_out_of_horizon_raises(self, rng):
        stream = MaterializedStream(rng.integers(0, 2, size=(5, 10)))
        with pytest.raises(StreamAccessError):
            stream.values(5)
        with pytest.raises(StreamAccessError):
            stream.values(-1)

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            MaterializedStream(np.array([[0, 5]]), domain_size=3)
        with pytest.raises(InvalidParameterError):
            MaterializedStream(np.array([0, 1, 2]))  # 1-D


class _CountingStream(GenerativeStream):
    """Generative stream that records how many times _advance ran."""

    def __init__(self):
        super().__init__(n_users=10, domain_size=2, horizon=20)
        self.advances = 0

    def _advance(self, t):
        self.advances += 1
        return np.full(10, t % 2, dtype=np.int64)

    def _reset_state(self):
        self.advances = 0


class TestGenerativeStream:
    def test_in_order_access(self):
        stream = _CountingStream()
        for t in range(5):
            assert np.array_equal(stream.values(t), np.full(10, t % 2))
        assert stream.advances == 5

    def test_repeated_reads_are_cached(self):
        stream = _CountingStream()
        stream.values(0)
        stream.values(0)
        stream.values(0)
        assert stream.advances == 1

    def test_skipping_ahead_raises(self):
        stream = _CountingStream()
        stream.values(0)
        with pytest.raises(StreamAccessError):
            stream.values(2)

    def test_rewind_raises_without_reset(self):
        stream = _CountingStream()
        stream.values(0)
        stream.values(1)
        with pytest.raises(StreamAccessError):
            stream.values(0)

    def test_reset_allows_replay(self):
        stream = _CountingStream()
        stream.values(0)
        stream.values(1)
        stream.reset()
        assert np.array_equal(stream.values(0), np.full(10, 0))

    def test_horizon_enforced(self):
        stream = _CountingStream()
        with pytest.raises(StreamAccessError):
            stream.values(20)

    def test_frequency_matrix_requires_horizon_for_unbounded(self):
        class Unbounded(_CountingStream):
            def __init__(self):
                GenerativeStream.__init__(
                    self, n_users=10, domain_size=2, horizon=None
                )
                self.advances = 0

        stream = Unbounded()
        with pytest.raises(StreamAccessError):
            stream.frequency_matrix()
        assert stream.frequency_matrix(horizon=3).shape == (3, 2)


class TestTrueFrequenciesRange:
    def test_materialized_matches_per_timestamp(self, rng):
        values = rng.integers(0, 6, size=(15, 80))
        stream = MaterializedStream(values, domain_size=6)
        block = stream.true_frequencies_range(3, 11)
        assert block.shape == (8, 6)
        for i, t in enumerate(range(3, 11)):
            assert np.array_equal(block[i], stream.true_frequencies(t))

    @pytest.mark.parametrize("churn", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "simulator", [TaxiSimulator, FoursquareSimulator, TaobaoSimulator]
    )
    def test_generative_fallback_matches_per_timestamp(self, simulator, churn):
        def build():
            return simulator(
                n_users=120, horizon=300, churn_rate=churn, scale=1, seed=3
            )

        reference = build()
        per_step = np.stack([reference.values(t) for t in range(300)])
        reference.reset()
        per_step_freqs = np.stack(
            [reference.true_frequencies(t) for t in range(300)]
        )
        stream = build()
        # Uneven splits, the last chunk ending at the horizon; replayed
        # after reset() with a different split.
        for splits in ([1, 7, 256, 36], [256, 1, 7, 36]):
            stream.reset()
            t0 = 0
            for length in splits:
                block = stream.values_range(t0, t0 + length)
                assert np.array_equal(block, per_step[t0 : t0 + length])
                # Re-read at the cursor after a block.
                last = t0 + length - 1
                assert np.array_equal(stream.values(last), per_step[last])
                t0 += length
            assert t0 == stream.horizon
        stream.reset()
        freqs = stream.true_frequencies_range(0, 300)
        assert np.array_equal(freqs, per_step_freqs)

    def test_range_may_start_at_cursor(self):
        stream = TaxiSimulator(n_users=50, horizon=20, seed=4)
        per_step = np.stack([stream.values(t) for t in range(20)])
        stream.reset()
        stream.values_range(0, 5)
        assert np.array_equal(stream.values_range(4, 9), per_step[4:9])
        assert np.array_equal(stream.values_range(8, 9), per_step[8:9])
        with pytest.raises(StreamAccessError):
            stream.values_range(7, 12)
        with pytest.raises(StreamAccessError):
            stream.values_range(10, 12)

    def test_advance_subclass_fills_blocks(self):
        stream = _CountingStream()
        block = stream.values_range(0, 6)
        assert np.array_equal(block, [np.full(10, t % 2) for t in range(6)])
        assert stream.advances == 6
        assert np.array_equal(stream.values(6), np.full(10, 0))
        assert stream.advances == 7

    @pytest.mark.parametrize("t0,t1", [(0, 40), (0, 1), (39, 40), (39, 41)])
    def test_block_is_not_pinned_by_the_stream(self, t0, t1):
        stream = TaxiSimulator(n_users=500, horizon=50, seed=2)
        if t0:
            stream.values_range(0, t0 + 1)
        block = stream.values_range(t0, t1)
        cached = stream.values(t1 - 1)
        assert np.array_equal(cached, block[-1])
        assert not np.shares_memory(cached, block)
        assert not np.shares_memory(stream._process._values, block)
        ref = weakref.ref(block)
        del block
        gc.collect()
        assert ref() is None

    def test_empty_range(self, rng):
        stream = MaterializedStream(rng.integers(0, 3, size=(5, 10)), 3)
        assert stream.true_frequencies_range(2, 2).shape == (0, 3)

    def test_invalid_range_rejected(self, rng):
        stream = MaterializedStream(rng.integers(0, 3, size=(5, 10)), 3)
        with pytest.raises(StreamAccessError):
            stream.true_frequencies_range(3, 1)
        with pytest.raises(StreamAccessError):
            stream.true_frequencies_range(0, 6)

    def test_frequency_matrix_uses_range(self, rng):
        values = rng.integers(0, 4, size=(6, 30))
        stream = MaterializedStream(values, domain_size=4)
        assert np.array_equal(
            stream.frequency_matrix(),
            np.stack([stream.true_frequencies(t) for t in range(6)]),
        )

    def test_random_access_flags(self, rng):
        from repro.streams import OnlineStream, TaxiSimulator

        assert MaterializedStream(rng.integers(0, 3, size=(5, 10)), 3).random_access
        assert not TaxiSimulator(n_users=10, horizon=5, seed=0).random_access
        assert not OnlineStream(n_users=10, domain_size=3).random_access
