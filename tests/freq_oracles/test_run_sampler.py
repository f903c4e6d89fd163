"""Tests for the order-preserving samplers derived from ``support_draw``.

Every oracle's run sampler must be **bit-identical** to sequential
:meth:`sample_aggregate` calls on the same generator — this is the
contract the chunked ingestion engine builds on — and the prepared
``run_sampler``/``round_sampler`` closures and the stacked SoA sampler
must replay exactly the same draws.  The pinned digests below fix each
entry point's output bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.freq_oracles import available_oracles, get_oracle

ALL_ORACLES = sorted(available_oracles())


def _counts(rng, batch=32, domain=9, n=4000):
    return rng.multinomial(n, rng.dirichlet(np.ones(domain)), size=batch)


class TestBitIdentity:
    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", [0.4, 1.0, 2.7])
    def test_run_equals_sequential_rounds(self, name, epsilon, rng):
        oracle = get_oracle(name)
        counts = _counts(rng)
        run = oracle.sample_aggregate_run(
            counts, epsilon, rng=np.random.default_rng(123)
        )
        loop_rng = np.random.default_rng(123)
        rounds = np.stack(
            [
                oracle.sample_aggregate(row, epsilon, rng=loop_rng).frequencies
                for row in counts
            ]
        )
        assert np.array_equal(run, rounds)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_mixed_row_totals_stay_identical(self, name):
        oracle = get_oracle(name)
        counts = np.array([[50, 25, 25], [5000, 2500, 2500], [1, 1, 1]])
        run = oracle.sample_aggregate_run(
            counts, 1.0, rng=np.random.default_rng(9)
        )
        loop_rng = np.random.default_rng(9)
        rounds = np.stack(
            [
                oracle.sample_aggregate(row, 1.0, rng=loop_rng).frequencies
                for row in counts
            ]
        )
        assert np.array_equal(run, rounds)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_generator_left_in_same_state(self, name, rng):
        """Downstream draws after a run match downstream draws after
        the equivalent loop — nothing is over- or under-consumed."""
        oracle = get_oracle(name)
        counts = _counts(rng, batch=7, domain=5)
        run_rng = np.random.default_rng(77)
        oracle.sample_aggregate_run(counts, 1.3, rng=run_rng)
        loop_rng = np.random.default_rng(77)
        for row in counts:
            oracle.sample_aggregate(row, 1.3, rng=loop_rng)
        assert np.array_equal(run_rng.integers(0, 1 << 30, 8),
                              loop_rng.integers(0, 1 << 30, 8))


class TestShapesAndErrors:
    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_empty_run(self, name, rng):
        out = get_oracle(name).sample_aggregate_run(
            np.empty((0, 5), dtype=np.int64), 1.0, rng=rng
        )
        assert out.shape == (0, 5)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_rejects_non_matrix(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run(
                np.array([1, 2, 3]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_rejects_zero_report_row(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run(
                np.array([[2, 3], [0, 0]]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_rejects_negative_counts(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run(
                np.array([[3, -1]]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize(
        "counts", [[5.7, 3.2, 1.9], [[5.5, 3.0, 2.0]]], ids=["round", "run"]
    )
    def test_rejects_non_integral_counts(self, name, counts, rng):
        oracle = get_oracle(name)
        counts = np.asarray(counts)
        entry = (
            oracle.sample_aggregate
            if counts.ndim == 1
            else oracle.sample_aggregate_run
        )
        with pytest.raises(InvalidParameterError):
            entry(counts, 1.0, rng=rng)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_single_round_rejects_matrix(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate(
                np.array([[5, 3], [2, 4]]), 1.0, rng=rng
            )

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_integral_float_counts_accepted(self, name):
        oracle = get_oracle(name)
        floats = oracle.sample_aggregate(
            np.array([5.0, 3.0, 2.0]), 1.0, rng=np.random.default_rng(4)
        )
        ints = oracle.sample_aggregate(
            np.array([5, 3, 2]), 1.0, rng=np.random.default_rng(4)
        )
        assert floats.n_reports == 10
        assert np.array_equal(floats.frequencies, ints.frequencies)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_round_sampler_rejects_all_zero_round(self, name, rng):
        sampler = get_oracle(name).round_sampler(1.0, 4)
        with pytest.raises(InvalidParameterError):
            sampler(np.zeros(4, dtype=np.int64), rng)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize(
        "epsilon",
        [np.float32(1.5), np.int64(2), np.array(0.75)],
        ids=["float32", "int64", "0-d"],
    )
    def test_stacked_accepts_numpy_scalar_budget(self, name, epsilon, rng):
        oracle = get_oracle(name)
        counts = _counts(rng, batch=4, domain=5)
        stacked = oracle.sample_aggregate_run_stacked(
            counts, epsilon, [np.random.default_rng(s) for s in (1, 2)]
        )
        for s, layer in zip((1, 2), stacked):
            solo = oracle.sample_aggregate_run(
                counts, float(epsilon), rng=np.random.default_rng(s)
            )
            assert np.array_equal(layer, solo)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    def test_stacked_rejects_budget_count_mismatch(self, name, rng):
        with pytest.raises(InvalidParameterError):
            get_oracle(name).sample_aggregate_run_stacked(
                _counts(rng, batch=2, domain=3),
                [1.0, 2.0],
                [np.random.default_rng(0)],
            )


EPSILONS = [0.4, 1.0, 2.7]


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestDerivedSamplers:
    """The prepared and stacked samplers replay the plain entry points."""

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_round_sampler_equals_sample_aggregate(self, name, epsilon, rng):
        oracle = get_oracle(name)
        counts = _counts(rng, batch=6)
        sampler = oracle.round_sampler(epsilon, counts.shape[1])
        prepared, plain = np.random.default_rng(5), np.random.default_rng(5)
        for row in counts:
            want = oracle.sample_aggregate(row, epsilon, rng=plain)
            assert np.array_equal(sampler(row, prepared), want.frequencies)
        assert _same_state(prepared, plain)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_run_sampler_equals_sample_aggregate_run(self, name, epsilon, rng):
        oracle = get_oracle(name)
        counts = _counts(rng, batch=11)
        sampler = oracle.run_sampler(epsilon, counts.shape[1])
        prepared, plain = np.random.default_rng(6), np.random.default_rng(6)
        for block in (counts[:4], counts[4:]):
            want = oracle.sample_aggregate_run(block, epsilon, rng=plain)
            assert np.array_equal(sampler(block, prepared), want)
        assert _same_state(prepared, plain)

    @pytest.mark.parametrize("name", ALL_ORACLES)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("mix", ["repeated", "mixed"])
    def test_stacked_layers_equal_solo_runs(self, name, epsilon, mix, rng):
        oracle = get_oracle(name)
        counts = _counts(rng, batch=9, domain=6)
        epsilons = [epsilon] * 3
        if mix == "mixed":
            epsilons = [epsilon, 1.7, epsilon, 0.9]
        seeds = range(40, 40 + len(epsilons))
        stacked_rngs = [np.random.default_rng(s) for s in seeds]
        stacked = oracle.sample_aggregate_run_stacked(
            counts, epsilons, stacked_rngs
        )
        assert stacked.shape == (len(epsilons),) + counts.shape
        for layer, eps, seed, layer_rng in zip(
            stacked, epsilons, seeds, stacked_rngs
        ):
            solo_rng = np.random.default_rng(seed)
            solo = oracle.sample_aggregate_run(counts, eps, rng=solo_rng)
            assert np.array_equal(layer, solo)
            assert _same_state(layer_rng, solo_rng)


def _entry_point_outputs(oracle, entry, epsilon):
    """Output arrays of one sampling entry point on fixed inputs, then a
    few draws that fingerprint the generator's end state."""
    counts = np.random.default_rng(2024).multinomial(
        4000, np.random.default_rng(7).dirichlet(np.ones(9)), size=5
    )
    counts = np.vstack([counts, [[1] * 9], [[400] + [0] * 8]])
    d = counts.shape[1]
    rng = np.random.default_rng(99)
    if entry == "aggregate":
        values = np.random.default_rng(3).integers(0, d, size=300)
        reports = oracle.perturb(values, d, epsilon, rng=rng)
        est = oracle.aggregate(reports, d, epsilon)
        out = [est.frequencies, est.supports]
    elif entry == "sample_aggregate":
        out = []
        for row in counts:
            est = oracle.sample_aggregate(row, epsilon, rng=rng)
            out += [est.frequencies, est.supports]
    elif entry == "round_sampler":
        sampler = oracle.round_sampler(epsilon, d)
        out = [sampler(row, rng) for row in counts]
    elif entry == "sample_aggregate_run":
        out = [oracle.sample_aggregate_run(counts, epsilon, rng=rng)]
    elif entry == "run_sampler":
        out = [oracle.run_sampler(epsilon, d)(counts, rng)]
    else:
        rngs = [rng, np.random.default_rng(100), np.random.default_rng(101)]
        out = [
            oracle.sample_aggregate_run_stacked(
                counts, [epsilon, 1.7, epsilon], rngs
            )
        ]
        out += [r.integers(0, 1 << 62, 4) for r in rngs[1:]]
    return out + [rng.integers(0, 1 << 62, 4)]


def entry_point_digest(name, entry):
    digest = hashlib.sha256()
    for epsilon in EPSILONS:
        for array in _entry_point_outputs(get_oracle(name), entry, epsilon):
            digest.update(np.ascontiguousarray(array).astype("<f8").tobytes())
    return digest.hexdigest()


ENTRY_POINTS = [
    "aggregate",
    "sample_aggregate",
    "round_sampler",
    "sample_aggregate_run",
    "run_sampler",
    "sample_aggregate_run_stacked",
]

#: SHA-256 of each entry point's output bytes (and the generator end
#: state) over EPSILONS, computed when every entry point had its own
#: per-oracle implementation; the derived samplers must reproduce them.
PINNED_DIGESTS = {
    "grr": {
        "aggregate": (
            "9e77d84c9cd6a8e3ae841331fc2e1b2605e6b7e4663c2a5817b76249e92ae505"
        ),
        "sample_aggregate": (
            "53e23416c8a682d0a8763903477c11aca99461c42c5cd4302bf9e4928ec76a20"
        ),
        "round_sampler": (
            "a1e7a9962a3df83d2d01f15d9e06fa85ac18d91e900f47282bf1531f0d3a860a"
        ),
        "sample_aggregate_run": (
            "a1e7a9962a3df83d2d01f15d9e06fa85ac18d91e900f47282bf1531f0d3a860a"
        ),
        "run_sampler": (
            "a1e7a9962a3df83d2d01f15d9e06fa85ac18d91e900f47282bf1531f0d3a860a"
        ),
        "sample_aggregate_run_stacked": (
            "f96e05c6f7545bc48488f624ea58b37368ef5d07bfd1881f7a7ef181fcae210e"
        ),
    },
    "hr": {
        "aggregate": (
            "9392fb790e7bc75312d575fc1b54df5b4ac641cc534b4fadc4c1fbacbbffe8bd"
        ),
        "sample_aggregate": (
            "b76554aa951ec214797272995b16624d38c0ba9aa874ed4b9ea771735228f3b4"
        ),
        "round_sampler": (
            "bc885f53be3ba107dfd3310d80dc4402e1226419c5754653a37b55359e6904f8"
        ),
        "sample_aggregate_run": (
            "bc885f53be3ba107dfd3310d80dc4402e1226419c5754653a37b55359e6904f8"
        ),
        "run_sampler": (
            "bc885f53be3ba107dfd3310d80dc4402e1226419c5754653a37b55359e6904f8"
        ),
        "sample_aggregate_run_stacked": (
            "2198237bbd801255b589c131125ed16a14c8959dfbbf813430d6741de26de954"
        ),
    },
    "olh": {
        "aggregate": (
            "2d825f8b64d2362bbc1b004d22d91907d6ca1bef02b963b8b85bae4c5698cf31"
        ),
        "sample_aggregate": (
            "b878d5a011ef8f818272ceec15f91b1a5a0adc8d60f86bacbb21846580941088"
        ),
        "round_sampler": (
            "d214902ae8eb7988c907c852e36c186e19e0476210fe84de001b39f76034cb89"
        ),
        "sample_aggregate_run": (
            "d214902ae8eb7988c907c852e36c186e19e0476210fe84de001b39f76034cb89"
        ),
        "run_sampler": (
            "d214902ae8eb7988c907c852e36c186e19e0476210fe84de001b39f76034cb89"
        ),
        "sample_aggregate_run_stacked": (
            "b1a929010e9d9ee5684f8c67b68781c7ee8a12d35e98472d4f45ea5f88dc135c"
        ),
    },
    "oue": {
        "aggregate": (
            "0990acb831b344b8effc1f80b85ab9e6aa7f120428b4a17fa9b08c658d797aa3"
        ),
        "sample_aggregate": (
            "d707709ca4e8b4e4f85b397159e35188a07b92aebefcab95c459c6c4469ae35d"
        ),
        "round_sampler": (
            "742911015a87f27080af3e30d2371aa12fd49d6f2e0db6253a10a60e9ca3ccfb"
        ),
        "sample_aggregate_run": (
            "742911015a87f27080af3e30d2371aa12fd49d6f2e0db6253a10a60e9ca3ccfb"
        ),
        "run_sampler": (
            "742911015a87f27080af3e30d2371aa12fd49d6f2e0db6253a10a60e9ca3ccfb"
        ),
        "sample_aggregate_run_stacked": (
            "f0a3877706e54931c4b07e89f9877ce04be9e6df2a3032e76609d9ef8ba67c9f"
        ),
    },
    "sue": {
        "aggregate": (
            "445af33e6a0eea5dbb3e08a57c82c37654c3e018fdfa211fbfbba35dd2f8a023"
        ),
        "sample_aggregate": (
            "6581bcdc9392db7a71083f2287a83f67efa9bb4efc37e9cabca4bfb47ff58420"
        ),
        "round_sampler": (
            "21cd5e37cbefc810308c934a39046e129b3220fe6ca9edc795f4faa79b3fd085"
        ),
        "sample_aggregate_run": (
            "21cd5e37cbefc810308c934a39046e129b3220fe6ca9edc795f4faa79b3fd085"
        ),
        "run_sampler": (
            "21cd5e37cbefc810308c934a39046e129b3220fe6ca9edc795f4faa79b3fd085"
        ),
        "sample_aggregate_run_stacked": (
            "8270b82f11cd8a6b68593fbe2b63aa9912c706046158138bb4188faba4c69ab4"
        ),
    },
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("name", ALL_ORACLES)
def test_entry_point_bitstream_is_pinned(name, entry):
    assert entry_point_digest(name, entry) == PINNED_DIGESTS[name][entry]
