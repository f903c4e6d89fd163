"""Conformance of the numpy kernels against loop references.

The references below are written out element by element, so they share
no code with :mod:`repro.engine.kernels_fast`; every block shape the
SoA scheduler emits must give exactly their integers and indices."""

import numpy as np
import pytest

from repro.engine import kernels_fast as kf

# (rows, n_users) shapes the SoA scheduler actually emits: singleton
# chunks, ragged tails, full truth chunks, a wide single row.
BLOCK_SHAPES = [
    (0, 7),
    (1, 1),
    (1, 50),
    (5, 33),
    (64, 20),
    (128, 300),
    (1, 2000),
    (256, 64),
]


def _block(rows, n_users, d, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, d, size=(rows, n_users), dtype=np.int64)


def reference_block_histograms(block, domain_size):
    rows, n_users = block.shape
    out = np.zeros((rows, domain_size), dtype=np.int64)
    for b in range(rows):
        for i in range(n_users):
            out[b, block[b, i]] += 1
    return out


def reference_first_exceed(dissimilarity, error):
    for i in range(dissimilarity.shape[0]):
        if dissimilarity[i] > error[i]:
            return i
    return -1


@pytest.mark.parametrize("rows,n_users", BLOCK_SHAPES)
def test_block_histograms(rows, n_users):
    d = 9
    block = _block(rows, n_users, d, seed=rows + n_users)
    got = kf.block_histograms(block, d)
    assert got.dtype == np.int64
    assert got.shape == (rows, d)
    assert np.array_equal(got, reference_block_histograms(block, d))
    # Rows sum back to the population: exact counting.
    assert np.array_equal(got.sum(axis=1), np.full(rows, n_users))


@pytest.mark.parametrize(
    "dis,err",
    [
        ([], []),
        ([1.0], [2.0]),
        ([3.0], [2.0]),
        ([0.1, 0.2, 5.0, 9.0], [1.0, 1.0, 1.0, 1.0]),
        ([0.1, np.nan, 5.0], [1.0, np.nan, np.inf]),
        ([2.0, 1.0], [np.nan, 0.5]),
        ([0.0, np.nan, 2.0, 3.0], [1.0, np.nan, np.inf, 1.0]),
    ],
)
def test_first_exceed(dis, err):
    dis = np.asarray(dis, dtype=np.float64)
    err = np.asarray(err, dtype=np.float64)
    got = kf.first_exceed(dis, err)
    assert isinstance(got, int)
    assert got == reference_first_exceed(dis, err)


def test_first_exceed_random_scans():
    rng = np.random.default_rng(11)
    for _ in range(50):
        size = int(rng.integers(0, 40))
        dis = rng.random(size)
        err = rng.random(size) + 0.4
        assert kf.first_exceed(dis, err) == reference_first_exceed(dis, err)


def test_backend_is_numpy():
    assert kf.backend() == "numpy"
