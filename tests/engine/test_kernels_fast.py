"""Backend parity for the optional compiled kernels.

The pure-numpy implementations are the conformance reference; the
pure-python loop forms are exactly what numba compiles, so asserting
``numpy == loop`` on every bucket shape the scheduler emits proves the
compiled backend bit-exact wherever numba is available — and the
``importorskip`` leg re-proves it against the real jitted kernels."""

import subprocess
import sys

import numpy as np
import pytest

from repro.engine import kernels_fast as kf

# (rows, n_users/d) shapes the SoA scheduler actually emits: singleton
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
DEBIAS_SHAPES = [(0, 4), (1, 2), (7, 16), (64, 128)]


def _block(rows, n_users, d, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, d, size=(rows, n_users), dtype=np.int64)


class TestNumpyVsLoopReference:
    @pytest.mark.parametrize("rows,n_users", BLOCK_SHAPES)
    def test_block_histograms(self, rows, n_users):
        d = 9
        block = _block(rows, n_users, d, seed=rows + n_users)
        got = kf.NUMPY_REFERENCE["block_histograms"](block, d)
        want = kf.LOOP_REFERENCE["block_histograms"](block, d)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        # Columns sum back to the population: exact counting.
        if rows:
            assert np.array_equal(got.sum(axis=1), np.full(rows, n_users))

    @pytest.mark.parametrize("rows,d", DEBIAS_SHAPES)
    def test_debias_rows(self, rows, d):
        rng = np.random.default_rng(rows * 31 + d)
        supports = rng.integers(0, 500, size=(rows, d)).astype(np.float64)
        n_reports = rng.integers(1, 600, size=rows).astype(np.float64)
        p, q = 0.75, 1.0 / (1.0 + np.e)
        got = kf.NUMPY_REFERENCE["debias_rows"](supports, n_reports, p, q)
        want = kf.LOOP_REFERENCE["debias_rows"](supports, n_reports, p, q)
        # Bitwise equality, not allclose: the loop must evaluate the
        # same elementwise expression in the same order.
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "dis,err,expect",
        [
            ([], [], -1),
            ([1.0], [2.0], -1),
            ([3.0], [2.0], 0),
            ([0.1, 0.2, 5.0, 9.0], [1.0, 1.0, 1.0, 1.0], 2),
            ([0.1, np.nan, 5.0], [1.0, np.nan, np.inf], -1),
            ([2.0, 1.0], [np.nan, 0.5], 1),
        ],
    )
    def test_first_exceed(self, dis, err, expect):
        dis = np.asarray(dis, dtype=np.float64)
        err = np.asarray(err, dtype=np.float64)
        assert kf.NUMPY_REFERENCE["first_exceed"](dis, err) == expect
        assert kf.LOOP_REFERENCE["first_exceed"](dis, err) == expect


class TestBackendSelection:
    def test_active_backend_matches_references(self):
        d = 6
        block = _block(17, 40, d, seed=5)
        assert np.array_equal(
            kf.block_histograms(block, d),
            kf.NUMPY_REFERENCE["block_histograms"](block, d),
        )
        rng = np.random.default_rng(8)
        supports = rng.integers(0, 40, size=(17, d)).astype(np.float64)
        n = np.full(17, 40.0)
        assert np.array_equal(
            kf.debias_rows(supports, n, 0.6, 0.2),
            kf.NUMPY_REFERENCE["debias_rows"](supports, n, 0.6, 0.2),
        )

    def test_env_off_forces_numpy(self):
        code = (
            "import repro.engine.kernels_fast as kf; print(kf.backend())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"REPRO_FAST_KERNELS": "0", "PYTHONPATH": "src"},
            cwd=".",
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numpy"

    def test_env_on_without_numba_warns_and_falls_back(self):
        code = (
            "import warnings, repro.engine.kernels_fast as kf;"
            "print(kf.backend())"
        )
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            capture_output=True,
            text=True,
            env={"REPRO_FAST_KERNELS": "1", "PYTHONPATH": "src"},
            cwd=".",
        )
        try:
            import numba  # noqa: F401
        except ImportError:
            # No numba in this environment: the forced-on flag must warn
            # (escalated to an error here) rather than silently degrade.
            assert out.returncode != 0
            assert "RuntimeWarning" in out.stderr
        else:
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == "numba"


class TestJittedParity:
    """Real compiled-kernel parity; skipped where numba is absent."""

    @pytest.fixture(scope="class")
    def jitted(self):
        pytest.importorskip("numba")
        return kf._load_numba()

    @pytest.mark.parametrize("rows,n_users", BLOCK_SHAPES)
    def test_block_histograms(self, jitted, rows, n_users):
        d = 9
        block = _block(rows, n_users, d, seed=rows * 7 + n_users)
        assert np.array_equal(
            jitted["block_histograms"](block, d),
            kf.NUMPY_REFERENCE["block_histograms"](block, d),
        )

    @pytest.mark.parametrize("rows,d", DEBIAS_SHAPES)
    def test_debias_rows(self, jitted, rows, d):
        rng = np.random.default_rng(rows + 97 * d)
        supports = rng.integers(0, 500, size=(rows, d)).astype(np.float64)
        n_reports = rng.integers(1, 600, size=rows).astype(np.float64)
        assert np.array_equal(
            jitted["debias_rows"](supports, n_reports, 0.7, 0.1),
            kf.NUMPY_REFERENCE["debias_rows"](supports, n_reports, 0.7, 0.1),
        )

    def test_first_exceed(self, jitted):
        dis = np.array([0.0, np.nan, 2.0, 3.0])
        err = np.array([1.0, np.nan, np.inf, 1.0])
        assert jitted["first_exceed"](dis, err) == 3
