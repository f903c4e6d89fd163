"""Optional compiled kernels for the SoA hot loops.

The structure-of-arrays scheduler (:mod:`repro.engine.soa`) and the
chunked collector spend most of their time in three tight loops:

``block_histograms``   per-round exact histograms over a values block
                       (the shared truth/counts pass every session reads)
``debias_rows``        the oracle debias affine map applied to a block of
                       perturbed support counts
``first_exceed``       the LBD/LBA speculative-replay decision scan (first
                       round whose dissimilarity exceeds its error bound)

Each has a **pure-numpy reference implementation** — always present,
always the conformance oracle — and an optional `numba`_-compiled variant
selected at import time.  Selection is governed by the
``REPRO_FAST_KERNELS`` environment variable:

``unset`` / ``"auto"``    use numba when importable, else numpy
``"1"/"on"/"true"``       ask for numba; warn and fall back if missing
``"0"/"off"/"false"``     force the numpy reference kernels

The compiled variants are restricted to *exactness-safe* operations —
elementwise float64 arithmetic in the same evaluation order as the
reference, integer counting, and comparisons — so switching backends
never changes a single bit of any release.  Anything whose floating-point
result depends on summation order (numpy's pairwise ``.sum()``, the
dissimilarity means in LBD) deliberately stays in numpy.  The parity
suite (``tests/engine/test_kernels_fast.py``) asserts reference ==
compiled == pure-python loop on every bucket shape the scheduler emits.

No RNG ever runs inside a compiled kernel: perturbation *draws* must come
from each session's private :class:`numpy.random.Generator` to preserve
bit-identity with solo runs, so only the deterministic pre/post maps
around the draws are compiled.

.. _numba: https://numba.pydata.org/
"""

from __future__ import annotations

import os
import warnings

import numpy as np

__all__ = [
    "backend",
    "block_histograms",
    "debias_rows",
    "first_exceed",
    "LOOP_REFERENCE",
    "NUMPY_REFERENCE",
]


# ----------------------------------------------------------------------
# Pure-numpy reference implementations (the conformance oracles)
# ----------------------------------------------------------------------
def _np_block_histograms(block: np.ndarray, domain_size: int) -> np.ndarray:
    """Exact per-row histograms: ``(B, n_users)`` values -> ``(B, d)``.

    One ``bincount`` per row into the output, with no ``B * n_users``
    temporary.
    """
    block = np.asarray(block)
    out = np.empty((block.shape[0], domain_size), dtype=np.int64)
    for row, values in zip(out, block):
        row[:] = np.bincount(values, minlength=domain_size)
    return out


def _np_debias_rows(
    supports: np.ndarray, n_reports: np.ndarray, p: float, q: float
) -> np.ndarray:
    """``(supports / n - q) / (p - q)`` with per-row report counts.

    ``supports`` is ``(B, d)`` float64, ``n_reports`` is ``(B,)``.  The
    expression is the exact debias map every oracle applies after its
    perturbation draw; the elementwise evaluation order here is the
    bit-identity contract the compiled variant must reproduce.
    """
    return (supports / n_reports[:, None] - q) / (p - q)


def _np_first_exceed(dissimilarity: np.ndarray, error: np.ndarray) -> int:
    """First index with ``dissimilarity > error``, or ``-1`` if none."""
    hits = np.nonzero(dissimilarity > error)[0]
    return int(hits[0]) if hits.size else -1


# ----------------------------------------------------------------------
# Pure-python loop forms.  These double as (a) the source the numba
# backend compiles and (b) an independent reference the parity tests can
# run without numba installed.
# ----------------------------------------------------------------------
def _loop_block_histograms(block, domain_size):
    rows, n_users = block.shape
    out = np.zeros((rows, domain_size), dtype=np.int64)
    for b in range(rows):
        for i in range(n_users):
            out[b, block[b, i]] += 1
    return out


def _loop_debias_rows(supports, n_reports, p, q):
    rows, d = supports.shape
    out = np.empty((rows, d), dtype=np.float64)
    for b in range(rows):
        n = n_reports[b]
        for j in range(d):
            out[b, j] = (supports[b, j] / n - q) / (p - q)
    return out


def _loop_first_exceed(dissimilarity, error):
    for i in range(dissimilarity.shape[0]):
        if dissimilarity[i] > error[i]:
            return i
    return -1


#: name -> numpy reference, for tests and introspection.
NUMPY_REFERENCE = {
    "block_histograms": _np_block_histograms,
    "debias_rows": _np_debias_rows,
    "first_exceed": _np_first_exceed,
}

#: name -> pure-python loop form (numba's compilation source).
LOOP_REFERENCE = {
    "block_histograms": _loop_block_histograms,
    "debias_rows": _loop_debias_rows,
    "first_exceed": _loop_first_exceed,
}

_OFF = frozenset({"0", "off", "false", "no", "numpy"})
_ON = frozenset({"1", "on", "true", "yes", "numba"})


def _load_numba():
    """Compile the loop forms; returns the jitted kernel dict."""
    import numba

    jit = numba.njit(cache=True)
    nb_hist = jit(_loop_block_histograms)
    nb_debias = jit(_loop_debias_rows)
    nb_exceed = jit(_loop_first_exceed)

    def block_histograms(block, domain_size):
        block = np.ascontiguousarray(block, dtype=np.int64)
        if block.shape[0] == 0:
            return np.zeros((0, domain_size), dtype=np.int64)
        return nb_hist(block, domain_size)

    def debias_rows(supports, n_reports, p, q):
        return nb_debias(
            np.ascontiguousarray(supports, dtype=np.float64),
            np.ascontiguousarray(n_reports, dtype=np.float64),
            float(p),
            float(q),
        )

    def first_exceed(dissimilarity, error):
        return int(
            nb_exceed(
                np.ascontiguousarray(dissimilarity, dtype=np.float64),
                np.ascontiguousarray(error, dtype=np.float64),
            )
        )

    return {
        "block_histograms": block_histograms,
        "debias_rows": debias_rows,
        "first_exceed": first_exceed,
    }


def _select_backend():
    flag = os.environ.get("REPRO_FAST_KERNELS", "auto").strip().lower()
    if flag in _OFF:
        return "numpy", NUMPY_REFERENCE
    try:
        return "numba", _load_numba()
    except ImportError:
        if flag in _ON:
            warnings.warn(
                "REPRO_FAST_KERNELS requested a compiled backend but numba "
                "is not installed; using the pure-numpy reference kernels",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy", NUMPY_REFERENCE


_BACKEND_NAME, _KERNELS = _select_backend()

block_histograms = _KERNELS["block_histograms"]
debias_rows = _KERNELS["debias_rows"]
first_exceed = _KERNELS["first_exceed"]


def backend() -> str:
    """The selected backend: ``"numba"`` or ``"numpy"``."""
    return _BACKEND_NAME
