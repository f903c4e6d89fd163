"""Numpy kernels for the SoA and chunked hot loops.

``block_histograms``   per-round exact histograms over a values block
                       (the shared truth/counts pass every session reads)
``first_exceed``       the LBD/LBA speculative-replay decision scan (first
                       round whose dissimilarity exceeds its error bound)
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend", "block_histograms", "first_exceed"]


def block_histograms(block: np.ndarray, domain_size: int) -> np.ndarray:
    """Exact per-row histograms: ``(B, n_users)`` values -> ``(B, d)``.

    One ``bincount`` per row into the output, with no ``B * n_users``
    temporary.
    """
    block = np.asarray(block)
    out = np.empty((block.shape[0], domain_size), dtype=np.int64)
    for row, values in zip(out, block):
        row[:] = np.bincount(values, minlength=domain_size)
    return out


def first_exceed(dissimilarity: np.ndarray, error: np.ndarray) -> int:
    """First index with ``dissimilarity > error``, or ``-1`` if none."""
    hits = np.nonzero(dissimilarity > error)[0]
    return int(hits[0]) if hits.size else -1


def backend() -> str:
    """The kernel backend recorded in bench metadata: always ``"numpy"``."""
    return "numpy"
