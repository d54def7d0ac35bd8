"""Pairwise similarity measure and class centroids over teacher features.

The default measure is clamped cosine similarity max(0, cos) in [0, 1]: the
selection energy needs a nonnegative affinity where "high" means "alike". The
alternate ``cosdist`` mode, 1 - cos in [0, 2], is kept configurable but is not
the default (it inverts the selection semantics).
"""

from __future__ import annotations

import numpy as np

from .dataset import StudentSet

__all__ = ["MEASURES", "pairwise_measure", "measure_matrix", "class_centroids"]

MEASURES = ("cossim", "cosdist")


def _check_mode(mode: str) -> None:
    if mode not in MEASURES:
        raise ValueError(f"unknown measure mode {mode!r}; expected one of {MEASURES}")


def pairwise_measure(a, b, mode: str = "cossim") -> float:
    """Nonnegative affinity between two vectors of equal dimension.

    Symmetric and invariant to positive rescaling of either argument.
    Raises ValueError on zero-norm input.
    """
    _check_mode(mode)
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    if not np.any(va) or not np.any(vb):
        raise ValueError("zero-norm vector has no direction")
    # The cosine is scale-invariant. Dividing by the largest magnitude first
    # keeps the squares in the norms out of the subnormal range, where the
    # norm of a vector like [1e-160, 0] loses most of its digits.
    va = va / np.max(np.abs(va))
    vb = vb / np.max(np.abs(vb))
    c = float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
    c = min(1.0, max(-1.0, c))
    if mode == "cossim":
        return max(0.0, c)
    return 1.0 - c


def measure_matrix(A: np.ndarray, B: np.ndarray, mode: str = "cossim") -> np.ndarray:
    """Measure between every row of A and every row of B. Shape (nA, nB).

    The inputs are never written; the result is clipped and clamped in place.
    The two normalized operands are separate arrays even when A is B: numpy
    computes ``X @ X.T`` on one buffer as a symmetric product, whose last bits
    differ from the general product's.
    """
    _check_mode(mode)
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("zero-norm vector has no direction")
    cos = (A / na[:, None]) @ (B / nb[:, None]).T
    np.clip(cos, -1.0, 1.0, out=cos)
    if mode == "cossim":
        return np.maximum(cos, 0.0, out=cos)
    return np.subtract(1.0, cos, out=cos)


def class_centroids(sset: StudentSet) -> np.ndarray:
    """Exact arithmetic mean of teacher features per class, shape (C, D).

    Summation is sequential in record-id order (``np.add.at`` is unbuffered)
    so results are reproducible. Raises ValueError if any class is empty.
    """
    sums = np.zeros((sset.C, sset.D), dtype=np.float64)
    np.add.at(sums, sset.labels - 1, sset.features)
    counts = np.bincount(sset.labels - 1, minlength=sset.C)
    if np.any(counts == 0):
        empty = int(np.argmin(counts)) + 1
        raise ValueError(f"class {empty} is empty; centroid undefined")
    return sums / counts[:, None]
