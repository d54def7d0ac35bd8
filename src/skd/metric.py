"""Row normalization, pairwise similarity measure and class centroids.

``unit_rows`` is the one row normalization behind every cosine. The default
measure is clamped cosine similarity max(0, cos) in [0, 1]: the selection
energy needs a nonnegative affinity where "high" means "alike". The alternate
``cosdist`` mode, 1 - cos in [0, 2], is kept configurable but is not the
default (it inverts the selection semantics).
"""

from __future__ import annotations

import numpy as np

from .dataset import StudentSet

__all__ = ["MEASURES", "unit_rows", "measure_matrix", "class_centroids"]

MEASURES = ("cossim", "cosdist")


def unit_rows(M) -> np.ndarray:
    """Each row of M divided by its Euclidean norm, as a new float64 array.

    A row is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1). The scaling is exact, so no square in the norm
    overflows or underflows at any magnitude, and a row whose elements and
    squares stay in the normal range keeps the bits of
    ``M / np.linalg.norm(M, axis=1, keepdims=True)``. Zero rows stay zero.
    """
    M = np.asarray(M, dtype=np.float64)
    U = np.abs(M)
    shift = -np.frexp(U.max(axis=1, initial=0.0))[1][:, None]
    # np.linalg.norm's sum of squares, formed in the result's buffer: no other full-size array.
    norms = np.sqrt(np.square(np.ldexp(M, shift, out=U), out=U).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return np.divide(np.ldexp(M, shift, out=U), norms, out=U)


def measure_matrix(A: np.ndarray, B: np.ndarray, mode: str = "cossim") -> np.ndarray:
    """Measure between every row of A and every row of B. Shape (nA, nB).

    The inputs are never written; the result is clipped and clamped in place.
    The two normalized operands are separate arrays even when A is B: numpy
    computes ``X @ X.T`` on one buffer as a symmetric product, whose last bits
    differ from the general product's. Raises ValueError on an unknown mode,
    then on a zero row of A or B.
    """
    if mode not in MEASURES:
        raise ValueError(f"unknown measure mode {mode!r}; expected one of {MEASURES}")
    if not (np.any(A, axis=1).all() and (B is A or np.any(B, axis=1).all())):
        raise ValueError("zero-norm vector has no direction")
    UA = unit_rows(A)
    cos = UA @ (UA.copy() if B is A else unit_rows(B)).T
    np.clip(cos, -1.0, 1.0, out=cos)
    if mode == "cossim":
        return np.maximum(cos, 0.0, out=cos)
    return np.subtract(1.0, cos, out=cos)


def class_centroids(sset: StudentSet) -> np.ndarray:
    """Exact arithmetic mean of teacher features per class, shape (C, D).

    Summation is sequential in record-id order, starting from 0.0, so results
    are reproducible. Raises ValueError if any class is empty.
    """
    counts = np.bincount(sset.labels - 1, minlength=sset.C)
    if np.any(counts == 0):
        empty = int(np.argmin(counts)) + 1
        raise ValueError(f"class {empty} is empty; centroid undefined")
    sums = np.empty((sset.C, sset.D), dtype=np.float64)
    # A running sum adds each class's rows one after another, as np.add.at
    # into zeros would; adding 0.0 turns a -0.0 sum into the +0.0 it gives.
    order = np.argsort(sset.labels, kind="stable")
    for c, rows in enumerate(np.split(order, np.cumsum(counts)[:-1])):
        sums[c] = np.cumsum(sset.features[rows], axis=0)[-1] + 0.0
    return sums / counts[:, None]
