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

__all__ = ["MEASURES", "unit_rows", "pairwise_measure", "measure_matrix", "class_measures",
           "class_centroids"]

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


def pairwise_measure(a, b, mode: str = "cossim") -> float:
    """Nonnegative affinity between two vectors of equal dimension.

    Symmetric and invariant to positive rescaling of either argument.
    Raises ValueError on zero-norm input.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return float(measure_matrix(va[None], vb[None], mode)[0, 0])


def measure_matrix(A: np.ndarray, B: np.ndarray, mode: str = "cossim") -> np.ndarray:
    """Measure between every row of A and every row of B. Shape (nA, nB).

    The inputs are never written; the result is clipped and clamped in place.
    The two normalized operands are separate arrays even when A is B: numpy
    computes ``X @ X.T`` on one buffer as a symmetric product, whose last bits
    differ from the general product's. Raises ValueError on a zero row.
    """
    _check_measure(mode, A, B)
    if B is A:
        return _self_measure(unit_rows(A), mode)
    return _unit_measure(unit_rows(A), unit_rows(B), mode)


def class_measures(F: np.ndarray, centroids: np.ndarray, class_ids: list, mode: str = "cossim"):
    """``measure_matrix(F, centroids)`` and a generator of each class's
    ``measure_matrix(F[ids], F[ids])``, ``ids`` taken from ``class_ids`` in turn.

    Both are bit-equal to those calls, and every row of F is checked once.
    The centroid measure comes from one product over all rows, since a row
    block of it can take another BLAS kernel and round differently. Its
    normalized rows are freed on return; the generator normalizes each
    class's rows again as it reaches the class (``unit_rows`` works row by
    row, so the bits are the same), so beside F it holds one class's rows at
    a time. Raises ValueError on an unknown mode or a zero row, before
    anything is computed.
    """
    _check_measure(mode, F, centroids)
    face_cent = _unit_measure(unit_rows(F), unit_rows(centroids), mode)

    def grams():
        for ids in class_ids:
            yield _self_measure(unit_rows(F[ids]), mode)

    return face_cent, grams()


def _check_measure(mode: str, A: np.ndarray, B: np.ndarray) -> None:
    """ValueError on an unknown mode, then on a zero row of A or B."""
    if mode not in MEASURES:
        raise ValueError(f"unknown measure mode {mode!r}; expected one of {MEASURES}")
    if not (np.any(A, axis=1).all() and np.any(B, axis=1).all()):
        raise ValueError("zero-norm vector has no direction")


def _self_measure(U: np.ndarray, mode: str) -> np.ndarray:
    """``_unit_measure(U, U)`` as a general product, on a copy of U."""
    return _unit_measure(U, U.copy(), mode)


def _unit_measure(UA: np.ndarray, UB: np.ndarray, mode: str) -> np.ndarray:
    """``measure_matrix`` of rows already normalized by ``unit_rows``, unchecked."""
    cos = UA @ UB.T
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
