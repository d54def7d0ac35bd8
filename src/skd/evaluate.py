"""Evaluation: verification AUC, top-k identification, rank-1 retrieval."""

from __future__ import annotations

import numpy as np

from .dataset import StudentSet
from .metric import unit_rows
from .student import StudentModel, forward_trace, tap_output

__all__ = [
    "auc_score",
    "evaluate_verification",
    "evaluate_identification",
    "evaluate_retrieval",
    "make_verification_pairs",
]


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by rank statistic, ties counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    _, inverse, counts = np.unique(sorted_scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg_rank = starts + (counts + 1) / 2.0  # 1-based average rank per tie group
    ranks = np.empty(len(scores))
    ranks[order] = avg_rank[inverse]
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_verification(
    model: StudentModel,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    tap: str = "mimic",
) -> float:
    """AUC of cosine scores between length-normalized tap features of pairs.

    ``pairs`` is ``(A, B, same)``: pair i compares the input rows ``A[i]``
    and ``B[i]``, and ``same[i]`` says whether they are one identity.
    """
    A, B, same = pairs
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if A.ndim != 2 or A.shape != B.shape:
        raise ValueError(f"pair inputs must be 2-D of one shape, got {A.shape} and {B.shape}")
    if same.shape != (len(A),):
        raise ValueError(f"same has shape {same.shape}, expected ({len(A)},)")
    if len(same) == 0:
        raise ValueError("empty pair set")
    if same.all() or not same.any():
        raise ValueError("degenerate pair set: need both positive and negative pairs")
    model.require_input_dim(A.shape[1])
    fa = unit_rows(tap_output(model, A, tap))
    fb = unit_rows(tap_output(model, B, tap))
    scores = np.einsum("ij,ij->i", fa, fb)
    return auc_score(scores, same)


def evaluate_identification(model: StudentModel, sset: StudentSet) -> tuple[float, float]:
    """(top-1 error, top-5 error) over every (record, version) sample.

    Ranking is by descending logit with ties broken toward the lower class
    index (stable sort), so results are deterministic.
    """
    model.require_input_dim(sset.d_in)
    if sset.C > model.arch.class_count:
        raise ValueError(
            f"set labels reach {sset.C}, model has {model.arch.class_count} classes"
        )
    X = sset.inputs.reshape(-1, sset.d_in)
    y = np.repeat(sset.labels, sset.N)
    acts = forward_trace(model, X)
    order = np.argsort(-acts[-1], axis=1, kind="stable")
    position = np.argmax(order == (y - 1)[:, None], axis=1)
    top1_error = float(np.mean(position >= 1))
    top5_error = float(np.mean(position >= 5))
    return top1_error, top5_error


def evaluate_retrieval(model: StudentModel, sset: StudentSet, tap: str = "mimic") -> float:
    """Rank-1 accuracy of every (record, version) input against a class gallery.

    The gallery is each class's first record, as its teacher feature, in
    record-id order. Each probe's tap feature is matched to the gallery by
    cosine similarity; ties go to the gallery record with the lower id.
    """
    model.require_input_dim(sset.d_in)
    first = np.sort(np.unique(sset.labels, return_index=True)[1])
    G = unit_rows(sset.features[first])
    F = unit_rows(tap_output(model, sset.inputs.reshape(-1, sset.d_in), tap))
    if F.shape[1] != G.shape[1]:
        raise ValueError(f"tap dim {F.shape[1]} != gallery feature dim {G.shape[1]}")
    best = np.argmax(F @ G.T, axis=1)  # first max wins: lowest gallery id on ties
    return float(np.mean(sset.labels[first][best] == np.repeat(sset.labels, sset.N)))


def make_verification_pairs(
    sset: StudentSet, n_pos: int, n_neg: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded same/different pairs of degraded inputs drawn from a set.

    Returns ``(A, B, same)``: two ``(n_pos + n_neg, d_in)`` input arrays and
    a bool vector, the ``n_pos`` same-class pairs first.
    """
    if sset.C < 2:
        raise ValueError("need at least two classes for negative pairs")
    rng = np.random.default_rng(seed)
    by_class = {c: sset.class_members(c) for c in range(1, sset.C + 1)}
    multi = [c for c, ids in by_class.items() if len(ids) >= 2]
    if not multi:
        raise ValueError("need a class with at least two records for positive pairs")

    # (record a, record b, version a, version b) per pair. Both records are
    # drawn before either version: this order fixes every pair a seed gives.
    ids: list[tuple[int, int, int, int]] = []
    for _ in range(n_pos):
        c = multi[rng.integers(len(multi))]
        a, b = rng.choice(len(by_class[c]), size=2, replace=False)
        ids.append((by_class[c][a], by_class[c][b], rng.integers(sset.N), rng.integers(sset.N)))
    for _ in range(n_neg):
        ca, cb = rng.choice(sset.C, size=2, replace=False) + 1
        ra = by_class[ca][rng.integers(len(by_class[ca]))]
        rb = by_class[cb][rng.integers(len(by_class[cb]))]
        ids.append((ra, rb, rng.integers(sset.N), rng.integers(sset.N)))
    rec_a, rec_b, ver_a, ver_b = np.array(ids, dtype=np.int64).reshape(-1, 4).T
    same = np.arange(len(ids)) < n_pos
    return sset.inputs[rec_a, ver_a], sset.inputs[rec_b, ver_b], same
