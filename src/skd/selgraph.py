"""Sparse selection graph and the binary selection energy.

Each face is a node; per-face unary cost U_i sums its affinity to every other
class's centroid (the centroid nodes carry no free variables, so those
face-to-centroid connections are folded into U_i at build time). Faces of the
same class are fully connected by edges weighted with their mutual affinity.

For a binary mask alpha and a nonpositive weight lam the energy is

    E(alpha) = sum_i alpha_i * U_i  +  lam * sum_{i<j} alpha_i alpha_j w_ij

so the unary term penalizes selecting faces that resemble other classes while
the pairwise term rewards selecting mutually similar same-class faces.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import StudentSet
from .metric import measure_matrix

__all__ = [
    "SelectionGraph",
    "SelectionMask",
    "build_selection_graph",
    "streamed_selection_graph",
    "class_blocks",
    "energy",
    "pairwise_reward",
    "dump_graph",
]


@dataclass
class SelectionMask:
    """Binary vector over faces; alpha_i = 1 keeps face i."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.int8)
        if self.alpha.ndim != 1:
            raise ValueError("mask must be a vector")
        if not np.all((self.alpha == 0) | (self.alpha == 1)):
            raise ValueError("mask entries must be binary")

    def __len__(self) -> int:
        return len(self.alpha)

    @property
    def selected_count(self) -> int:
        return int(self.alpha.sum())

    @classmethod
    def zeros(cls, n: int) -> "SelectionMask":
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def ones(cls, n: int) -> "SelectionMask":
        return cls(np.ones(n, dtype=np.int8))


@dataclass
class SelectionGraph:
    """Selection graph held as one edge block per class, as the solvers read it.

    ``blocks`` holds ``(ids, a, b, w)`` for each nonempty class, classes 1..C
    in order: ``ids`` are the class's global face ids (ascending), ``a < b``
    its edges' endpoints as local indices into ``ids``, of the smallest
    unsigned type that holds ``len(ids)``, and ``w`` their float64 weights.
    It is a list, or, for a single ``minimize``, a one-shot iterator that
    makes each block when the solve reaches it (``streamed_selection_graph``);
    everything else reads a list. It is a plain dataclass that callers may
    change after it is built, so ``minimize`` validates it again on every
    solve, each block as it arrives.
    """

    n_faces: int
    n_classes: int
    labels: np.ndarray          # (n,) class index 1..C per face
    unary: np.ndarray           # (n,) folded inter-class cost U_i >= 0
    blocks: list | Iterator     # (ids, a, b, w) per nonempty class

    @classmethod
    def from_edges(cls, n_faces: int, n_classes: int, labels, unary, edge_i, edge_j,
                   edge_w) -> "SelectionGraph":
        """A graph from flat edge arrays ``i < j``, grouped into class blocks.

        Edges keep their given order within each class. The graph is not
        validated beyond what the grouping needs.
        """
        labels, i, j = np.asarray(labels), np.asarray(edge_i), np.asarray(edge_j)
        w = np.asarray(edge_w, dtype=np.float64)
        if not len(i) == len(j) == len(w):
            raise ValueError("edge_i, edge_j and edge_w must have one length")
        if np.any(i >= j):
            raise ValueError("edges must be oriented i < j")
        if np.any(i < 0) or np.any(j >= n_faces):  # with i < j: all in range
            raise ValueError(f"edge endpoints must lie in 0..{n_faces - 1}")
        edge_class = labels[i]
        if np.any(edge_class != labels[j]):
            raise ValueError("edges must connect faces of the same class")
        blocks = []
        for c in range(1, n_classes + 1):
            ids = np.flatnonzero(labels == c)
            sel = edge_class == c
            if len(ids):
                dtype = np.min_scalar_type(len(ids))
                blocks.append((ids, np.searchsorted(ids, i[sel]).astype(dtype),
                               np.searchsorted(ids, j[sel]).astype(dtype), w[sel]))
        return cls(n_faces, n_classes, labels, unary, blocks)

    # Flat int64/int64/float64 views of every edge, block after block, built
    # on each read: the solvers never form them.
    @property
    def edge_i(self) -> np.ndarray:
        return np.concatenate([np.zeros(0, np.int64)] + [ids[a] for ids, a, _, _ in self.blocks])

    @property
    def edge_j(self) -> np.ndarray:
        return np.concatenate([np.zeros(0, np.int64)] + [ids[b] for ids, _, b, _ in self.blocks])

    @property
    def edge_w(self) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [w for *_, w in self.blocks])

    @property
    def node_count(self) -> int:
        """Faces plus one centroid node per class."""
        return self.n_faces + self.n_classes

    @property
    def intra_edge_count(self) -> int:
        return sum(len(w) for *_, w in self.blocks)

    @property
    def folded_connection_count(self) -> int:
        """Face-to-centroid connections absorbed into the unary costs."""
        return self.n_faces * (self.n_classes - 1)

    def validate(self) -> None:
        for _ in self.checked(self.blocks):
            pass

    def checked(self, blocks):
        """Yield ``blocks`` one at a time, each after it passes its checks.

        The face checks run before the first block and the coverage and class
        order check after the last, so one pass over a one-shot iterator of
        blocks validates the graph as ``validate`` does a list of them.
        """
        n = self.n_faces
        if len(self.labels) != n or len(self.unary) != n:
            raise ValueError(f"labels and unary costs need one entry per face ({n})")
        if np.any((self.labels < 1) | (self.labels > self.n_classes)):
            raise ValueError(f"labels must lie in 1..{self.n_classes}")
        if not (np.all(np.isfinite(self.unary)) and np.all(self.unary >= 0.0)):
            raise ValueError("unary costs must be finite and nonnegative")
        faces, last = 0, 0
        for block in blocks:
            ids, a, b, w = block
            if not len(a) == len(b) == len(w):
                raise ValueError("a block's a, b and w must have one length")
            if not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
                raise ValueError("edge weights must be finite and nonnegative")
            if np.any(a >= b) or (len(a) and (a.min() < 0 or b.max() >= len(ids))):
                raise ValueError("a block's edges must be local pairs a < b < len(ids)")
            if not (len(ids) and 0 <= ids[0] and ids[-1] < n and np.all(ids[:-1] < ids[1:])
                    and np.all(self.labels[ids] == self.labels[ids[0]])
                    and self.labels[ids[0]] > last):
                break
            faces, last = faces + len(ids), self.labels[ids[0]]
            yield block
        else:
            if faces == n:
                return
        raise ValueError("blocks must hold each class's faces, ascending, in class order")


def build_selection_graph(
    sset: StudentSet, centroids: np.ndarray, measure: str = "cossim"
) -> SelectionGraph:
    """Build the sparse selection graph from a set and its (C, D) class centroids.

    Nonnegativity of all unary costs and edge weights (which makes the energy
    exactly minimizable for any lam <= 0) is asserted before returning.
    """
    graph = streamed_selection_graph(sset.features, sset.labels, sset.C, centroids, measure)
    graph.blocks = list(graph.blocks)
    graph.validate()
    return graph


def streamed_selection_graph(features: np.ndarray, labels: np.ndarray, n_classes: int,
                             centroids: np.ndarray, measure: str = "cossim") -> SelectionGraph:
    """The selection graph of faces with these features and labels 1..n_classes,
    its ``blocks`` a one-shot iterator over :func:`class_blocks`.

    The unary costs come from one ``measure_matrix(features, centroids)``
    product over all rows, since a row block of it can take another BLAS
    kernel and round differently; that call also rejects an unknown measure
    or a zero row before any block is made. Each class's block is made only
    when the iterator reaches it, so the graph is good for one pass (one
    ``minimize``) and is validated by that pass.
    """
    if len(centroids) != n_classes:
        raise ValueError(f"centroids cover {len(centroids)} classes, set has {n_classes}")
    n = len(labels)
    class_ids = [np.flatnonzero(labels == c) for c in range(1, n_classes + 1)]
    face_cent = measure_matrix(features, centroids, measure)  # (n, C)
    unary = face_cent.sum(axis=1) - face_cent[np.arange(n), labels - 1]
    return SelectionGraph(n, n_classes, labels, unary, class_blocks(features, class_ids, measure))


def class_blocks(features: np.ndarray, class_ids: list, measure: str = "cossim") -> Iterator:
    """``(ids, a, b, w)`` of each nonempty class, ``ids`` taken from ``class_ids`` in turn.

    A class's weights are ``measure_matrix(features[ids], features[ids])``,
    read through one boolean mask of its upper triangle, row by row. The
    class's rows, its measure matrix and the mask are freed before the block
    is yielded, so beside ``features`` a consumer that drops each block before
    taking the next holds one class's block at a time.
    """
    for ids in class_ids:
        if len(ids):
            rows = features[ids]
            gram = measure_matrix(rows, rows, measure)
            local = np.arange(len(ids), dtype=np.min_scalar_type(len(ids)))
            upper = local[:, None] < local
            a = np.broadcast_to(local[:, None], upper.shape)[upper]
            b = np.broadcast_to(local, upper.shape)[upper]
            w = gram[upper]
            del rows, gram, upper
            yield ids, a, b, w


def _check_lambda(lam: float) -> None:
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam > 0.0:
        raise ValueError(f"lambda must be nonpositive, got {lam}")


def energy(graph: SelectionGraph, mask: SelectionMask, lam: float) -> float:
    """Selection energy of ``mask`` at weight ``lam`` (pure, no mutation).

    The unary part is numpy's sum of the selected faces' costs.
    """
    _check_lambda(lam)
    return _energy(graph.unary, mask.alpha, lam, pairwise_reward(graph, mask))


def _energy(unary: np.ndarray, alpha: np.ndarray, lam: float, reward: float) -> float:
    """The energy of int8 mask ``alpha`` whose pairwise reward is ``reward``."""
    return float(unary[alpha.view(bool)].sum()) + lam * reward


def pairwise_reward(graph: SelectionGraph, mask: SelectionMask) -> float:
    """Sum of edge weights with both endpoints selected.

    It is defined as the class-order sum of numpy sums of each class's
    selected weights. No BLAS call is made, so the value does not depend on
    the BLAS thread count, and nothing longer than one class's edges is
    allocated.
    """
    if len(mask) != graph.n_faces:
        raise ValueError(f"mask length {len(mask)} != {graph.n_faces} faces")
    reward = 0.0
    for ids, a, b, w in graph.blocks:
        reward += _block_reward(mask.alpha[ids], a, b, w)
    return reward


def _block_reward(alpha: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """numpy's sum of one block's weights whose endpoints ``alpha`` (int8,
    the class's mask) both selects."""
    both = alpha[a]  # int8 gathers: an eighth of float64 ones
    both &= alpha[b]
    return float(w[both.view(bool)].sum())


_DUMP_EDGES = 8192  # edge rows formatted per write


def dump_graph(graph: SelectionGraph, path: str | Path) -> None:
    """Debug text dump: unary rows ``i,label,U_i`` then edge rows ``i,j,w_ij``.

    Rows are written as they are formatted, a bounded slice of edges at a
    time, so the text is never held whole.
    """
    with open(path, "w", encoding="ascii") as f:
        f.write(f"SKDGRAPH1 {graph.n_faces} {graph.n_classes} {graph.intra_edge_count}\n")
        for i, (label, u) in enumerate(zip(graph.labels.tolist(), graph.unary.tolist())):
            f.write(f"{i},{label},{u!r}\n")
        for ids, a, b, w in graph.blocks:
            for lo in range(0, len(w), _DUMP_EDGES):
                rows = slice(lo, lo + _DUMP_EDGES)
                f.write("".join(f"{i},{j},{x!r}\n" for i, j, x in zip(
                    ids[a[rows]].tolist(), ids[b[rows]].tolist(), w[rows].tolist())))
