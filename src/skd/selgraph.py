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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import StudentSet
from .metric import measure_matrix

__all__ = [
    "SelectionGraph",
    "SelectionMask",
    "build_selection_graph",
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
    """Selection graph; the solvers only read it, so one graph serves many solves.

    It is a plain dataclass that callers may change after it is built, so
    ``minimize`` validates it again on every solve.
    """

    n_faces: int
    n_classes: int
    labels: np.ndarray          # (n,) class index 1..C per face
    unary: np.ndarray           # (n,) folded inter-class cost U_i >= 0
    edge_i: np.ndarray          # (m,) lower endpoint of each intra-class edge
    edge_j: np.ndarray          # (m,) higher endpoint, label[i] == label[j]
    edge_w: np.ndarray          # (m,) nonnegative weight w_ij

    @property
    def node_count(self) -> int:
        """Faces plus one centroid node per class."""
        return self.n_faces + self.n_classes

    @property
    def intra_edge_count(self) -> int:
        return len(self.edge_w)

    @property
    def folded_connection_count(self) -> int:
        """Face-to-centroid connections absorbed into the unary costs."""
        return self.n_faces * (self.n_classes - 1)

    def validate(self) -> None:
        n = self.n_faces
        if len(self.labels) != n or len(self.unary) != n:
            raise ValueError(f"labels and unary costs need one entry per face ({n})")
        if not len(self.edge_i) == len(self.edge_j) == len(self.edge_w):
            raise ValueError("edge_i, edge_j and edge_w must have one length")
        if np.any((self.labels < 1) | (self.labels > self.n_classes)):
            raise ValueError(f"labels must lie in 1..{self.n_classes}")
        if not (np.all(np.isfinite(self.unary)) and np.all(self.unary >= 0.0)):
            raise ValueError("unary costs must be finite and nonnegative")
        if not (np.all(np.isfinite(self.edge_w)) and np.all(self.edge_w >= 0.0)):
            raise ValueError("edge weights must be finite and nonnegative")
        if np.any(self.edge_i >= self.edge_j):
            raise ValueError("edges must be oriented i < j")
        if np.any(self.edge_i < 0) or np.any(self.edge_j >= n):  # with i < j: all in range
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        # labels are in 1..C here; gathering them narrowed is several times faster
        labels = self.labels.astype(np.min_scalar_type(self.n_classes))
        if np.any(labels[self.edge_i] != labels[self.edge_j]):
            raise ValueError("edges must connect faces of the same class")


def build_selection_graph(
    sset: StudentSet, centroids: np.ndarray, measure: str = "cossim"
) -> SelectionGraph:
    """Build the sparse selection graph from a set and its (C, D) class centroids.

    Nonnegativity of all unary costs and edge weights (which makes the energy
    exactly minimizable for any lam <= 0) is asserted before returning.
    """
    if len(centroids) != sset.C:
        raise ValueError(f"centroids cover {len(centroids)} classes, set has {sset.C}")
    F = sset.features
    labels = sset.labels
    n = len(sset)

    face_cent = measure_matrix(F, centroids, measure)  # (n, C)
    own = face_cent[np.arange(n), labels - 1]
    unary = face_cent.sum(axis=1) - own

    # Each edge array is allocated once at its final length and filled in
    # place, row by row of each class's upper triangle, so no per-class index
    # or weight arrays are held beside it.
    members = [np.flatnonzero(labels == c) for c in range(1, sset.C + 1)]
    m = sum(len(idx) * (len(idx) - 1) // 2 for idx in members)
    edge_i = np.empty(m, dtype=np.int64)
    edge_j = np.empty(m, dtype=np.int64)
    edge_w = np.empty(m, dtype=np.float64)
    end = 0
    for idx in members:
        if len(idx) < 2:
            continue
        faces = F[idx]
        gram = measure_matrix(faces, faces, measure)
        for r in range(len(idx) - 1):
            row = slice(end, end + len(idx) - 1 - r)
            edge_i[row] = idx[r]
            edge_j[row] = idx[r + 1:]
            edge_w[row] = gram[r, r + 1:]
            end = row.stop
        del faces, gram  # freed before the next class's are made

    graph = SelectionGraph(
        n_faces=n,
        n_classes=sset.C,
        labels=labels,
        unary=unary.astype(np.float64, copy=False),
        edge_i=edge_i,
        edge_j=edge_j,
        edge_w=edge_w,
    )
    graph.validate()
    return graph


def _check_lambda(lam: float) -> None:
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam > 0.0:
        raise ValueError(f"lambda must be nonpositive, got {lam}")


def energy(graph: SelectionGraph, mask: SelectionMask, lam: float) -> float:
    """Selection energy of ``mask`` at weight ``lam`` (pure, no mutation)."""
    _check_lambda(lam)
    pair = pairwise_reward(graph, mask)
    return float(mask.alpha.astype(np.float64) @ graph.unary) + lam * pair


def pairwise_reward(graph: SelectionGraph, mask: SelectionMask) -> float:
    """Sum of edge weights with both endpoints selected.

    The 0/1 edge indicators are formed on the int8 mask and cast once, so the
    dot product gets the float64 operands of ``(a[edge_i] * a[edge_j]) @
    edge_w`` with ``a`` the mask as float64. That dot product is one BLAS
    call, and OpenBLAS splits one over more than 10,000 elements across its
    threads: the last bits of the reward, and of energies, of larger graphs
    follow the BLAS thread count. Minimizing masks do not depend on it.
    """
    if len(mask) != graph.n_faces:
        raise ValueError(f"mask length {len(mask)} != {graph.n_faces} faces")
    # The float64 indicator, the largest block here, is allocated before the
    # int8 gathers, so that they do not split a heap hole it could reuse.
    indicator = np.empty(len(graph.edge_w))
    both = mask.alpha[graph.edge_i]  # int8 gathers: an eighth of the float64 ones
    both &= mask.alpha[graph.edge_j]
    np.copyto(indicator, both)
    return float(indicator @ graph.edge_w)


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
        for lo in range(0, graph.intra_edge_count, _DUMP_EDGES):
            rows = slice(lo, lo + _DUMP_EDGES)
            f.write("".join(f"{i},{j},{w!r}\n" for i, j, w in zip(
                graph.edge_i[rows].tolist(), graph.edge_j[rows].tolist(),
                graph.edge_w[rows].tolist())))
