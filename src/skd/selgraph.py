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
from .metric import CentroidTable, measure_matrix

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

    def selected_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alpha == 1)

    @classmethod
    def zeros(cls, n: int) -> "SelectionMask":
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def ones(cls, n: int) -> "SelectionMask":
        return cls(np.ones(n, dtype=np.int8))


@dataclass
class SelectionGraph:
    """Immutable selection graph; share freely across solver invocations."""

    n_faces: int
    n_classes: int
    labels: np.ndarray          # (n,) class index 1..C per face
    unary: np.ndarray           # (n,) folded inter-class cost U_i >= 0
    edge_i: np.ndarray          # (m,) lower endpoint of each intra-class edge
    edge_j: np.ndarray          # (m,) higher endpoint, label[i] == label[j]
    edge_w: np.ndarray          # (m,) nonnegative weight w_ij
    measure: str = "cossim"

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

    def class_faces(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def validate(self) -> None:
        if not (np.all(np.isfinite(self.unary)) and np.all(self.unary >= 0.0)):
            raise ValueError("unary costs must be finite and nonnegative")
        if not (np.all(np.isfinite(self.edge_w)) and np.all(self.edge_w >= 0.0)):
            raise ValueError("edge weights must be finite and nonnegative")
        if np.any(self.edge_i >= self.edge_j):
            raise ValueError("edges must be oriented i < j")
        if np.any(self.labels[self.edge_i] != self.labels[self.edge_j]):
            raise ValueError("edges must connect faces of the same class")


def build_selection_graph(
    sset: StudentSet, centroids: CentroidTable, measure: str = "cossim"
) -> SelectionGraph:
    """Build the sparse selection graph from a set and its centroid table.

    Nonnegativity of all unary costs and edge weights (which makes the energy
    exactly minimizable for any lam <= 0) is asserted before returning.
    """
    if centroids.C != sset.C:
        raise ValueError(f"centroid table has {centroids.C} classes, set has {sset.C}")
    F = sset.features
    labels = sset.labels
    n = len(sset)

    face_cent = measure_matrix(F, centroids.centroids, measure)  # (n, C)
    own = face_cent[np.arange(n), labels - 1]
    unary = face_cent.sum(axis=1) - own

    ei: list[np.ndarray] = []
    ej: list[np.ndarray] = []
    ew: list[np.ndarray] = []
    for c in range(1, sset.C + 1):
        idx = np.flatnonzero(labels == c)
        if len(idx) < 2:
            continue
        gram = measure_matrix(F[idx], F[idx], measure)
        a, b = np.triu_indices(len(idx), k=1)
        ei.append(idx[a])
        ej.append(idx[b])
        ew.append(gram[a, b])

    if ei:
        edge_i = np.concatenate(ei)
        edge_j = np.concatenate(ej)
        edge_w = np.concatenate(ew).astype(np.float64)
    else:
        edge_i = np.zeros(0, dtype=np.int64)
        edge_j = np.zeros(0, dtype=np.int64)
        edge_w = np.zeros(0, dtype=np.float64)

    graph = SelectionGraph(
        n_faces=n,
        n_classes=sset.C,
        labels=labels,
        unary=unary.astype(np.float64),
        edge_i=edge_i.astype(np.int64),
        edge_j=edge_j.astype(np.int64),
        edge_w=edge_w,
        measure=measure,
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
    if len(mask) != graph.n_faces:
        raise ValueError(f"mask length {len(mask)} != {graph.n_faces} faces")
    a = mask.alpha.astype(np.float64)
    unary_term = float(a @ graph.unary)
    pair = float((a[graph.edge_i] * a[graph.edge_j]) @ graph.edge_w)
    return unary_term + lam * pair


def pairwise_reward(graph: SelectionGraph, mask: SelectionMask) -> float:
    """Sum of edge weights with both endpoints selected."""
    if len(mask) != graph.n_faces:
        raise ValueError(f"mask length {len(mask)} != {graph.n_faces} faces")
    a = mask.alpha.astype(np.float64)
    return float((a[graph.edge_i] * a[graph.edge_j]) @ graph.edge_w)


def dump_graph(graph: SelectionGraph, path: str | Path) -> None:
    """Debug text dump: unary rows ``i,label,U_i`` then edge rows ``i,j,w_ij``."""
    lines = [f"SKDGRAPH1 {graph.n_faces} {graph.n_classes} {graph.intra_edge_count}"]
    for i in range(graph.n_faces):
        lines.append(f"{i},{int(graph.labels[i])},{graph.unary[i]!r}")
    for i, j, w in zip(graph.edge_i, graph.edge_j, graph.edge_w):
        lines.append(f"{int(i)},{int(j)},{float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
