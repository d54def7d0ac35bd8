"""Exact selection-energy minimization via s-t min-cut, a brute-force oracle,
and the lambda-sweep driver.

The energy is pairwise-submodular for lam <= 0 (the only joint cost,
lam * w_ij at alpha_i = alpha_j = 1, is nonpositive), so it reduces to a
minimum cut with nonnegative arc capacities. The reduction per face class:

  * fold lam * w_ij into the unary of the higher endpoint j
    (the standard decomposition charges B+C-A-D = -lam*w at (0, 1), and
    D-C = lam*w as a label-1 unary on j);
  * arc i->j with capacity -lam * w_ij charges the (alpha_i=0, alpha_j=1)
    configuration;
  * modified unary u' >= 0 becomes arc s->k (charged when alpha_k = 1),
    u' < 0 becomes arc k->t with capacity -u' plus a constant offset u'.

Minimum cut value + offset = minimum energy. Since no pairwise term crosses
classes, classes are solved independently and concatenated.

Tie-break: the returned mask is the canonical minimal optimum (fewest faces
selected, which for the cut is the unique smallest sink side; the brute-force
oracle additionally orders equal-count co-optima lexicographically, preferring
alpha_i = 0 at the lowest index).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import FormatError
from .maxflow import Dinic
from .selgraph import (
    SelectionGraph,
    SelectionMask,
    _block_reward,
    _check_lambda,
    _energy,
    energy,
    pairwise_reward,
)

__all__ = [
    "SweepEntry",
    "SweepResult",
    "default_lambda_grid",
    "pow2_lambda_grid",
    "minimize",
    "brute_force_minimize",
    "lambda_sweep",
    "solve_class_cut",
    "save_mask",
    "load_mask",
    "write_sweep_csv",
]

BRUTE_FORCE_CLASS_LIMIT = 20


@dataclass
class SweepEntry:
    lam: float
    selected_count: int
    optimal_energy: float
    pairwise_reward: float


@dataclass
class SweepResult:
    entries: list[SweepEntry]

    def validate(self) -> None:
        """Assert the provable parametric invariants; a violation is a bug."""
        prev = None
        for e in self.entries:
            if e.optimal_energy > 0.0:
                raise AssertionError(f"optimal energy {e.optimal_energy} > 0 at lambda {e.lam}")
            if prev is not None:
                if e.lam <= prev.lam:
                    raise AssertionError("sweep entries must be sorted by lambda ascending")
                if e.pairwise_reward > prev.pairwise_reward:
                    raise AssertionError(
                        f"pairwise reward increased: {prev.pairwise_reward} -> "
                        f"{e.pairwise_reward} at lambda {e.lam}"
                    )
                if e.optimal_energy < prev.optimal_energy:
                    raise AssertionError(
                        f"optimal energy decreased: {prev.optimal_energy} -> "
                        f"{e.optimal_energy} at lambda {e.lam}"
                    )
            prev = e


def pow2_lambda_grid(lo: float, hi: float) -> list[float]:
    """Negative powers of two -2**k in [lo, min(hi, -1)], ascending, then 0 if hi is 0.

    Raises ValueError when that range holds no power of two.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and lo < 0):
        raise ValueError(f"grid bounds must be finite with lo <= hi and lo < 0, got {lo}..{hi}")
    top = hi if hi < 0 else -1.0
    # 2**1023 is the largest finite power of two, so no finite lo overflows
    grid = [-(2.0**k) for k in range(1023, -1, -1) if lo <= -(2.0**k) <= top]
    if not grid:
        raise ValueError(f"grid {lo}..{hi} has no power of two")
    if hi == 0.0:
        grid.append(0.0)
    return grid


def default_lambda_grid() -> list[float]:
    """Powers of two from -8192 up to -1, then 0."""
    return pow2_lambda_grid(-8192.0, 0.0)


def _class_edges(graph: SelectionGraph):
    """``(ids, a, b, w)`` per nonempty class, for classes 1..C in order: the graph's
    blocks, a list or a one-shot iterator."""
    return graph.blocks


def solve_class_cut(
    unaries: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray, lam: float
) -> np.ndarray:
    """Exactly minimize one class's energy via min-cut.

    Edges are given as arrays of local face indices ``a < b`` with weights
    ``w``. Returns the canonical minimal optimal labeling as an int8 vector.
    """
    n = len(unaries)
    net = Dinic(n + 2, *_class_arcs(unaries, a, b, w, lam))
    net.max_flow(n, n + 1)
    return net.side_reaching_sink(n + 1)[:n].astype(np.int8)


def _class_arcs(
    unaries: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tail, head, capacity)`` of one class's cut network, source n and sink n + 1.

    Arcs come in a fixed order: unary arcs by face, then pairwise arcs by
    edge. Endpoints are of the smallest unsigned type that holds n + 1, and
    the temporaries are freed on return, before the network is built.
    """
    n = len(unaries)
    u_mod = np.array(unaries, dtype=np.float64)
    c = lam * w
    np.add.at(u_mod, b, c)  # unbuffered: same accumulation order as a loop
    np.negative(c, out=c)  # -lam * w exactly: negation only flips the sign
    s, t = n, n + 1
    unary = np.flatnonzero(u_mod != 0.0).astype(np.min_scalar_type(t))
    to_sink = u_mod[unary] < 0.0
    pair = c > 0.0
    return (
        np.concatenate([np.where(to_sink, unary, s), a[pair]]),
        np.concatenate([np.where(to_sink, t, unary), b[pair]]),
        np.concatenate([np.abs(u_mod[unary]), c[pair]]),
    )


def minimize(graph: SelectionGraph, lam: float) -> tuple[SelectionMask, float]:
    """Global minimum of the selection energy at ``lam`` (exact).

    Solves each class independently (valid: no pairwise term crosses classes)
    and concatenates. Deterministic; returns the canonical minimal optimum.
    One pass over the blocks checks each (as ``SelectionGraph.validate``
    does), solves its cut and adds its pairwise reward, so the energy is
    :func:`energy`'s, bit for bit. ``graph.blocks`` may therefore be a
    one-shot iterator that makes each class's block when it is reached (see
    ``streamed_selection_graph``); such a graph is good for one solve only.
    """
    _check_lambda(lam)
    alpha = np.zeros(graph.n_faces, dtype=np.int8)
    reward = 0.0
    for ids, a, b, w in graph.checked(_class_edges(graph)):
        cut = solve_class_cut(graph.unary[ids], a, b, w, lam)
        alpha[ids] = cut
        reward += _block_reward(cut, a, b, w)
    return SelectionMask(alpha), _energy(graph.unary, alpha, lam, reward)


def _brute_force_class(
    unaries: np.ndarray, edges: list[tuple[int, int, float]], lam: float
) -> np.ndarray:
    n = len(unaries)
    best_e = 0.0
    best_count = 0
    best_bits = (0,) * n  # empty labeling is always feasible with energy 0
    for assignment in itertools.product((0, 1), repeat=n):
        e = 0.0
        for k in range(n):
            if assignment[k]:
                e += unaries[k]
        for a, b, w in edges:
            if assignment[a] and assignment[b]:
                e += lam * w
        count = sum(assignment)
        if e < best_e or (
            e == best_e and (count, assignment) < (best_count, best_bits)
        ):
            best_e, best_count, best_bits = e, count, assignment
    return np.array(best_bits, dtype=np.int8)


def brute_force_minimize(graph: SelectionGraph, lam: float) -> tuple[SelectionMask, float]:
    """Reference semantics for :func:`minimize` by per-class enumeration.

    Requires every class to have at most BRUTE_FORCE_CLASS_LIMIT faces.
    """
    _check_lambda(lam)
    graph.validate()
    alpha = np.zeros(graph.n_faces, dtype=np.int8)
    for ids, a, b, w in _class_edges(graph):
        if len(ids) > BRUTE_FORCE_CLASS_LIMIT:
            raise ValueError(
                f"class {int(graph.labels[ids[0]])} has {len(ids)} faces; brute force "
                f"is limited to {BRUTE_FORCE_CLASS_LIMIT} per class"
            )
        edges = list(zip(a.tolist(), b.tolist(), w.tolist()))
        alpha[ids] = _brute_force_class(graph.unary[ids], edges, lam)
    mask = SelectionMask(alpha)
    return mask, energy(graph, mask, lam)


def lambda_sweep(graph: SelectionGraph, lambdas: list[float] | None = None) -> SweepResult:
    """Run :func:`minimize` over a lambda grid (default: pow2 -8192..-1, 0)."""
    grid = default_lambda_grid() if lambdas is None else sorted(float(v) for v in lambdas)
    for i, lam in enumerate(grid):
        _check_lambda(lam)
        if i and lam == grid[i - 1]:
            raise ValueError(f"lambda {lam!r} repeats in the grid")
    entries = []
    for lam in grid:
        mask, e = minimize(graph, lam)
        entries.append(
            SweepEntry(
                lam=lam,
                selected_count=mask.selected_count,
                optimal_energy=e,
                pairwise_reward=pairwise_reward(graph, mask),
            )
        )
    result = SweepResult(entries)
    result.validate()
    return result


# ---------------------------------------------------------------------------
# file formats

def save_mask(path: str | Path, mask: SelectionMask, lam: float) -> None:
    lines = [f"SKDMASK1 {len(mask)} {float(lam)!r}"]
    lines += [f"{i},{a}" for i, a in enumerate(mask.alpha.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_mask(path: str | Path) -> tuple[SelectionMask, float]:
    raw = Path(path).read_text(encoding="ascii").split("\n")
    while raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise FormatError("empty mask file", line=1)
    header = raw[0].split()
    if len(header) != 3 or header[0] != "SKDMASK1":
        raise FormatError("malformed header (expected 'SKDMASK1 n lambda')", line=1)
    try:
        n = int(header[1])
        lam = float(header[2])
    except ValueError:
        raise FormatError("malformed header fields", line=1) from None
    if len(raw) != 1 + n:
        raise FormatError(f"expected {n} mask rows, found {len(raw) - 1}", line=len(raw))
    alpha = np.zeros(n, dtype=np.int8)
    for k in range(n):
        lineno = k + 2
        fields = raw[lineno - 1].split(",")
        if len(fields) != 2:
            raise FormatError("expected 'id,alpha'", line=lineno)
        if fields[0] != str(k):
            raise FormatError(f"ids must be dense ascending; got {fields[0]!r}", line=lineno)
        if fields[1] not in ("0", "1"):
            raise FormatError(f"alpha must be 0 or 1, got {fields[1]!r}", line=lineno)
        alpha[k] = int(fields[1])
    return SelectionMask(alpha), lam


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    lines = ["lambda,count,energy,pairwise_reward"]
    for e in result.entries:
        lines.append(
            f"{e.lam!r},{e.selected_count},{e.optimal_energy!r},{e.pairwise_reward!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
