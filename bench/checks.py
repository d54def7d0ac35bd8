"""Output checks on the artifacts one benchmark run leaves in its work dir.

Each check returns a list of failure messages (empty when it passes). They
read the files the CLI wrote and recompute what they can with skd itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def flip_gains(graph, alpha: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Energy change of flipping each face alone, and a rounding scale per face.

    With s_i = sum_j alpha_j w_ij over i's neighbours, flipping alpha_i changes
    the energy by (1 - 2 alpha_i) (U_i + lam s_i).
    """
    a = alpha.astype(np.float64)
    n = graph.n_faces
    s = (np.bincount(graph.edge_i, weights=a[graph.edge_j] * graph.edge_w, minlength=n)
         + np.bincount(graph.edge_j, weights=a[graph.edge_i] * graph.edge_w, minlength=n))
    w_all = (np.bincount(graph.edge_i, weights=graph.edge_w, minlength=n)
             + np.bincount(graph.edge_j, weights=graph.edge_w, minlength=n))
    gains = (1.0 - 2.0 * a) * (graph.unary + lam * s)
    return gains, graph.unary + abs(lam) * w_all


def check_mask(set_path: Path, mask_path: Path) -> list[str]:
    """Energy <= 0 and no single flip lowers it (a necessary optimality condition)."""
    import skd

    sset = skd.load_student_set(set_path)
    graph = skd.build_selection_graph(sset, skd.class_centroids(sset))
    mask, lam = skd.load_mask(mask_path)
    failures = []
    e = skd.energy(graph, mask, lam)
    if not e <= 0.0:
        failures.append(f"{mask_path.name}: energy {e!r} > 0 at lambda {lam}")
    gains, scale = flip_gains(graph, mask.alpha, lam)
    bad = np.flatnonzero(gains < -1e-9 * scale)
    if len(bad):
        failures.append(f"{mask_path.name}: {len(bad)} single flips lower the energy "
                        f"(face {int(bad[0])} by {float(-gains[bad[0]])!r})")
    return failures


def check_sweep_csv(path: Path) -> list[str]:
    """Rows ascend in lambda, counts never rise, energies are <= 0."""
    rows = path.read_text(encoding="ascii").split("\n")[1:]
    table = [tuple(float(v) for v in r.split(",")) for r in rows if r]
    failures = []
    if not table:
        failures.append(f"{path.name}: no rows")
    for (lam0, n0, _, _), (lam1, n1, _, _) in zip(table, table[1:]):
        if not lam1 > lam0:
            failures.append(f"{path.name}: lambda {lam1} after {lam0}")
        if n1 > n0:
            failures.append(f"{path.name}: count rises {n0:g} -> {n1:g} at lambda {lam1}")
    failures += [f"{path.name}: energy {e!r} > 0 at lambda {lam}"
                 for lam, _, e, _ in table if not e <= 0.0]
    return failures


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def check_finite_json_lines(path: Path) -> list[str]:
    """Every number in a JSON (lines) file is finite, and there is at least one."""
    lines = [ln for ln in path.read_text(encoding="ascii").split("\n") if ln]
    values = [v for ln in lines for v in _numbers(json.loads(ln))]
    if not values:
        return [f"{path.name}: no values"]
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{path.name}: {len(bad)} non-finite values"] if bad else []
