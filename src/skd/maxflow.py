"""Exact s-t maximum flow (Dinic's algorithm) with float capacities.

Sized for the per-class subproblems of the selection solver: up to a few
hundred nodes and about a hundred thousand arcs for a dense class of 300-500
faces. The residual network lives in numpy arrays in CSR order (arcs grouped
by tail). Each phase's breadth-first level pass gathers each arc at most once;
the phase's admissible arcs (residual capacity left, one level down) are then
copied into Python lists, which index faster than numpy scalars in the
augmenting-path search, and their capacities are written back when the phase
ends. No other arc is read during the phase: the reverse of an admissible arc
climbs a level, so it is never admissible in the same phase.
Augmenting along a path subtracts the exact bottleneck, so the bottleneck
arc's residual becomes exactly zero; residuals that fall within float dust of
zero after repeated augmentations are snapped to zero to keep the final
residual reachability (which defines the returned partition) clean.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Dinic"]


class Dinic:
    """Residual network of arcs ``tail[k] -> head[k]`` with ``capacity[k]``.

    Arc k has edge id 2k and its reverse arc (capacity 0) has id 2k+1. The
    arrays hold the ids stable-sorted by tail, so each node's arcs are a
    contiguous run ``start[u]:start[u + 1]`` in ascending id order; ``to`` and
    ``cap`` are the head and residual capacity at each CSR position and
    ``rev`` the position of its paired arc.
    """

    def __init__(self, n: int, tail: np.ndarray, head: np.ndarray, capacity: np.ndarray):
        capacity = np.asarray(capacity, dtype=np.float64)
        tail, head = np.asarray(tail), np.asarray(head)
        if capacity.ndim != 1 or tail.shape != capacity.shape or head.shape != capacity.shape:
            raise ValueError(
                f"tail, head and capacity must be vectors of one length, got shapes "
                f"{tail.shape}, {head.shape} and {capacity.shape}"
            )
        bad = (capacity < 0) | ~np.isfinite(capacity)
        if np.any(bad):
            raise ValueError(
                f"capacity must be finite and nonnegative, got {capacity[bad][0]}"
            )
        m = len(capacity)
        if m and (min(tail.min(), head.min()) < 0 or max(tail.max(), head.max()) >= n):
            raise ValueError(f"arc endpoints must be node ids in 0..{n - 1}")
        # ids interleaved: src[id] is the tail of arc id, src[id ^ 1] its head.
        # Each temporary is freed once used, and position, which only this
        # constructor reads, is of the smallest type that holds it.
        src = np.empty(2 * m, dtype=np.min_scalar_type(n))
        src[0::2] = tail
        src[1::2] = head
        order = np.argsort(src, kind="stable")  # radix sort on 8/16-bit keys
        self.start = np.searchsorted(src[order], np.arange(n + 1))
        self.degree = np.diff(self.start)
        position = np.empty(2 * m, dtype=np.min_scalar_type(2 * m))
        position[order] = np.arange(2 * m, dtype=position.dtype)
        self.cap = np.zeros(2 * m, dtype=np.float64)
        self.cap[position[0::2]] = capacity  # reverse arcs start empty
        order ^= 1  # now the id of each position's paired arc
        rev = position[order]
        del position
        self.rev = rev.astype(np.int64)  # intp indexes without a conversion
        del rev
        self.to = order  # each arc's head (its pair's tail), over the id buffer
        self.to[:] = src[order]

    def _bfs(self, s: int, t: int) -> np.ndarray | None:
        """CSR positions of the phase's admissible arcs; None once t is unreachable.

        An arc is admissible when it has residual capacity and leads from a
        node at hop distance d from s to one at d + 1 that is t or closer to
        s than t: the arcs that can lie on a shortest augmenting path.
        """
        admissible = np.zeros(len(self.to), dtype=bool)
        level = _hop_distances(self.degree, self.to, self.cap > 0.0, s, t, admissible)
        return admissible.nonzero()[0] if level[t] >= 0 else None

    def _augment(self, s: int, t: int, admissible: np.ndarray, total: float) -> float:
        """Push one phase's blocking flow; return ``total`` plus each path's flow.

        Depth-first over the admissible arcs with per-node arc pointers, in
        the order a recursive search restarted from s would find the paths:
        after an augmentation the search resumes below the last arc of the
        path prefix that still has residual capacity, which is where a
        restart from s would descend to.
        """
        to, cap, rev = self.to, self.cap, self.rev
        bounds = admissible.searchsorted(self.start).tolist()
        a_to = to[admissible].tolist()
        a_cap = cap[admissible].tolist()
        back = rev[admissible]
        a_back = cap[back].tolist()  # residuals of the reverse arcs
        it, end = bounds[:-1], bounds[1:]
        path: list[int] = []
        u = s
        while True:
            if u == t:
                d = min(a_cap[k] for k in path)
                for k in reversed(path):
                    a_cap[k] -= d
                    a_back[k] += d
                    if a_cap[k] <= 1e-12 * d:  # snap float dust
                        a_cap[k] = 0.0
                total += d
                for j, k in enumerate(path):
                    if not a_cap[k] > 0.0:
                        del path[j:]
                        break
                u = a_to[path[-1]] if path else s
                continue
            i, stop = it[u], end[u]
            while i < stop and not a_cap[i] > 0.0:
                i += 1
            it[u] = i
            if i < stop:
                path.append(i)
                u = a_to[i]
            elif path:  # dead end: retreat and skip the arc that led here
                path.pop()
                u = a_to[path[-1]] if path else s
                it[u] += 1
            else:
                break
        cap[admissible] = a_cap
        cap[back] = a_back
        return total

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            admissible = self._bfs(s, t)
            if admissible is None:
                return total
            total = self._augment(s, t, admissible, total)

    def side_reaching_sink(self, t: int) -> np.ndarray:
        """Boolean array: node can reach t in the residual graph.

        After max_flow this is the sink side of the minimum cut whose sink set
        is smallest (it is contained in the sink set of every minimum cut).
        """
        # walk residual arcs backwards: the arc into u from to[p] is rev[p]
        live = self.cap[self.rev] > 0.0
        return _hop_distances(self.degree, self.to, live, t) >= 0


def _hop_distances(degree: np.ndarray, head: np.ndarray, live: np.ndarray, root: int,
                   target: int | None = None,
                   admissible: np.ndarray | None = None) -> np.ndarray:
    """Breadth-first hop count from ``root`` over the live CSR arcs; -1 if unreached.

    Each depth gathers only the live arcs of that depth's nodes. The search
    stops after the depth that reaches ``target``, leaving farther nodes at
    -1. ``admissible``, if given, gets every live arc marked that leads one
    depth down, at the last depth only the arcs into ``target``.
    """
    level = np.full(len(degree), -1, dtype=np.int64)
    level[root] = 0
    frontier = level == 0
    depth = 0
    while True:
        arcs = (frontier.repeat(degree) & live).nonzero()[0]
        reached = head[arcs]
        fresh = level[reached] < 0
        if not fresh.any():
            return level
        depth += 1
        level[reached[fresh]] = depth
        last = target is not None and level[target] == depth
        if last:
            fresh &= reached == target
        if admissible is not None:
            admissible[arcs[fresh]] = True
        if last:
            return level
        frontier = level == depth
