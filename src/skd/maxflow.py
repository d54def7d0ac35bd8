"""Exact s-t maximum flow (Dinic's algorithm) with float capacities.

Sized for the per-class subproblems of the selection solver: up to a few
hundred nodes and about a hundred thousand arcs for a dense class of 300-500
faces. The network arrives as arc arrays. The breadth-first passes (levels
and the final reachability) run on those arrays; the augmenting-path search
walks a CSR adjacency held in Python lists, which index faster than numpy
scalars in its loop.
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

    Arc k has edge id 2k and its reverse arc (capacity 0) has id 2k+1, so
    ``id ^ 1`` is always the paired arc. Each node's adjacency lists the ids
    leaving it in ascending order.
    """

    def __init__(self, n: int, tail: np.ndarray, head: np.ndarray, capacity: np.ndarray):
        capacity = np.asarray(capacity, dtype=np.float64)
        bad = (capacity < 0) | ~np.isfinite(capacity)
        if np.any(bad):
            raise ValueError(
                f"capacity must be finite and nonnegative, got {capacity[bad][0]}"
            )
        m = len(capacity)
        src = np.empty(2 * m, dtype=np.int64)
        src[0::2] = tail
        src[1::2] = head
        dst = np.empty(2 * m, dtype=np.int64)
        dst[0::2] = head
        dst[1::2] = tail
        cap = np.zeros(2 * m, dtype=np.float64)
        cap[0::2] = capacity
        order = np.argsort(src, kind="stable").tolist()
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=start[1:])
        start = start.tolist()
        self.n = n
        self.to: list[int] = dst.tolist()
        self.cap: list[float] = cap.tolist()
        self.adj: list[list[int]] = [order[start[u]:start[u + 1]] for u in range(n)]
        # array view of the residual network for the breadth-first passes;
        # ``_live`` mirrors ``cap > 0`` and is kept in step by each augmentation
        self._src, self._dst = src, dst
        self._live = cap > 0.0

    def _bfs(self, s: int, t: int) -> list[int] | None:
        """Level (hop distance from s over residual arcs) of every node."""
        level = _hop_distances(self.n, s, self._src, self._dst, self._live)
        return level.tolist() if level[t] >= 0 else None

    def _augmenting_paths(self, s: int, t: int, level: list[int]):
        """Yield the flow pushed along each augmenting path of one phase.

        Depth-first over the level graph with per-node arc pointers, in the
        order a recursive search restarted from s would find the paths: after
        an augmentation the search resumes below the last arc of the path
        prefix that still has residual capacity, which is where a restart from
        s would descend to.
        """
        adj, to, cap, live = self.adj, self.to, self.cap, self._live
        it = [0] * self.n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                d = min(cap[e] for e in path)
                for e in reversed(path):
                    cap[e] -= d
                    cap[e ^ 1] += d
                    if cap[e] <= 1e-12 * d:  # snap float dust
                        cap[e] = 0.0
                    live[e] = cap[e] > 0.0
                    live[e ^ 1] = True
                yield d
                for k, e in enumerate(path):
                    if not cap[e] > 0.0:
                        del path[k:]
                        break
                u = to[path[-1]] if path else s
                continue
            arcs = adj[u]
            i = it[u]
            next_level = level[u] + 1
            while i < len(arcs):
                e = arcs[i]
                if cap[e] > 0.0 and level[to[e]] == next_level:
                    break
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:  # dead end: retreat and skip the arc that led here
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                return

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            for pushed in self._augmenting_paths(s, t, level):
                total += pushed

    def side_reaching_sink(self, t: int) -> np.ndarray:
        """Boolean array: node can reach t in the residual graph.

        After max_flow this is the sink side of the minimum cut whose sink set
        is smallest (it is contained in the sink set of every minimum cut).
        """
        # walk residual arcs backwards: head -> tail
        return _hop_distances(self.n, t, self._dst, self._src, self._live) >= 0


def _hop_distances(n: int, root: int, tail: np.ndarray, head: np.ndarray,
                   live: np.ndarray) -> np.ndarray:
    """Breadth-first hop count from ``root`` over the live arcs; -1 if unreached."""
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    depth = 0
    while True:
        reached = head[frontier[tail] & live]
        reached = reached[level[reached] < 0]
        if len(reached) == 0:
            return level
        depth += 1
        level[reached] = depth
        frontier[:] = False
        frontier[reached] = True
