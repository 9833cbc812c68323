"""Exact minimum closure on small graphs, the kernel of every stochastic-dominance test.

The closure is solved as a max-flow (Dinic) with arbitrary-precision integer
capacities (Picard 1976, "Maximal closure of a graph"), so answers are exact
after scaling rational masses to a common denominator.
"""
from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if level[v] < 0 and self.cap[e] > 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, pushed: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return pushed
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            v = self.to[e]
            c = self.cap[e]
            if c > 0 and level[v] == level[u] + 1:
                got = self._dfs(v, t, min(pushed, c), level, it)
                if got:
                    self.cap[e] -= got
                    self.cap[e ^ 1] += got
                    return got
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        """Total flow pushed from s to t."""
        total = 0
        out_of_s = sum(self.cap[e] for e in self.adj[s])
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                got = self._dfs(s, t, out_of_s, level, it)
                if not got:
                    break
                total += got


def min_upper_set_sum(
    weights: list[int],
    above: list[list[int]],
    forced_in: int,
    forced_out: int,
) -> int:
    """Minimum of sum(weights[x] for x in U) over upper sets U.

    ``above[x]`` lists the immediate successors of x; U must contain every
    successor of each of its members. ``forced_in`` must belong to U and
    ``forced_out`` must not. Solved as a minimum closure via max-flow,
    with forcing edges too large to sit in any minimum cut.
    """
    n = len(weights)
    big = sum(abs(w) for w in weights) + 1
    # Choosing U to minimize sum(w) == project selection with profit -w.
    net = FlowNetwork(n + 2)
    src, snk = n, n + 1
    base = 0
    for x, w in enumerate(weights):
        p = -w
        cap_src = p if p > 0 else 0
        cap_snk = -p if p < 0 else 0
        if p > 0:
            base += p
        if x == forced_in:
            cap_src += big
        if x == forced_out:
            cap_snk += big
        if cap_src:
            net.add_edge(src, x, cap_src)
        if cap_snk:
            net.add_edge(x, snk, cap_snk)
    for x, succs in enumerate(above):
        for y in succs:
            net.add_edge(x, y, big)
    best_profit = base - net.max_flow(src, snk)
    return -best_profit
