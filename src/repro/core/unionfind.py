"""Union-find over positions ``0..n-1`` — the one transitive-closure rule.

The smaller root always wins a union, so every root is the minimum of
its set. Callers rely on that: it fixes CMR's merged-item order, the
booster's partition labels and the Spark ``block_id`` (each component's
minimum record id).
"""
from __future__ import annotations


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def components(self) -> list[list[int]]:
        """Members of every set, ascending, sets ordered by their root."""
        comps: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            comps.setdefault(self.find(x), []).append(x)
        return list(comps.values())
