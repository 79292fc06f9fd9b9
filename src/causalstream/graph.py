"""Random DAG construction for stream generation.

A graph has ``d`` feature nodes plus one target node (``d + 1`` ids total,
numbered ``0 .. d``).  Root nodes have no parents and later draw their values
from parameter distributions; every non-root node computes its value from its
parents.  Exactly one non-root node is designated as the target.  Features may
sit downstream of the target, so the target is not required to be a sink.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ._codec import Serializable

__all__ = ["CausalGraph", "build_dag", "topological_order"]


@dataclass(frozen=True)
class CausalGraph(Serializable):
    """Immutable DAG over node ids ``0 .. n_nodes - 1``.

    ``parents`` maps every node to its (ascending) parent tuple; roots map to
    the empty tuple.  ``topo_order`` is the stable Kahn order (ascending id
    among simultaneously ready nodes); it is computed at construction time
    and never serialized.
    """

    n_nodes: int
    parents: dict[int, tuple[int, ...]]
    target: int
    topo_order: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 3:
            raise ValueError("graph needs at least two features plus a target")
        ids = set(range(self.n_nodes))
        if set(self.parents) != ids:
            raise ValueError("parents must cover every node id exactly once")
        for node, ps in self.parents.items():
            if len(set(ps)) != len(ps) or any(p not in ids for p in ps):
                raise ValueError(f"node {node}: invalid parent list {ps}")
            if node in ps:
                raise ValueError(f"node {node} cannot be its own parent")
        if self.target not in ids:
            raise ValueError("target must be a node id")
        if not self.parents[self.target]:
            raise ValueError("target must be a non-root node")
        # recompute the canonical order; raises on cycles
        order = topological_order(self)
        object.__setattr__(self, "topo_order", order)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.n_nodes) if not self.parents[n])

    @property
    def feature_nodes(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.n_nodes) if n != self.target)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (p, c) for c in range(self.n_nodes) for p in self.parents[c]
        )

    def is_root(self, node: int) -> bool:
        return not self.parents[node]

    def children(self, node: int) -> tuple[int, ...]:
        return tuple(c for c in range(self.n_nodes) if node in self.parents[c])

    def ancestors(self, node: int) -> tuple[int, ...]:
        seen: set[int] = set()
        stack = list(self.parents[node])
        while stack:
            p = stack.pop()
            if p not in seen:
                seen.add(p)
                stack.extend(self.parents[p])
        return tuple(sorted(seen))


def topological_order(graph: CausalGraph | dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Stable Kahn topological order, ascending node id among ready nodes.

    Accepts either a :class:`CausalGraph` (the graph constructor passes
    itself) or a bare ``parents`` mapping.  Raises ``ValueError``
    if the edges contain a cycle; construction guarantees acyclicity, so the
    check exists for graphs deserialized from config files.
    """

    parents = graph if isinstance(graph, dict) else graph.parents
    pending = {n: len(ps) for n, ps in parents.items()}
    children: dict[int, list[int]] = {n: [] for n in parents}
    for node, ps in parents.items():
        for p in ps:
            children[p].append(node)
    # a min-heap (a sorted list is one) hands out the smallest ready id first
    ready = sorted(n for n, deg in pending.items() if deg == 0)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for c in children[node]:
            pending[c] -= 1
            if pending[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(parents):
        raise ValueError("graph contains a cycle")
    return tuple(order)


def build_dag(
    d: int,
    n_roots: int,
    min_parents: int,
    max_parents: int,
    rng: np.random.Generator,
) -> CausalGraph:
    """Draw a random DAG with ``d`` feature nodes plus one target.

    Roots are a uniformly drawn id subset of size ``n_roots``.  Construction
    walks roots first, then the remaining ids ascending; each non-root draws
    its parent count uniformly from ``[min_parents, max_parents]`` (clipped to
    the number of earlier nodes) and its parents uniformly without
    replacement from the earlier nodes.  The target is drawn uniformly among
    non-root nodes.
    """

    if d < 2:
        raise ValueError("d must be at least 2")
    if not 1 <= n_roots <= d:
        raise ValueError("n_roots must satisfy 1 <= n_roots <= d")
    if not 1 <= min_parents <= max_parents:
        raise ValueError("need 1 <= min_parents <= max_parents")

    n_nodes = d + 1
    root_ids = sorted(int(i) for i in rng.choice(n_nodes, size=n_roots, replace=False))
    inner_ids = [n for n in range(n_nodes) if n not in set(root_ids)]

    parents: dict[int, tuple[int, ...]] = {r: () for r in root_ids}
    earlier = list(root_ids)
    for node in inner_ids:
        k = int(rng.integers(min_parents, max_parents + 1))
        k = min(k, len(earlier))
        chosen = rng.choice(len(earlier), size=k, replace=False)
        parents[node] = tuple(sorted(earlier[int(i)] for i in chosen))
        earlier.append(node)

    target = int(inner_ids[int(rng.integers(len(inner_ids)))])
    return CausalGraph(n_nodes=n_nodes, parents=parents, target=target)
