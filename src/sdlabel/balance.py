"""Canonical interval covers on the complete binary tree, and balancing.

Balancing (shallowising) re-expresses a clean signed tree model on the
complete binary tree of depth ceil(log2 n) + 1: every signed pair is
replaced by all pairs between the canonical covers of its endpoints'
leaf intervals, and a pair that receives both colors keeps the color of
its deepest originating pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .graph import min_degree_peel
from .model import GREEN, BLUE, SignedTreeModel, is_clean

__all__ = [
    "CompleteTree",
    "IntervalCover",
    "Orientation",
    "complete_tree",
    "interval_cover",
    "subtree_interval",
    "shallowise",
    "width_bound",
    "orient_low_outdegree",
]


class CompleteTree:
    """Full complete binary tree with n leaves numbered 1..n left to right.

    All levels are filled except possibly the last, whose leaves are
    left-aligned; the depth (nodes on a root-leaf path) is
    ceil(log2 n) + 1, with a single-leaf tree having depth 1.  Node ids
    are heap ids: internal node i < n - 1 has children 2i + 1 and 2i + 2,
    and the leaves are n - 1 .. 2n - 2.  Parents, the leaf order, leaf
    intervals and the depth are read off the Euler tour of a
    SignedTreeModel on these children, each leaf carrying its own id.
    """

    __slots__ = ("n", "children", "parent", "leaf_of_pos", "interval", "depth")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("complete tree needs at least one leaf")
        self.n = n
        self.children = tuple(
            (2 * i + 1, 2 * i + 2) if i < n - 1 else None for i in range(2 * n - 1)
        )
        tour = SignedTreeModel(
            self.children, [i if i >= n - 1 else -1 for i in range(2 * n - 1)]
        )
        self.parent = tour.parent
        self.leaf_of_pos = (0,) + tour.leaf_order()  # 1-based
        self.interval = tour.node_intervals()
        self.depth = max(tour.depth) + 1

    @property
    def n_nodes(self) -> int:
        return len(self.children)


@lru_cache(maxsize=None)
def complete_tree(n: int) -> CompleteTree:
    return CompleteTree(n)


@dataclass(frozen=True)
class IntervalCover:
    """Antichain of complete-tree nodes whose leaf sets partition an interval."""

    interval: tuple[int, int]
    nodes: tuple[int, ...]


def interval_cover(n: int, i: int, j: int) -> IntervalCover:
    """The unique minimum cover of [i, j] by rooted subtrees of the
    n-leaf complete tree; nodes in left-to-right order, at most
    2*log2(n) of them (n >= 2).

    The minimum cover consists exactly of the maximal nodes whose leaf
    interval fits inside [i, j].
    """
    if not 1 <= i <= j <= n:
        raise ValueError(f"bad interval [{i}, {j}] for n={n}")
    tree = complete_tree(n)
    out: list[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        lo, hi = tree.interval[node]
        if i <= lo and hi <= j:
            out.append(node)
            continue
        if hi < i or lo > j:
            continue
        l, r = tree.children[node]
        stack.append(r)
        stack.append(l)
    return IntervalCover((i, j), tuple(out))


def subtree_interval(m: SignedTreeModel, node: int) -> tuple[int, int]:
    """Leaf positions (1-based, left to right) under a node of the model."""
    if not 0 <= node < m.n_nodes:
        raise ValueError(f"node {node} out of range")
    return m.node_intervals()[node]


def width_bound(m: int) -> int:
    """Degeneracy guaranteed for any m-edge graph: max(0, ceil(sqrt(2m)) - 1)."""
    if m < 0:
        raise ValueError("negative edge count")
    if m == 0:
        return 0
    s = isqrt(2 * m)
    if s * s < 2 * m:
        s += 1
    return max(0, s - 1)


@dataclass(frozen=True)
class Orientation:
    """Pair ownership along the smallest-last peel of the pair graph.

    ``order`` is the peel order of :func:`graph.min_degree_peel`: least
    remaining degree first, ties to the smallest node id.  ``owner`` maps
    each normalized pair (a, b), a < b, to the endpoint peeled earlier, so
    a node owns exactly its degree at removal and ``max_outdegree`` is the
    pair graph's degeneracy.
    """

    owner: dict
    order: tuple[int, ...]
    max_outdegree: int


def orient_low_outdegree(nodes, pairs) -> Orientation:
    """Orient every pair towards its endpoint peeled earlier.

    ``pairs`` may repeat a pair in either orientation; both endpoints must
    be in ``nodes``, which may also hold isolated nodes.  Runs
    :func:`graph.min_degree_peel`: O((N + M) log N) for N nodes and M
    distinct pairs.
    """
    adj = {u: set() for u in nodes}
    for a, b in pairs:
        if a == b:
            raise ValueError(f"degenerate pair {(a, b)}")
        if a not in adj or b not in adj:
            raise ValueError(f"pair {(a, b)} has an endpoint outside the node set")
        adj[a].add(b)
        adj[b].add(a)
    order, width = min_degree_peel(adj)
    owner = {}
    peeled = set()
    for u in order:
        peeled.add(u)
        for w in adj[u]:
            if w not in peeled:
                owner[(u, w) if u < w else (w, u)] = u
    return Orientation(owner, order, width)


def shallowise(m: SignedTreeModel, d_sparse: int) -> SignedTreeModel:
    """Re-express a clean, d_sparse-sparse model on the complete tree.

    Each signed pair (x, y) emits every pair (a, b) with a in the cover of
    x's leaf interval and b in the cover of y's; same-color duplicates are
    merged, and a pair emitted in both colors keeps the color of its
    deepest originating pair (all origins of one emitted pair are totally
    ordered in the pair tree-order; anything else is a hard error).

    The result has depth ceil(log2 n) + 1, realizes the same graph, and
    carries at most (2n-1) * d_sparse * (2*log2 n)**2 signed pairs.
    """
    if d_sparse < 0:
        raise ValueError("sparsity bound must be non-negative")
    if not is_clean(m):
        raise ValueError("shallowise needs a clean model")
    npairs = len(m.green | m.blue)
    if npairs > d_sparse * m.n_nodes:
        raise ValueError(
            f"model has {npairs} signed pairs, more than declared "
            f"{d_sparse}-sparse allows ({d_sparse * m.n_nodes})"
        )
    n = m.n_leaves
    tree = complete_tree(n)
    intervals = m.node_intervals()

    cover_of: dict[int, tuple[int, ...]] = {}

    def cover(node: int) -> tuple[int, ...]:
        got = cover_of.get(node)
        if got is None:
            lo, hi = intervals[node]
            got = interval_cover(n, lo, hi).nodes
            cover_of[node] = got
        return got

    # best[ab] = (origin pair, color) with the deepest origin seen so far
    best: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    for (x, y), color in sorted(m.signed_pairs().items()):
        origin = (x, y)
        for a in cover(x):
            for b in cover(y):
                ab = (a, b) if a < b else (b, a)
                cur = best.get(ab)
                if cur is None:
                    best[ab] = (origin, color)
                    continue
                cur_origin, cur_color = cur
                if m.pair_leq(cur_origin, origin):
                    best[ab] = (origin, color)
                elif not m.pair_leq(origin, cur_origin):
                    raise AssertionError(
                        f"incomparable origins {cur_origin} and {origin} "
                        f"for emitted pair {ab}"
                    )
    green = {ab for ab, (_, c) in best.items() if c == GREEN}
    blue = {ab for ab, (_, c) in best.items() if c == BLUE}

    # Leaf k of the complete tree inherits the vertex of the model's k-th
    # leaf in left-to-right order.
    leaf_vertex = [-1] * tree.n_nodes
    for k, leaf in enumerate(m.leaf_order(), start=1):
        leaf_vertex[tree.leaf_of_pos[k]] = m.leaf_vertex[leaf]
    return SignedTreeModel(tree.children, leaf_vertex, green, blue)
