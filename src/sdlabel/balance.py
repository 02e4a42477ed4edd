"""Canonical interval covers on the complete binary tree, and balancing.

The complete tree uses heap ids, so the cover of a leaf interval is the
bottom-up segment-tree walk on those ids; no tree is built for it.
Balancing (shallowising) re-expresses a clean signed tree model on the
complete binary tree of depth ceil(log2 n) + 1: every signed pair is
replaced by all pairs between the canonical covers of its endpoints'
leaf intervals, and a pair that receives both colors keeps the color of
its deepest originating pair.  That tree is the cached pair-free model
:func:`complete_tree`, and every balanced model on n leaves shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .graph import min_degree_peel
from .model import GREEN, SignedTreeModel, is_clean

__all__ = [
    "Orientation",
    "complete_tree",
    "interval_cover",
    "shallowise",
    "width_bound",
    "orient_low_outdegree",
]


@lru_cache(maxsize=None)
def complete_tree(n: int) -> SignedTreeModel:
    """The pair-free complete binary tree with n leaves, cached per n.

    Every level but the last is full and the last is left-aligned, so a
    root-leaf path has at most ceil(log2 n) + 1 nodes.  Node ids are heap
    ids: internal node i < n - 1 has children 2i + 1 and 2i + 2, and the
    leaves n - 1 .. 2n - 2 each carry their own id as vertex.  Balanced
    models share this tree.
    """
    if n < 1:
        raise ValueError("complete tree needs at least one leaf")
    return SignedTreeModel(
        [(2 * i + 1, 2 * i + 2) if i < n - 1 else None for i in range(2 * n - 1)],
        [i if i >= n - 1 else -1 for i in range(2 * n - 1)],
    )


def interval_cover(n: int, i: int, j: int) -> tuple[int, ...]:
    """The unique minimum cover of [i, j] by rooted subtrees of the
    n-leaf complete tree: its maximal nodes whose leaf interval fits inside
    [i, j], as heap ids in left-to-right order, at most 2*log2(n) of them
    (n >= 2).

    The complete tree is the top of the perfect tree on p = 2**ceil(log2 n)
    leaves: positions 1..deep (deep = 2n - p) are perfect leaves 0..deep-1,
    and each later position is a shallow leaf standing for two perfect
    leaves.  The bottom-up segment-tree walk on 1-based heap ids then
    climbs from the range of perfect leaves; a shallow leaf enters as both
    halves of an even-aligned pair, so every node it emits exists.
    """
    if not 1 <= i <= j <= n:
        raise ValueError(f"bad interval [{i}, {j}] for n={n}")
    p = 1 << (n - 1).bit_length()
    deep = 2 * n - p
    lo = p + (i - 1 if i <= deep else 2 * i - deep - 2)
    hi = p + (j if j <= deep else 2 * j - deep)
    left: list[int] = []
    right: list[int] = []
    while lo < hi:
        if lo & 1:
            left.append(lo - 1)
            lo += 1
        if hi & 1:
            hi -= 1
            right.append(hi - 1)
        lo >>= 1
        hi >>= 1
    return tuple(left + right[::-1])


def _covers(m: SignedTreeModel, tree: SignedTreeModel) -> list[tuple[int, ...]]:
    """Per node of ``m``, ``interval_cover`` of its leaf interval on
    ``tree``, the complete tree on m's leaves, built from the children's
    covers.

    A leaf's cover is the complete-tree leaf at its position.  An internal
    node's cover is its left child's cover followed by its right child's,
    pushed on a stack that replaces its top two entries by their parent i
    whenever they are the siblings 2i + 1 and 2i + 2.  No two neighbours
    on the stack are siblings, and a cover with no neighbouring siblings
    is the one made of maximal nodes.  Each cover is frozen into a tuple:
    the cyclic garbage collector untracks a tuple of ints, so the covers
    of a large model are not walked by every full collection.
    """
    cover: list = [None] * m.n_nodes
    for leaf, at in zip(m.leaf_order(), tree.leaf_order()):
        cover[leaf] = (at,)
    preorder = [0] * m.n_nodes
    for node, t in enumerate(m.tin):
        preorder[t] = node
    children = m.children
    for node in reversed(preorder):  # children before their parent
        ch = children[node]
        if ch is not None:
            stack = list(cover[ch[0]])
            for x in cover[ch[1]]:
                while stack and stack[-1] & 1 and stack[-1] + 1 == x:
                    x = stack.pop() >> 1
                stack.append(x)
            cover[node] = tuple(stack)
    return cover


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
    be in ``nodes``, which may also hold isolated nodes.  The nodes are
    indexed 0..N-1 in id order, so :func:`graph.min_degree_peel` still
    breaks ties towards the smallest id: O((N + M) log N) for N nodes and
    M distinct pairs.
    """
    ids = sorted(set(nodes))
    index = {u: i for i, u in enumerate(ids)}
    adj: list[set[int]] = [set() for _ in ids]
    for a, b in pairs:
        if a == b:
            raise ValueError(f"degenerate pair {(a, b)}")
        i = index.get(a)
        j = index.get(b)
        if i is None or j is None:
            raise ValueError(f"pair {(a, b)} has an endpoint outside the node set")
        adj[i].add(j)
        adj[j].add(i)
    order, width = min_degree_peel(adj)
    rank = [0] * len(ids)
    for r, i in enumerate(order):
        rank[i] = r
    owner = {}
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            if i < j:  # ids ascend with the index, so (ids[i], ids[j]) is normalized
                owner[(ids[i], ids[j])] = ids[i] if rank[i] < rank[j] else ids[j]
    return Orientation(owner, tuple(ids[i] for i in order), width)


def shallowise(m: SignedTreeModel, d_sparse: int) -> SignedTreeModel:
    """Re-express a clean, d_sparse-sparse model on the complete tree.

    Each signed pair (x, y) emits every pair (a, b) with a in the cover of
    x's leaf interval and b in the cover of y's; same-color duplicates are
    merged, and a pair emitted in both colors keeps the color of its
    deepest originating pair (origins of one emitted pair are totally
    ordered in the pair tree-order unless two cross: ValueError).

    The result has depth ceil(log2 n) + 1, realizes the same graph, and
    carries at most (2n-1) * d_sparse * (2*log2 n)**2 signed pairs.
    A signed pair whose endpoints are comparable raises ValueError.
    """
    if d_sparse < 0:
        raise ValueError("sparsity bound must be non-negative")
    if not is_clean(m):
        raise ValueError("shallowise needs a clean model")
    npairs = len(m.green) + len(m.blue) - len(m.green & m.blue)
    if npairs > d_sparse * m.n_nodes:
        raise ValueError(
            f"model has {npairs} signed pairs, more than declared "
            f"{d_sparse}-sparse allows ({d_sparse * m.n_nodes})"
        )
    n = m.n_leaves
    tree = complete_tree(n)
    cover = _covers(m, tree)
    depth = m.depth
    signed = m.signed_pairs()
    # is_clean does not check transversality, and the covers of a pair with
    # comparable endpoints overlap, so its products would not be transversal.
    # Incomparable nodes have disjoint Euler-tour ranges [tin, tout].
    tin, tout = m.tin, m.tout
    nested = [(x, y) for x, y in signed if not (tout[x] < tin[y] or tout[y] < tin[x])]
    if nested:
        raise ValueError(f"signed pair {min(nested)} is not transversal")

    # Origins in increasing depth sum, so a strict ancestor pair (smaller
    # sum) comes first and the deepest origin of an emitted pair overwrites
    # the rest.  best[ab] is the deepest origin pair so far.
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for origin in sorted(signed, key=lambda p: (depth[p[0]] + depth[p[1]], p)):
        x, y = origin
        for a in cover[x]:
            for b in cover[y]:
                ab = (a, b) if a < b else (b, a)
                cur = best.get(ab)
                if cur is not None and not m.pair_leq(cur, origin):
                    raise ValueError(
                        f"incomparable origins {cur} and {origin} "
                        f"for emitted pair {ab}"
                    )
                best[ab] = origin
    green = []
    blue = []
    for ab, origin in best.items():
        (green if signed[origin] == GREEN else blue).append(ab)

    # Leaf k of the complete tree inherits the vertex of the model's k-th
    # leaf in left-to-right order.
    leaf_vertex = [-1] * tree.n_nodes
    for leaf, src in zip(tree.leaf_order(), m.leaf_order()):
        leaf_vertex[leaf] = m.leaf_vertex[src]
    return tree._with(tuple(leaf_vertex), green, blue)
