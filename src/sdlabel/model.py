"""Signed tree models.

A signed tree model is a full binary tree whose leaves are the graph
vertices, together with two sets of transversal node pairs: green pairs
(anti-edges) and blue pairs (biclique edges).  No two signed pairs may
cross.  Two leaves are adjacent in the realized graph iff some blue pair
sits weakly above them with no green pair strictly between it and the
leaf pair; in a clean model (every sibling pair signed) the deepest
signed pair above a leaf pair always exists and its color decides
adjacency.  :func:`deepest_pair` finds that pair from two root paths and
the pairs stored at their nodes; :func:`resolve` calls it on a model and
the label decoder on two parsed labels.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, degeneracy, reject_non_integer
from .twins import SddWitness

__all__ = [
    "SignedTreeModel",
    "ResolvedEdge",
    "validate",
    "width",
    "sparsity",
    "deepest_pair",
    "resolve",
    "realize",
    "make_clean",
    "is_clean",
    "stm_from_witness",
    "stm_from_welzl",
    "save_stm",
    "load_stm",
]

GREEN = "green"
BLUE = "blue"


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# Fields fixed by the tree alone; SignedTreeModel._with shares them.
_TREE_FIELDS = (
    "children", "parent", "root", "n_nodes", "n_leaves",
    "tin", "tout", "preorder", "depth", "_leaf_order", "_intervals",
)


class SignedTreeModel:
    """Full binary tree plus green/blue transversal pair sets.

    ``children[i]`` is a (left, right) tuple for internal nodes and None
    for leaves; ``leaf_vertex[i]`` is the graph vertex of leaf i and -1 for
    internal nodes.  The constructor checks outside input and derives the
    tree structure; semantic conditions (leaf bijection, transversality,
    non-crossing, disjoint colors) are reported by :func:`validate`.  Models
    derived by :func:`make_clean` and :func:`balance.shallowise` share the
    tree of the model they come from.
    """

    __slots__ = _TREE_FIELDS + (
        "leaf_vertex", "green", "blue", "_paths", "_incident", "_vertex_leaf"
    )

    def __init__(self, children, leaf_vertex, green=(), blue=()):
        children = tuple(tuple(c) if c is not None else None for c in children)
        leaf_vertex = tuple(leaf_vertex)
        n_nodes = len(children)
        if n_nodes == 0 or len(leaf_vertex) != n_nodes:
            raise ValueError("children and leaf_vertex must be non-empty and aligned")
        parent = [-1] * n_nodes
        for i, ch in enumerate(children):
            if ch is None:
                if leaf_vertex[i] < 0:
                    raise ValueError(f"leaf node {i} has no vertex")
                continue
            if leaf_vertex[i] != -1:
                raise ValueError(f"internal node {i} carries a leaf vertex")
            if len(ch) != 2 or ch[0] == ch[1]:
                raise ValueError(f"node {i} must have exactly two distinct children")
            for c in ch:
                if not 0 <= c < n_nodes:
                    raise ValueError(f"child {c} of node {i} out of range")
                if parent[c] != -1:
                    raise ValueError(f"node {c} has two parents")
                parent[c] = i
        roots = [i for i in range(n_nodes) if parent[i] == -1]
        if len(roots) != 1:
            raise ValueError(f"expected one root, found {len(roots)}")
        self.children = children
        self.leaf_vertex = leaf_vertex
        self.parent = tuple(parent)
        self.root = roots[0]
        self.n_nodes = n_nodes
        self.n_leaves = sum(1 for c in children if c is None)

        # Euler tour (left child first): tin/tout index ranges give O(1)
        # ancestor tests, preorder[t] is the node entered at time t, and
        # the tour fixes the left-to-right leaf order.
        tin = [-1] * n_nodes
        tout = [-1] * n_nodes
        depth = [0] * n_nodes
        preorder = []
        leaf_order = []
        stack = [(self.root, 0, False)]
        while stack:
            node, dep, done = stack.pop()
            if done:
                tout[node] = len(preorder) - 1
                continue
            tin[node] = len(preorder)
            preorder.append(node)
            depth[node] = dep
            ch = children[node]
            if ch is None:
                tout[node] = tin[node]
                leaf_order.append(node)
            else:
                stack.append((node, dep, True))
                stack.append((ch[1], dep + 1, False))
                stack.append((ch[0], dep + 1, False))
        if len(preorder) != n_nodes:
            raise ValueError("tree has unreachable nodes")
        self.tin = tuple(tin)
        self.tout = tuple(tout)
        self.preorder = tuple(preorder)
        self.depth = tuple(depth)
        self._leaf_order = tuple(leaf_order)
        self._paths = None
        self._incident = None
        self._intervals = None
        self._vertex_leaf = None

        gset = set()
        bset = set()
        for dst, pairs in ((gset, green), (bset, blue)):
            for a, b in pairs:
                if not 0 <= a < n_nodes or not 0 <= b < n_nodes:
                    raise ValueError(f"signed pair ({a}, {b}) out of range")
                if a == b:
                    raise ValueError(f"signed pair ({a}, {b}) is degenerate")
                dst.add(_norm(a, b))
        self.green = frozenset(gset)
        self.blue = frozenset(bset)

    def _with(self, leaf_vertex, green, blue) -> SignedTreeModel:
        """This tree with other leaf vertices and signed pairs, unchecked:
        ``leaf_vertex`` is a tuple with -1 exactly on internal nodes, and the
        pairs are normalised, in range and non-degenerate.  Shares the tree
        fields and node intervals, and the vertex -> leaf map while
        ``leaf_vertex`` is this model's own tuple."""
        m = object.__new__(SignedTreeModel)
        for name in _TREE_FIELDS:
            setattr(m, name, getattr(self, name))
        m.leaf_vertex = leaf_vertex
        m.green = frozenset(green)
        m.blue = frozenset(blue)
        m._paths = None
        m._incident = None
        m._vertex_leaf = self._vertex_leaf if leaf_vertex is self.leaf_vertex else None
        return m

    # -- ancestor tests -------------------------------------------------

    def is_ancestor(self, a: int, b: int) -> bool:
        """Weak: a == b counts."""
        return self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a]

    def is_transversal(self, a: int, b: int) -> bool:
        return not self.is_ancestor(a, b) and not self.is_ancestor(b, a)

    def pair_leq(self, p, q) -> bool:
        """Tree order on unordered pairs: p is a weak ancestor of q."""
        a, b = p
        c, d = q
        n = self.n_nodes
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            for node in (a, b, c, d):
                self._check_node(node)
        return (self.is_ancestor(a, c) and self.is_ancestor(b, d)) or (
            self.is_ancestor(a, d) and self.is_ancestor(b, c)
        )

    # -- derived structure ----------------------------------------------

    def leaf_order(self) -> tuple[int, ...]:
        """Leaf node ids read left to right."""
        return self._leaf_order

    def vertex_leaf(self) -> dict[int, int]:
        """Graph vertex -> leaf node id (requires the leaf bijection)."""
        if self._vertex_leaf is None:
            vl = {}
            for node, v in enumerate(self.leaf_vertex):
                if v >= 0:
                    if v in vl:
                        raise ValueError(f"vertex {v} labels two leaves")
                    vl[v] = node
            self._vertex_leaf = vl
        return self._vertex_leaf

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    def root_path(self, node: int) -> tuple[int, ...]:
        self._check_node(node)
        if self._paths is None:
            self._paths = {}
        path = self._paths.get(node)
        if path is None:
            rev = []
            x = node
            while x != -1:
                rev.append(x)
                x = self.parent[x]
            path = tuple(reversed(rev))
            self._paths[node] = path
        return path

    def signed_pairs(self) -> dict[tuple[int, int], str]:
        out = {p: GREEN for p in self.green}
        for p in self.blue:
            out[p] = BLUE
        return out

    def incident(self):
        """node -> list of (other endpoint, color), deterministic order."""
        if self._incident is None:
            inc = defaultdict(list)
            for (a, b), color in sorted(self.signed_pairs().items()):
                inc[a].append((b, color))
                inc[b].append((a, color))
            self._incident = dict(inc)
        return self._incident

    def node_intervals(self) -> tuple[tuple[int, int], ...]:
        """Per node, the (lo, hi) 1-based range of leaf positions below it."""
        if self._intervals is None:
            lo = [0] * self.n_nodes
            hi = [0] * self.n_nodes
            for k, leaf in enumerate(self._leaf_order, start=1):
                lo[leaf] = hi[leaf] = k
            # Children come after their parent in preorder, and the tour
            # visits the left child first.
            for node in reversed(self.preorder):
                ch = self.children[node]
                if ch is not None:
                    lo[node] = lo[ch[0]]
                    hi[node] = hi[ch[1]]
            self._intervals = tuple(zip(lo, hi))
        return self._intervals

    def __repr__(self) -> str:
        return (
            f"SignedTreeModel(nodes={self.n_nodes}, leaves={self.n_leaves}, "
            f"green={len(self.green)}, blue={len(self.blue)})"
        )


@dataclass(frozen=True)
class ResolvedEdge:
    """The deepest signed pair weakly above a queried leaf pair."""

    pair: tuple[int, int]
    color: str


def _find_crossing(m: SignedTreeModel):
    """One crossing pair of signed pairs, or None.

    Two transversal pairs cross iff each has an endpoint strictly below an
    endpoint of the other (with all four endpoints distinct).  Walking the
    tree in preorder, a pair {b, c} crosses some {a, d} with a strictly
    above b iff d lies strictly inside the subtree of c.  The open nodes'
    pairs sit in one sorted list as (Euler time of the partner, minus that
    of the owner, pair), so one bisect finds the first partner past c,
    under the deepest owner; a node's pairs leave the list once the walk
    passes its tout.
    """
    tin, tout = m.tin, m.tout
    at_node = defaultdict(list)
    for p in sorted(m.green | m.blue):
        a, b = p
        at_node[a].append((p, b))
        at_node[b].append((p, a))
    active = []
    closing = defaultdict(list)  # tout -> the entries its node put in active
    for t, node in enumerate(m.preorder):
        for entry in closing.pop(t - 1, ()):
            del active[bisect_left(active, entry)]
        entries = at_node.get(node, ())
        for q, c in entries:
            i = bisect_left(active, (tin[c] + 1,))
            if i < len(active) and active[i][0] <= tout[c]:
                return active[i][2], q
        for p, c in entries:
            entry = (tin[c], -t, p)
            insort(active, entry)
            closing[tout[node]].append(entry)
    return None


def validate(m: SignedTreeModel) -> tuple[bool, list[str]]:
    """Check the signed-tree-model conditions; returns (ok, diagnostics).

    Fullness and tree shape are enforced at construction; this reports the
    leaf bijection, transversality of every signed pair, green/blue
    disjointness, and pairwise non-crossing.
    """
    issues = []
    vertices = sorted(v for v in m.leaf_vertex if v >= 0)
    if vertices != list(range(m.n_leaves)):
        issues.append(f"leaf vertices are not a bijection onto 0..{m.n_leaves - 1}")
    for p in sorted(m.green | m.blue):
        if not m.is_transversal(*p):
            issues.append(f"pair {p} is not transversal")
    overlap = m.green & m.blue
    for p in sorted(overlap):
        issues.append(f"pair {p} is both green and blue")
    if not issues:
        crossing = _find_crossing(m)
        if crossing is not None:
            issues.append(f"pairs {crossing[0]} and {crossing[1]} cross")
    return (not issues, issues)


def width(m: SignedTreeModel) -> int:
    """Degeneracy of the auxiliary graph on all tree nodes with the signed
    pairs as edges."""
    aux = Graph(m.n_nodes, m.green | m.blue)
    return degeneracy(aux).d


def sparsity(m: SignedTreeModel) -> Fraction:
    """|green union blue| / |tree nodes| as an exact fraction."""
    return Fraction(len(m.green | m.blue), m.n_nodes)


def _unsigned_siblings(m: SignedTreeModel) -> list[tuple[int, int]]:
    """Sibling pairs that carry no signed pair, in node order."""
    green, blue = m.green, m.blue
    out = []
    for ch in m.children:
        if ch is not None:
            a, b = ch
            p = ch if a < b else (b, a)
            if p not in green and p not in blue:
                out.append(p)
    return out


def is_clean(m: SignedTreeModel) -> bool:
    return not _unsigned_siblings(m)


def make_clean(m: SignedTreeModel) -> SignedTreeModel:
    """Add a green pair to every unsigned sibling pair.

    The realized graph is unchanged (a sibling pair is the shallowest
    possible pair above any leaf pair it covers) and the width grows by at
    most 1.
    """
    extra = _unsigned_siblings(m)
    if not extra:
        return m
    return m._with(m.leaf_vertex, m.green.union(extra), m.blue)


def deepest_pair(path_a, entries_a, path_b, entries_b, top=0):
    """The deepest signed pair joining two root paths, as (depth, pair, color).

    ``entries_x[i]`` lists the (other endpoint, color) pairs stored at
    ``path_x[i]``; a pair may be listed at one endpoint or at both.  A
    candidate joins a node on one path only to a node on the other path
    only, and its depth is the sum of the two nodes' depths.  Both paths
    may leave out the same number ``top`` of root-side nodes, so their
    first nodes sit at depth ``top``.  Returns None without a candidate.
    In a non-crossing model the candidates form a chain, so two of equal
    depth raise ValueError.
    """
    a_pos = {node: i for i, node in enumerate(path_a)}
    b_pos = {node: i for i, node in enumerate(path_b)}
    cands = {}
    for path, entries, own_pos, other_pos in (
        (path_a, entries_a, a_pos, b_pos),
        (path_b, entries_b, b_pos, a_pos),
    ):
        for i, x in enumerate(path):
            if x in other_pos:
                continue
            for y, color in entries[i]:
                j = other_pos.get(y)
                if j is not None and y not in own_pos:
                    pair = _norm(x, y)
                    cands[pair] = (i + j, pair, color)
    ranked = sorted(cands.values())
    for (d1, p1, _), (d2, p2, _) in zip(ranked, ranked[1:]):
        if d1 == d2:
            raise ValueError(f"signed pairs {p1} and {p2} tie at depth {d1 + 2 * top}")
    if not ranked:
        return None
    depth, pair, color = ranked[-1]
    return depth + 2 * top, pair, color


def resolve(m: SignedTreeModel, u: int, v: int) -> ResolvedEdge:
    """The unique deepest signed pair weakly above leaves of vertices u, v.

    Defined on clean models; raises if no signed pair covers the leaf pair
    or if two do at the same depth (crossing pairs).
    """
    for x in (u, v):
        if type(x) is not int:
            reject_non_integer(x)
        if not 0 <= x < m.n_leaves:
            raise ValueError(f"vertex {x} out of range [0, {m.n_leaves})")
    if u == v:
        raise ValueError("resolve needs distinct vertices")
    vl = m.vertex_leaf()
    pu, pv = m.root_path(vl[u]), m.root_path(vl[v])
    # The two root paths share exactly the nodes above the first one where
    # they differ, and no candidate pair touches those.
    top = 0
    while pu[top] == pv[top]:
        top += 1
    pu, pv = pu[top:], pv[top:]
    inc = m.incident()
    # incident() lists each pair at both endpoints, so u's path finds them all
    best = deepest_pair(pu, [inc.get(x, ()) for x in pu], pv, [()] * len(pv), top)
    if best is None:
        raise ValueError(f"no signed pair above ({u}, {v}); model is not clean")
    return ResolvedEdge(*best[1:])


def realize(m: SignedTreeModel) -> Graph:
    """The graph a valid model defines.

    Works on non-clean models too: leaf pairs with no signed pair above
    them are non-adjacent.  Signed pairs weakly above a fixed leaf pair
    form a chain in the pair order (non-crossing), so painting the pairs
    into one row bitset per leaf position, in increasing depth sum, leaves
    every cell with the color of its deepest covering pair.  Painting all
    pairs in a fixed order gives the same graph except on models that
    :func:`validate` rejects: here a pair with comparable endpoints covers
    no leaf pair and is skipped, and two pairs of one depth sum on a common
    cell raise ValueError, as in :func:`resolve`.
    """
    L = m.n_leaves
    span = [range(lo - 1, hi) for lo, hi in m.node_intervals()]  # leaf positions below
    mask = [((1 << len(s)) - 1) << s.start for s in span]
    # Per depth sum and endpoint x: the cells painted in every row under x,
    # and the blue ones.  Pairs at x of one depth sum have disjoint cells
    # (their other endpoints share a depth), so ties show between endpoints.
    levels = defaultdict(lambda: (defaultdict(int), defaultdict(int)))
    for pairs, blue in ((m.green, False), (m.blue, True)):
        for a, b in pairs:
            if not mask[a] & mask[b]:
                cells, blue_cells = levels[m.depth[a] + m.depth[b]]
                cells[a] |= mask[b]
                cells[b] |= mask[a]
                if blue:
                    blue_cells[a] |= mask[b]
                    blue_cells[b] |= mask[a]
    vert = [m.leaf_vertex[leaf] for leaf in m.leaf_order()]
    rows = [0] * L  # bit j of rows[i]: leaf positions i and j are adjacent
    for _, (cells, blue_cells) in sorted(levels.items()):
        painted = [0] * L
        for x, c in cells.items():
            keep, paint = ~c, blue_cells[x]
            for i in span[x]:
                if painted[i] & c:  # a tie: resolve raises, naming the two pairs
                    resolve(m, vert[i], vert[(painted[i] & c).bit_length() - 1])
                painted[i] |= c
                rows[i] = rows[i] & keep | paint
    edges = []
    for i, row in enumerate(rows):
        row >>= i + 1
        while row:
            k = row.bit_length() - 1
            edges.append((vert[i], vert[i + 1 + k]))
            row ^= 1 << k
    return Graph(L, edges)


def stm_from_witness(g: Graph, w: SddWitness) -> SignedTreeModel:
    """Clean signed tree model of width <= w.d + 1 realizing g.

    Replays the elimination order, keeping one rooted tree per surviving
    vertex.  Eliminating v with partner u signs the pair of their roots by
    adjacency, adds blue pairs from v's root to the roots of v's private
    neighbors, green pairs to the roots of u's private neighbors, and then
    merges the two trees (u's root becoming the left child).  The replay
    runs on neighbor bit masks and a mask of surviving vertices, so a
    step's private neighbors are the bits of two masks cut to the
    survivors other than u.

    The replay verifies the witness as it goes, with the checks of
    ``twins.check_witness``: n - 1 steps, each over two distinct vertices
    in range that are both alive, whose private neighbors, the sd of the
    pair among the survivors, number at most w.d.  A witness it rejects
    raises ``ValueError("witness rejected by check_witness")``.
    """
    n = g.n
    d = w.d
    if n < 1 or d < 0 or len(w.steps) != n - 1:
        raise ValueError("witness rejected by check_witness")
    children: list = [None] * n
    leaf_vertex = list(range(n))
    root_of = list(range(n))
    masks = g.neighbor_masks()
    alive = (1 << n) - 1
    green = set()
    blue = set()
    for e, p in w.steps:
        if e == p or not (0 <= e < n and 0 <= p < n and alive >> e & alive >> p & 1):
            raise ValueError("witness rejected by check_witness")
        re, rp = root_of[e], root_of[p]
        me, mp = masks[e], masks[p]
        (blue if me >> p & 1 else green).add((re, rp) if re < rp else (rp, re))
        alive ^= 1 << e
        diff = (me ^ mp) & (alive ^ (1 << p))  # p survives the step
        if diff.bit_count() > d:
            raise ValueError("witness rejected by check_witness")
        if diff:
            for dst, private in ((blue, diff & me), (green, diff & mp)):
                while private:
                    x = private.bit_length() - 1
                    private ^= 1 << x
                    rx = root_of[x]
                    dst.add((re, rx) if re < rx else (rx, re))
        children.append((rp, re))
        leaf_vertex.append(-1)
        root_of[p] = len(children) - 1
    return SignedTreeModel(children, leaf_vertex, green, blue)


def _left_comb(leaves: list[int], children: list, leaf_vertex: list):
    """Build a left binary comb over the given vertices (left to right).

    Internal nodes form a path descending through left children; every
    right child is a leaf.  Returns (comb_root, leaf_ids, parents) where
    leaf_ids[t] is the node of the t-th leaf (0-based position).
    """

    def new_node(vertex: int) -> int:
        children.append(None)
        leaf_vertex.append(vertex)
        return len(children) - 1

    def new_internal(l: int, r: int) -> int:
        children.append((l, r))
        leaf_vertex.append(-1)
        return len(children) - 1

    leaf_ids = [new_node(v) for v in leaves]
    if len(leaves) == 1:
        return leaf_ids[0], leaf_ids, [None]
    parents = [None] * len(leaves)
    cur = new_internal(leaf_ids[0], leaf_ids[1])
    parents[0] = parents[1] = cur
    for t in range(2, len(leaves)):
        cur = new_internal(cur, leaf_ids[t])
        parents[t] = cur
    return cur, leaf_ids, parents


def stm_from_welzl(
    g: Graph, part_x, part_y, order, intervals
) -> SignedTreeModel:
    """Signed tree model of a bipartite graph from a low-alternation order.

    ``order`` lists all of X before all of Y; ``intervals[x]`` lists the
    maximal intervals of order positions (inclusive, 0-based, within the Y
    block) whose union is N(x).  The tree is a root over two left binary
    combs.  An interval ending at the k-th Y-leaf contributes a blue pair
    from x's leaf to (the parent of) that leaf; an interval starting at the
    j-th Y-leaf with j >= 2 contributes a green stop pair at the sibling of
    leaf j.  Width is at most twice the maximum interval count.
    """
    xs = set(part_x)
    ys = set(part_y)
    if xs & ys or xs | ys != set(range(g.n)):
        raise ValueError("parts must partition the vertex set")
    if not xs or not ys:
        raise ValueError("both parts must be non-empty")
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    if set(order[: len(xs)]) != xs:
        raise ValueError("order must place all of X before all of Y")
    for u, v in g.edges():
        if (u in xs) == (v in xs):
            raise ValueError(f"edge ({u}, {v}) stays inside one part")

    pos = {v: k for k, v in enumerate(order)}
    y_base = len(xs)
    for x in xs:
        ivs = sorted(intervals.get(x, ()))
        covered = set()
        prev_hi = None
        for lo, hi in ivs:
            if not (y_base <= lo <= hi < g.n):
                raise ValueError(f"interval ({lo}, {hi}) of {x} outside the Y block")
            if prev_hi is not None and lo <= prev_hi + 1:
                raise ValueError(f"intervals of {x} are not maximal and disjoint")
            prev_hi = hi
            covered.update(range(lo, hi + 1))
        if covered != {pos[w] for w in g.adj[x]}:
            raise ValueError(f"intervals of {x} do not cover its neighborhood")

    children: list = []
    leaf_vertex: list = []
    x_root, _, _ = _left_comb(order[:y_base], children, leaf_vertex)
    y_root, y_leaf_ids, y_parents = _left_comb(order[y_base:], children, leaf_vertex)
    x_leaf_of = {v: node for node, v in enumerate(leaf_vertex) if v in xs}
    children.append((x_root, y_root))
    leaf_vertex.append(-1)

    def y_sibling(t: int) -> int:  # 0-based position
        if t == 0:
            return y_leaf_ids[1]
        if t == 1:
            return y_leaf_ids[0]
        return y_parents[t - 1]

    green = set()
    blue = set()
    for x in sorted(xs):
        lx = x_leaf_of[x]
        for lo, hi in sorted(intervals.get(x, ())):
            j, k = lo - y_base, hi - y_base  # 0-based Y positions
            target = y_leaf_ids[0] if k == 0 else y_parents[k]
            blue.add(_norm(lx, target))
            if j >= 1:
                green.add(_norm(lx, y_sibling(j)))
    return SignedTreeModel(children, leaf_vertex, green, blue)


def _canonical_bfs(m: SignedTreeModel) -> SignedTreeModel:
    """Renumber nodes in BFS order (left child first).

    After renumbering, each node's left child has the smaller id of the
    two, which is the convention the text format relies on.
    """
    mapping = {}
    queue = [m.root]
    while queue:
        nxt = []
        for node in queue:
            mapping[node] = len(mapping)
            ch = m.children[node]
            if ch is not None:
                nxt.extend(ch)
        queue = nxt
    children: list = [None] * m.n_nodes
    leaf_vertex = [-1] * m.n_nodes
    for old, new in mapping.items():
        ch = m.children[old]
        if ch is not None:
            children[new] = (mapping[ch[0]], mapping[ch[1]])
        leaf_vertex[new] = m.leaf_vertex[old]
    remap = lambda p: _norm(mapping[p[0]], mapping[p[1]])  # noqa: E731
    return SignedTreeModel(
        children, leaf_vertex, {remap(p) for p in m.green}, {remap(p) for p in m.blue}
    )


def save_stm(m: SignedTreeModel, complete: bool = False) -> str:
    """Serialize in the `p stm` format after canonical BFS renumbering.

    Children of a node are recovered from parent pointers by id order
    (smaller id = left child), which BFS numbering guarantees.
    """
    m = _canonical_bfs(m)
    header = f"p stm {m.n_nodes} {m.n_leaves}"
    if complete:
        header += " complete 1"
    lines = [header]
    for node in range(m.n_nodes):
        lines.append(f"t {node} {m.parent[node]} {m.leaf_vertex[node]}")
    for a, b in sorted(m.green):
        lines.append(f"g {a} {b}")
    for a, b in sorted(m.blue):
        lines.append(f"b {a} {b}")
    return "\n".join(lines) + "\n"


def load_stm(text: str) -> SignedTreeModel:
    """Parse the `p stm` format.

    Rejects, with the line number, a malformed or repeated header, a record
    before the header, a record with the wrong field count, a node, parent
    or signed-pair endpoint out of range, a degenerate signed pair, a
    repeated node, and a node or leaf count other than the header's.
    """
    n_nodes = n_leaves = None
    header_line = 0
    parent = {}
    leafv = {}
    green = []
    blue = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n_nodes is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            try:
                if parts[1] != "stm" or parts[4:] not in ([], ["complete", "1"]):
                    raise ValueError
                n_nodes, n_leaves = int(parts[2]), int(parts[3])
            except (ValueError, IndexError):
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            header_line = lineno
            continue
        if n_nodes is None:
            raise ValueError(f"line {lineno}: record before header")
        try:
            if len(parts) != {"t": 4, "g": 3, "b": 3}.get(parts[0]):
                raise ValueError
            fields = tuple(int(x) for x in parts[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed record {line!r}") from None
        if parts[0] == "t":
            node, par, lv = fields
            if not 0 <= node < n_nodes:
                raise ValueError(f"line {lineno}: node {node} out of range [0, {n_nodes})")
            if not -1 <= par < n_nodes:
                raise ValueError(f"line {lineno}: parent {par} of node {node} out of range")
            if node in parent:
                raise ValueError(f"line {lineno}: repeated node {node}")
            parent[node] = par
            leafv[node] = lv
        else:
            a, b = fields
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise ValueError(
                    f"line {lineno}: signed pair ({a}, {b}) out of range [0, {n_nodes})"
                )
            if a == b:
                raise ValueError(f"line {lineno}: signed pair ({a}, {b}) is degenerate")
            (green if parts[0] == "g" else blue).append(fields)
    if n_nodes is None:
        raise ValueError("missing `p stm` header")
    if len(parent) != n_nodes:
        raise ValueError(
            f"line {header_line}: header declares {n_nodes} nodes, found {len(parent)}"
        )
    kids = defaultdict(list)
    for node in range(n_nodes):
        if parent[node] != -1:
            kids[parent[node]].append(node)
    children: list = []
    for node in range(n_nodes):
        ch = sorted(kids.get(node, ()))
        if not ch:
            children.append(None)
        elif len(ch) == 2:
            children.append(tuple(ch))
        else:
            raise ValueError(f"node {node} has {len(ch)} children")
    if children.count(None) != n_leaves:
        raise ValueError(
            f"line {header_line}: header declares {n_leaves} leaves, "
            f"node table has {children.count(None)}"
        )
    return SignedTreeModel(children, [leafv[i] for i in range(n_nodes)], green, blue)
