"""Undirected simple graphs on dense integer vertices.

Vertices are always 0..n-1.  Adjacency is one Python set per vertex; the
symmetric-difference arithmetic used throughout the library reads it as one
int bitmask per vertex, which a graph builds once and keeps
(``Graph.neighbor_masks``).  Every generator documents its vertex layout so
downstream tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

__all__ = [
    "Graph",
    "DegeneracyCertificate",
    "gen_rook",
    "gen_shift",
    "gen_gnp",
    "degeneracy",
    "min_degree_peel",
    "induced_subgraph",
    "load_edge_list",
    "save_edge_list",
]


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    ``adj`` changes only through ``add_edge`` and ``remove_edge``: both drop
    the neighbour masks that ``neighbor_masks`` keeps, so an edit made
    straight on ``adj`` would leave them stale.
    """

    __slots__ = ("n", "adj", "_masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"negative vertex count: {n}")
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self._masks = None
        adj = self.adj
        for u, v in edges:
            if u != v >= 0 <= u < n > v:  # distinct, both in [0, n)
                adj[u].add(v)
                adj[v].add(u)
            else:
                self.add_edge(u, v)  # raises the matching error

    def _check(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._masks = None

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if v not in self.adj[u]:
            raise ValueError(f"no edge ({u}, {v})")
        self.adj[u].remove(v)
        self.adj[v].remove(u)
        self._masks = None

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self.adj[u]

    def degree(self, u: int) -> int:
        self._check(u)
        return len(self.adj[u])

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as one bitmask per vertex (bit v set iff v is a neighbor).

        Built on the first call and kept: later calls return the same tuple
        until ``add_edge`` or ``remove_edge`` drops it, so every twin scan
        on one graph shares one copy.  The tuple holds about n**2 / 8 bytes
        and lives as long as the graph.
        """
        masks = self._masks
        if masks is None:
            built = []
            for nbrs in self.adj:
                m = 0
                for v in nbrs:
                    m |= 1 << v
                built.append(m)
            self._masks = masks = tuple(built)
        return masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


@dataclass(frozen=True)
class DegeneracyCertificate:
    """Degeneracy value together with an elimination order witnessing it.

    Every vertex has at most ``d`` neighbors following it in ``order``.
    """

    d: int
    order: tuple[int, ...]


def gen_rook(a: int, b: int) -> Graph:
    """The a-by-b rook graph.

    Cell (i, j) with i in [1, a], j in [1, b] maps to vertex (i-1)*b + (j-1);
    two distinct cells are adjacent iff they share a row or a column.
    """
    if a < 1 or b < 1:
        raise ValueError("rook graph needs a, b >= 1")
    edges = []
    for i in range(a):
        for j in range(b):
            u = i * b + j
            edges.extend((u, i * b + jj) for jj in range(j + 1, b))  # same row
            edges.extend((u, ii * b + j) for ii in range(i + 1, a))  # same column
    return Graph(a * b, edges)


def gen_shift(n: int) -> Graph:
    """The shift graph on ordered pairs.

    Vertices are the pairs (i, j) with 1 <= i < j <= n, indexed in
    lexicographic order; (i, j) is adjacent to (k, l) iff j == k or i == l.
    Triangle-free for every n.
    """
    if n < 2:
        raise ValueError("shift graph needs n >= 2")
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    g = Graph(len(pairs))
    for x, (i, j) in enumerate(pairs):
        for y in range(x + 1, len(pairs)):
            k, l = pairs[y]
            if j == k or i == l:
                g.add_edge(x, y)
    return g


_M64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator; returns (new_state, output).

    Constants are the standard ones (Steele/Lea/Flood), so the stream is
    reproducible in any language from the same 64-bit seed.
    """
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed.

    Pairs (u, v) with u < v are visited in lexicographic order; the pair is
    an edge iff the next splitmix64 output is < floor(p * 2**64).
    """
    if n < 0:
        raise ValueError("negative vertex count")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    threshold = int(p * 2.0**64)
    g = Graph(n)
    state = seed & _M64
    for u in range(n):
        for v in range(u + 1, n):
            state, z = _splitmix64(state)
            if z < threshold:
                g.add_edge(u, v)
    return g


def min_degree_peel(adj) -> tuple[tuple[int, ...], int]:
    """Smallest-last peel: repeatedly remove a vertex of least remaining degree.

    ``adj`` is a sequence indexed by vertex id 0..N-1 whose entry ``u`` is
    a collection of ``u``'s neighbors (symmetric, no loops, no repeats).
    Ties go to the smallest vertex id, so every step removes
    ``min(alive, key=lambda v: (deg[v], v))``.  Returns the removal order
    and the largest degree a vertex had when removed, which is the
    degeneracy.  A lazy heap on (degree, id) keeps one current entry per
    alive vertex and skips entries made stale by later degree drops:
    O((N + M) log N) for N vertices and M edges.  Each entry packs
    (degree, id) into one int, ``degree << s | id`` with ``id < 2**s``,
    which orders exactly as the tuple and compares faster.  The loop ends
    with the N-th removal, so the stale entries still in the heap then
    (over half of all pushes on the balanced pair graphs ``encode`` peels)
    are never popped.

    A bucket peel (one id bit mask per degree, the next vertex the lowest
    set bit of the lowest non-empty bucket) gives the same order and is
    faster on a thousand vertices, but each mask operation costs O(N/64)
    words, and on the balanced pair graph of ``sdlabel bench`` embed 16384
    (32,767 nodes) it is over 40% slower than this heap.
    """
    deg = [len(nbrs) for nbrs in adj]
    s = len(deg).bit_length()
    mask = (1 << s) - 1
    heap = [(d << s) | u for u, d in enumerate(deg)]
    heapify(heap)
    order = []
    width = 0
    left = len(deg)
    while left:
        key = heappop(heap)
        u = key & mask
        d = key >> s
        if deg[u] != d:  # removed already (-1), or its degree has dropped since
            continue
        deg[u] = -1
        left -= 1
        order.append(u)
        if d > width:
            width = d
        for w in adj[u]:
            dw = deg[w]
            if dw > 0:  # alive: an alive neighbor of u has degree >= 1
                deg[w] = dw - 1
                heappush(heap, ((dw - 1) << s) | w)
    return tuple(order), width


def degeneracy(g: Graph) -> DegeneracyCertificate:
    """Min-degree peel (see :func:`min_degree_peel`); ties broken by
    smallest vertex id.

    The returned ``d`` is the exact degeneracy and ``order`` is a
    degeneracy ordering witnessing it.
    """
    if g.n < 1:
        raise ValueError("degeneracy needs at least one vertex")
    order, d = min_degree_peel(g.adj)
    return DegeneracyCertificate(d, order)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled 0..|S|-1 in id order.

    Returns (subgraph, kept) where kept[i] is the original id of new vertex i.
    """
    kept = sorted(set(vertices))
    for u in kept:
        g._check(u)
    index = {u: i for i, u in enumerate(kept)}
    edges = [
        (index[u], index[v]) for u in kept for v in g.adj[u] if u < v and v in index
    ]
    return Graph(len(kept), edges), tuple(kept)


def save_edge_list(g: Graph) -> str:
    """Serialize as the `p el` text format (header, then one `e u v` per edge)."""
    lines = [f"p el {g.n} {g.num_edges}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_edge_list(text: str) -> Graph:
    """Parse the `p el` format; rejects malformed, duplicate, or loop edges."""
    g = None
    declared = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if g is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "el":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            g = Graph(n)
        elif parts[0] == "e":
            if g is None:
                raise ValueError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed edge {line!r}") from None
            if u == v:
                raise ValueError(f"line {lineno}: self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"line {lineno}: edge must satisfy u < v")
            if (u, v) in seen:
                raise ValueError(f"line {lineno}: duplicate edge ({u}, {v})")
            for x in (u, v):
                if not 0 <= x < g.n:
                    raise ValueError(f"line {lineno}: vertex {x} out of range [0, {g.n})")
            seen.add((u, v))
            g.add_edge(u, v)
        else:
            raise ValueError(f"line {lineno}: unknown record {line!r}")
    if g is None:
        raise ValueError("missing `p el` header")
    if declared != len(seen):
        raise ValueError(f"header declares {declared} edges, found {len(seen)}")
    return g
