"""Undirected simple graphs on dense integer vertices.

Vertices are always 0..n-1.  Adjacency is one Python set per vertex; the
symmetric-difference arithmetic used throughout the library reads it as one
int bitmask per vertex, which a graph builds once and keeps
(``Graph.neighbor_masks``).  Every generator documents its vertex layout so
downstream tests are reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from heapq import heappop, heappush

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
    the neighbour masks that ``neighbor_masks`` keeps, and with them the
    per-vertex sd floors that the greedy witness search of ``twins``
    derives from the masks and keeps in ``_floors``, so an edit made
    straight on ``adj`` would leave both stale.  Only a builder filling a
    graph it has just made, before any masks exist, writes ``adj``
    directly; such a builder may also seed ``_masks``, provided it fills
    them from the same source as ``adj`` (``hardness.build_sd_reduction``
    stamps both from one cached bubble template).
    """

    __slots__ = ("n", "adj", "_masks", "_floors")

    def __init__(self, n: int, edges=()):
        try:
            adj = [set() for _ in range(n)]
        except TypeError:
            raise ValueError(f"vertex count must be an integer, got {n!r}") from None
        if n < 0:
            raise ValueError(f"negative vertex count: {n}")
        self.n = n
        self.adj: list[set[int]] = adj
        self._masks = self._floors = None
        u = v = 0  # bound for the handler even if edges is not iterable
        try:
            for edge in edges:
                try:
                    u, v = edge
                except (TypeError, ValueError):
                    raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
                if u != v >= 0 <= u < n > v:  # distinct, both in [0, n)
                    adj[u].add(v)
                    adj[v].add(u)
                else:
                    self.add_edge(u, v)  # raises the matching error
        except TypeError:
            try:
                iter(edges)
            except TypeError:
                raise ValueError(
                    f"edges must be an iterable of vertex pairs, got {edges!r}"
                ) from None
            reject_non_integer(u, v)
            raise

    def _check(self, u: int) -> None:
        if type(u) is not int:
            reject_non_integer(u)
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._masks = self._floors = None

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if v not in self.adj[u]:
            raise ValueError(f"no edge ({u}, {v})")
        self.adj[u].remove(v)
        self.adj[v].remove(u)
        self._masks = self._floors = None

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
            self._masks = masks = tuple(bit_masks(self.adj))
        return masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def bit_masks(sets) -> list[int]:
    """One int per set of ``sets``, with bit v set iff v is in the set."""
    built = []
    for nbrs in sets:
        m = 0
        for v in nbrs:
            m |= 1 << v
        built.append(m)
    return built


def reject_non_integer(*values) -> None:
    """Raise a one-line ValueError naming the first of ``values`` that is
    not an integer; return if all are.  Callers run it only off their fast
    path: once a TypeError has been raised, or for a value whose type is
    not exactly ``int``."""
    for x in values:
        try:
            operator.index(x)
        except TypeError:
            raise ValueError(f"vertex must be an integer, got {x!r}") from None


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
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 state increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _lanes(count: int) -> tuple[int, int]:
    """(ONE, RAMP) over ``count`` 128-bit lanes, built by doubling.

    ONE = sum of 2**(128 j) and RAMP = sum of j * 2**(128 j), for j < count.
    """
    one, ramp, have = 1, 0, 1
    while have < count:
        ramp |= (ramp + have * one) << 128 * have
        one |= one << 128 * have
        have *= 2
    cut = (1 << 128 * count) - 1
    return one & cut, ramp & cut


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed.

    Pairs (u, v) with u < v are visited in lexicographic order; the pair is
    an edge iff the next splitmix64 output is < floor(p * 2**64).  The
    generator starts in state ``seed mod 2**64``.

    The state before pair k's output is ``seed + (k + 1) * GOLDEN`` mod
    2**64, so the stream needs no sequential loop: the pairs are evaluated
    n - 1 at a time, each in its own 128-bit lane of one int.  A 64-bit
    lane value times a 64-bit mixing constant fits in its lane, so each
    mixing round (shift, xor, mask, multiply, mask) acts on all lanes at
    once.  Lane j of ``ONE * (2**64 + threshold - 1) - z`` is at least
    2**64 exactly when z_j < threshold, and never negative, so byte 8 of
    each lane is the edge bit.  A chunk may span rows and holds about
    16 n bytes.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"vertex count must be an integer, got {n!r}") from None
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if n < 0:
        raise ValueError("negative vertex count")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    threshold = int(p * 2.0**64)
    g = Graph(n)
    total = n * (n - 1) // 2
    if not total:
        return g
    lanes = n - 1
    one, ramp = _lanes(lanes)
    mask = one * _M64
    step = ((lanes * _GOLDEN) & _M64) * one
    limit = one * ((1 << 64) + threshold - 1)
    state = (((seed + _GOLDEN) & _M64) * one + _GOLDEN * ramp) & mask
    width = 16 * lanes
    adj = g.adj
    u, v = 0, 1  # the next pair to place
    for k in range(0, total, lanes):
        z = ((state ^ (state >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) & mask
        hits = (limit - z).to_bytes(width, "little")[8::16]
        state = (state + step) & mask
        pos, stop = 0, min(lanes, total - k)
        while pos < stop:  # one row of pairs (u, v), (u, v + 1), ... at a time
            end = min(pos + n - v, stop)
            i = hits.find(1, pos, end)
            while i >= 0:
                w = v + i - pos
                adj[u].add(w)
                adj[w].add(u)
                i = hits.find(1, i + 1, end)
            v += end - pos
            pos = end
            if v == n:
                u += 1
                v = u + 1
    return g


def min_degree_peel(adj) -> tuple[tuple[int, ...], int]:
    """Smallest-last peel: repeatedly remove a vertex of least remaining degree.

    ``adj`` is a sequence indexed by vertex id 0..N-1 whose entry ``u`` is
    a collection of ``u``'s neighbors (symmetric, no loops, no repeats).
    Ties go to the smallest vertex id, so every step removes
    ``min(alive, key=lambda v: (deg[v], v))``.  Returns the removal order
    and the largest degree a vertex had when removed, which is the
    degeneracy.

    Each degree has its own list-heap of vertex ids, filled lazily: a
    vertex whose degree drops is pushed onto its new degree's heap and its
    old entry is left behind, to be skipped as stale when popped (its
    degree no longer matches, or it is removed, -1).  Each step pops the
    least id of the lowest degree whose heap holds a current entry.  After
    removing a vertex of degree ``cur`` no alive vertex is below
    ``cur - 1``, so the next scan starts there.  O((N + M) log N) for N
    vertices and M edges, over heaps far smaller than one heap over all
    (degree, id) entries.  One id bit mask per degree would give the same
    order, but each mask operation costs O(N/64) words: on the balanced
    pair graph of ``sdlabel bench`` embed 16384 (32,767 nodes) that was
    over 40% slower than a single heap.
    """
    deg = [len(nbrs) for nbrs in adj]
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for u, d in enumerate(deg):
        buckets[d].append(u)  # ids in increasing order: already a heap
    order = []
    width = cur = 0
    for _ in deg:
        while True:
            bucket = buckets[cur]
            if not bucket:
                cur += 1
                continue
            u = heappop(bucket)
            if deg[u] == cur:
                break
        deg[u] = -1
        order.append(u)
        if cur > width:
            width = cur
        for w in adj[u]:
            dw = deg[w]
            if dw > 0:  # alive: an alive neighbor of u has degree >= 1
                deg[w] = dw - 1
                heappush(buckets[dw - 1], w)
        if cur:
            cur -= 1
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
