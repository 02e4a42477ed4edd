"""Bit-exact adjacency labels for clean signed tree models.

Label layout, MSB first:

    [16b n][16b id_bits][16b width W]            -- public preamble
    [8b  h]                                       -- path length
    [h x id_bits]                                 -- path node ids, root first
    per path node, root first, that node's block:
        [ceil(log2(W+1)) bits]                    -- owned-pair count
        count x ([id_bits other endpoint][1b color, blue=1])

A label is its path ids followed by one block per path node.  A block
depends only on its node, so it is identical in every label whose path
passes through that node.  Each signed pair is stored once, owned by the
endpoint with the smaller rank in ``graph.min_degree_peel`` of the pair
graph, so per-node counts never exceed the scheme width.  ``encode``
builds each node's path ids and blocks once, as its parent's prefixes
extended by the node, and a leaf's label joins its two prefixes to the
preamble.  Two labels decode adjacency alone: the stored entries whose
endpoints fall on opposite path suffixes below the meet of the two paths
form a chain, and the deepest one's color decides.  The decoder picks it
with ``model.deepest_pair``, the same routine ``model.resolve`` uses on a
whole model.  ``decode_matrix`` rebuilds the model a label set spells and
realizes it with ``model.realize``; a label set that spells no clean model
raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balance import shallowise, width_bound
from .graph import Graph, min_degree_peel
from .model import (
    SignedTreeModel, deepest_pair, is_clean, make_clean, realize, stm_from_witness
)
from .twins import SddWitness

__all__ = [
    "AdjacencyLabel",
    "LabelStats",
    "PREAMBLE_BITS",
    "DEPTH_BITS",
    "encode",
    "decode",
    "decode_matrix",
    "label_graph",
    "label_stats",
    "layout_bound",
    "save_labels",
    "load_labels",
]

PREAMBLE_BITS = 48
DEPTH_BITS = 8


@dataclass(frozen=True)
class AdjacencyLabel:
    """A vertex label: raw bits (MSB first within bytes) plus bit length."""

    data: bytes
    nbits: int

    def hex(self) -> str:
        return self.data.hex()


class _BitReader:
    __slots__ = ("value", "nbits", "pos")

    def __init__(self, label: AdjacencyLabel):
        total = len(label.data) * 8
        if label.nbits > total:
            raise ValueError("label shorter than its declared bit length")
        self.value = int.from_bytes(label.data, "big") >> (total - label.nbits)
        self.nbits = label.nbits
        self.pos = 0

    def read(self, bits: int) -> int:
        if self.pos + bits > self.nbits:
            raise ValueError("label exhausted: read past the end")
        self.pos += bits
        return (self.value >> (self.nbits - self.pos)) & ((1 << bits) - 1)


def layout_bound(n: int, id_bits: int, width: int, h: int) -> int:
    """Worst-case label bits for the fixed layout at the given sizes."""
    cb = width.bit_length()
    return PREAMBLE_BITS + DEPTH_BITS + h * id_bits + h * cb + h * width * (id_bits + 1)


def encode(m: SignedTreeModel) -> dict[int, AdjacencyLabel]:
    """Labels for every vertex of a clean model, keyed by graph vertex.

    Each pair goes to the endpoint with the smaller rank in the min-degree
    peel of the pair graph.  Each owner's entries are folded into one int
    as the other endpoints are visited in id order, so the per-node state
    is an int and a count, which the cyclic garbage collector does not
    track, and no per-node list is sorted.  Nodes are then visited in
    preorder, and each node extends its parent's two prefixes: the path
    ids, and the blocks (owned-pair count, then its entries).  A leaf's
    label is the preamble, its path length and its two prefixes, so each
    block is built once and shared by every label whose root path passes
    through the node.

    Raises ``ValueError`` on a model that is not clean, whose leaf
    vertices are not 0..n-1 each once, or that has a pair in both colors.
    """
    if not is_clean(m):
        raise ValueError("labels require a clean model")
    n, n_nodes = m.n_leaves, m.n_nodes
    vertices = {v for v in m.leaf_vertex if v >= 0}
    if len(vertices) != n or max(vertices) >= n:
        raise ValueError(f"leaf vertices are not a bijection onto 0..{n - 1}")
    both = m.green & m.blue
    if both:
        raise ValueError(f"pair {min(both)} is both green and blue")
    depth = m.depth
    h_max = max(depth) + 1
    if h_max > (1 << DEPTH_BITS) - 1:
        raise ValueError(f"tree depth {h_max} does not fit the 8-bit path length")
    # adj[x] holds x's green partners, then, from split[x] on, its blue ones.
    adj: list = [[] for _ in range(n_nodes)]
    for a, b in m.green:
        adj[a].append(b)
        adj[b].append(a)
    split = [len(nbrs) for nbrs in adj]
    for a, b in m.blue:
        adj[a].append(b)
        adj[b].append(a)
    # Frozen: the collector untracks a tuple of ints, never a list.
    adj = [tuple(nbrs) for nbrs in adj]
    order, width = min_degree_peel(adj)
    id_bits = max(1, (n_nodes - 1).bit_length())
    for limit, value, what in (
        (1 << 16, n, "vertex count"),
        (1 << 16, id_bits, "id width"),
        (1 << 16, width, "scheme width"),
    ):
        if value >= limit:
            raise ValueError(f"{what} {value} does not fit the preamble")
    rank = [0] * n_nodes
    for r, u in enumerate(order):
        rank[u] = r
    # Per node: how many pairs it owns, and their entries (other << 1) | blue
    # folded into one int.  The other endpoints are visited in increasing
    # id order, so each owner's entries arrive sorted, in the order of its
    # pairs (a, b), a < b.
    entry_bits = id_bits + 1
    counts = [0] * n_nodes
    entries = [0] * n_nodes
    for other, nbrs in enumerate(adj):
        r, s = rank[other], split[other]
        entry = other << 1
        for i, x in enumerate(nbrs):
            if rank[x] < r:
                counts[x] += 1
                entries[x] = (entries[x] << entry_bits) | entry | (i >= s)
    cb = width.bit_length()  # ceil(log2(W+1))
    preamble = (n << 32) | (id_bits << 16) | width
    bound = [layout_bound(n, id_bits, width, h) for h in range(h_max + 1)]
    parent, leaf_vertex = m.parent, m.leaf_vertex
    preorder = [0] * n_nodes
    for node, t in enumerate(m.tin):
        preorder[t] = node
    # Per node: its root path's ids, and its blocks root first with their
    # bit count.  A parent precedes its children in preorder.
    path_ids = [0] * n_nodes
    blocks = [0] * n_nodes
    block_bits = [0] * n_nodes
    labels = {}
    for node in preorder:  # leaves come left to right
        count = counts[node]
        assert count <= width
        bits = count * entry_bits
        value = (count << bits) | entries[node]
        bits += cb
        up = parent[node]
        if up < 0:
            path_ids[node], blocks[node], block_bits[node] = node, value, bits
        else:
            path_ids[node] = (path_ids[up] << id_bits) | node
            blocks[node] = (blocks[up] << bits) | value
            block_bits[node] = block_bits[up] + bits
        v = leaf_vertex[node]
        if v < 0:
            continue
        h = depth[node] + 1
        path_bits = h * id_bits
        all_block_bits = block_bits[node]
        nbits = PREAMBLE_BITS + DEPTH_BITS + path_bits + all_block_bits
        assert nbits <= bound[h]
        acc = (preamble << DEPTH_BITS) | h
        acc = (((acc << path_bits) | path_ids[node]) << all_block_bits) | blocks[node]
        pad = (-nbits) % 8
        data = (acc << pad).to_bytes((nbits + pad) // 8, "big")
        labels[v] = AdjacencyLabel(data, nbits)
    return labels


@dataclass(frozen=True, slots=True)
class _Parsed:
    n: int
    id_bits: int
    width: int
    path: tuple[int, ...]
    entries: tuple[tuple[tuple[int, int], ...], ...]  # per path node
    nbits: int  # bits the layout occupies, i.e. the exact label length


def _parse(label: AdjacencyLabel) -> _Parsed:
    r = _BitReader(label)
    n = r.read(16)
    id_bits = r.read(16)
    width = r.read(16)
    if id_bits == 0:
        raise ValueError("corrupt label: zero id width")
    cb = width.bit_length()
    h = r.read(DEPTH_BITS)
    if h == 0:
        raise ValueError("corrupt label: empty path")
    path = tuple(r.read(id_bits) for _ in range(h))
    entries = []
    for _ in range(h):
        cnt = r.read(cb)
        if cnt > width:
            raise ValueError("corrupt label: owned count exceeds width")
        entries.append(tuple((r.read(id_bits), r.read(1)) for _ in range(cnt)))
    return _Parsed(n, id_bits, width, path, tuple(entries), r.pos)


def _decode_parsed(a: _Parsed, b: _Parsed) -> bool:
    if (a.n, a.id_bits, a.width) != (b.n, b.id_bits, b.width):
        raise ValueError("labels come from different encodings")
    if a.path == b.path:
        raise ValueError("labels describe the same leaf")
    best = deepest_pair(a.path, a.entries, b.path, b.entries)
    if best is None:
        raise ValueError("no signed pair covers the leaf pair; corrupt labels")
    return best[2] == 1


def decode(a: AdjacencyLabel, b: AdjacencyLabel) -> bool:
    """Adjacency of two distinct vertices from their labels alone."""
    return _decode_parsed(_parse(a), _parse(b))


def decode_matrix(labels: dict[int, AdjacencyLabel]) -> Graph:
    """The whole graph that a label set from :func:`encode` describes.

    Labels from :func:`encode` spell the model they were encoded from: a
    node has the same parent, depth and block in every label through it.
    That model is rebuilt and :func:`model.realize` decides every vertex
    pair at once.  A set that spells no clean model with one leaf per
    vertex raises ``ValueError`` naming the first fault: labels that
    disagree on a node, two labels of one leaf, a model that is not clean,
    or a tie that ``realize`` finds.  So does a proper subset of a set; use
    :func:`decode` for single pairs.  This is no integrity check: a flipped
    bit in a block that only one label carries, such as a leaf's own
    block, leaves the labels consistent and decodes silently wrong.
    """
    return realize(_spelled_model(labels))


def _spelled_model(labels: dict[int, AdjacencyLabel]) -> SignedTreeModel:
    """The model that the labels of vertices 0..n-1 spell, or a
    ``ValueError`` at the first fault: no labels, a field that does not fit
    its label (:func:`_parse`'s message), preambles that differ, a count
    other than the preamble's n or keys other than 0..n-1, a node that two
    labels disagree on, node ids that are not 0..k-1, a tree the
    ``SignedTreeModel`` constructor rejects, two vertices that end at one
    leaf, a pair stored in both colors, or a model that is not clean (in a
    clean model the sibling pair at the meet of two leaves covers them, so
    every vertex pair decodes).

    Each field is read straight from the label's bits, and a block is kept
    as one int per node: a label set costs a few objects per node, not one
    per entry of every label."""
    n = len(labels)
    if not n:
        raise ValueError("no labels")
    head = None
    nodes: dict[int, tuple[int, int, int, int]] = {}  # node -> (parent, depth, count, block)
    leaves = [0] * n
    for v in range(n):
        label = labels.get(v)
        if label is None:
            raise ValueError("labels must cover vertices 0..n-1")
        nbits, total = label.nbits, len(label.data) * 8
        if nbits > total:
            raise ValueError("label shorter than its declared bit length")
        pos = nbits - PREAMBLE_BITS - DEPTH_BITS  # bits left after the preamble and h
        if pos < 0:
            raise ValueError("label exhausted: read past the end")
        value = int.from_bytes(label.data, "big") >> (total - nbits)
        top = value >> pos
        if head is None:
            head = top >> DEPTH_BITS
            id_bits, width = (head >> 16) & 0xFFFF, head & 0xFFFF
            if id_bits == 0:
                raise ValueError("corrupt label: zero id width")
            if head >> 32 != n:
                raise ValueError(f"preamble declares {head >> 32} vertices, found {n} labels")
            cb = width.bit_length()
            entry_bits = id_bits + 1
            id_mask, cb_mask = (1 << id_bits) - 1, (1 << cb) - 1
        elif top >> DEPTH_BITS != head:
            raise ValueError("labels come from different encodings")
        h = top & ((1 << DEPTH_BITS) - 1)
        if h == 0:
            raise ValueError("corrupt label: empty path")
        pos -= h * id_bits
        if pos < 0:
            raise ValueError("label exhausted: read past the end")
        ids = value >> pos
        parent = -1
        for depth in range(h):
            x = (ids >> ((h - 1 - depth) * id_bits)) & id_mask
            pos -= cb
            if pos < 0:
                raise ValueError("label exhausted: read past the end")
            count = (value >> pos) & cb_mask
            if count > width:
                raise ValueError("corrupt label: owned count exceeds width")
            bits = count * entry_bits
            pos -= bits
            if pos < 0:
                raise ValueError("label exhausted: read past the end")
            info = (parent, depth, count, (value >> pos) & ((1 << bits) - 1))
            if nodes.setdefault(x, info) != info:
                raise ValueError(f"label of vertex {v} disagrees with an earlier label on node {x}")
            parent = x
        leaves[v] = parent
    if len(set(leaves)) < n:
        raise ValueError("labels describe the same leaf")
    k = len(nodes)
    if max(nodes) != k - 1:
        raise ValueError(f"node ids are not 0..{k - 1}: the labels name node {max(nodes)}")
    kids: list[list[int]] = [[] for _ in range(k)]
    pairs: tuple[list, list] = ([], [])  # green, blue
    for x, (parent, _, count, block) in nodes.items():
        if parent >= 0:
            kids[parent].append(x)
        for shift in range((count - 1) * entry_bits, -1, -entry_bits):
            entry = block >> shift
            pairs[entry & 1].append((x, (entry >> 1) & id_mask))
    leaf_vertex = [-1] * k
    for v, leaf in enumerate(leaves):
        leaf_vertex[leaf] = v
    m = SignedTreeModel([tuple(c) or None for c in kids], leaf_vertex, *pairs)
    if m.green & m.blue:
        raise ValueError(f"pair {min(m.green & m.blue)} is both green and blue")
    if not is_clean(m):
        raise ValueError("labels spell a model that is not clean")
    return m


def label_graph(g: Graph, w: SddWitness) -> dict[int, AdjacencyLabel]:
    """Witness to labels: model, clean, balance, clean, encode.

    The balanced model's pair count certifies the scheme width via
    width_bound, which is what keeps labels near sqrt((d+1) n) bits.
    """
    m = make_clean(stm_from_witness(g, w))
    balanced = make_clean(shallowise(m, w.d + 1))
    labels = encode(balanced)
    # Width is the pair graph's degeneracy, so it never exceeds the
    # edge-count bound; keep the certificate honest.
    pairs = len(balanced.green | balanced.blue)
    scheme_width = _parse(next(iter(labels.values()))).width
    assert scheme_width <= width_bound(pairs), (scheme_width, pairs)
    return labels


@dataclass(frozen=True)
class LabelStats:
    max_bits: int
    mean_bits: float
    bound_bits: int
    ratio: float


def label_stats(labels: dict[int, AdjacencyLabel]) -> LabelStats:
    """Max/mean label size against the layout bound at the parsed sizes."""
    if not labels:
        raise ValueError("no labels")
    sizes = [l.nbits for l in labels.values()]
    parsed = [_parse(l) for l in labels.values()]
    h = max(len(p.path) for p in parsed)
    p0 = parsed[0]
    bound = layout_bound(p0.n, p0.id_bits, p0.width, h)
    mx = max(sizes)
    return LabelStats(mx, sum(sizes) / len(sizes), bound, mx / bound)


def save_labels(labels: dict[int, AdjacencyLabel]) -> str:
    """`p lbl` format: hex dump per vertex, MSB first, zero-padded to bytes."""
    if not labels:
        raise ValueError("no labels")
    p0 = _parse(next(iter(labels.values())))
    lines = [f"p lbl {p0.n} {p0.id_bits} {p0.width}"]
    for v in sorted(labels):
        lines.append(f"l {v} {labels[v].hex()}")
    return "\n".join(lines) + "\n"


def load_labels(text: str) -> dict[int, AdjacencyLabel]:
    """Parse the `p lbl` format.

    Each label gets its exact bit length back from its own layout, so a
    save/load round trip returns equal labels.  Rejects, with the line
    number, a repeated or out-of-range vertex, a label whose preamble
    disagrees with the header's (n, id_bits, W), a label that does not
    parse, a label with nonzero pad bits or a whole trailing byte, and a
    label count other than the header's n.
    """
    labels = {}
    header = None
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "lbl":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            header_line = lineno
        elif parts[0] == "l":
            if header is None:
                raise ValueError(f"line {lineno}: label before header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed label {line!r}")
            try:
                v = int(parts[1])
                data = bytes.fromhex(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed label {line!r}") from None
            if not 0 <= v < header[0]:
                raise ValueError(f"line {lineno}: vertex {v} out of range [0, {header[0]})")
            if v in labels:
                raise ValueError(f"line {lineno}: repeated vertex {v}")
            if len(data) * 8 < PREAMBLE_BITS:
                raise ValueError(f"line {lineno}: label shorter than its preamble")
            pre = int.from_bytes(data[: PREAMBLE_BITS // 8], "big")
            got = (pre >> 32, (pre >> 16) & 0xFFFF, pre & 0xFFFF)
            if got != header:
                raise ValueError(
                    f"line {lineno}: label preamble (n, id_bits, W) = {got} "
                    f"disagrees with header {header}"
                )
            try:
                nbits = _parse(AdjacencyLabel(data, len(data) * 8)).nbits
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            pad = len(data) * 8 - nbits
            if pad >= 8:
                raise ValueError(f"line {lineno}: trailing byte after the {nbits}-bit label")
            if data[-1] & ((1 << pad) - 1):
                raise ValueError(f"line {lineno}: nonzero pad bits after the {nbits}-bit label")
            labels[v] = AdjacencyLabel(data, nbits)
        else:
            raise ValueError(f"line {lineno}: unknown record {line!r}")
    if not labels:
        raise ValueError("no labels in input")
    if len(labels) != header[0]:
        raise ValueError(
            f"line {header_line}: header declares {header[0]} labels, found {len(labels)}"
        )
    return labels
