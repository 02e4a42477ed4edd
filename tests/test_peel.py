"""The shared smallest-last peel against the O(N^2) min-scan it replaced.

``graph.degeneracy``, ``model.width`` and ``labeling.encode`` all run
``graph.min_degree_peel``, and so does the tests' reference orientation
``conftest.orient_low_outdegree``.  The references below are the earlier
per-caller implementations, which picked the next vertex with
``min(alive, key=(deg, id))``; orders, owners and widths must match them
exactly, since the label bits depend on them.
"""

import random

import pytest

from sdlabel import Graph, gen_gnp
from sdlabel.balance import shallowise
from sdlabel.bench import padded_embed
from sdlabel.graph import degeneracy, min_degree_peel
from sdlabel.model import make_clean, stm_from_witness, width

from conftest import orient_low_outdegree

CASES = 200


def reference_peel(adj):
    """(order, width) as min_degree_peel returns them."""
    n = len(adj)
    deg = [len(adj[u]) for u in range(n)]
    alive = [True] * n
    order = []
    d = 0
    for _ in range(n):
        u = min((v for v in range(n) if alive[v]), key=lambda v: (deg[v], v))
        d = max(d, deg[u])
        order.append(u)
        alive[u] = False
        for w in adj[u]:
            if alive[w]:
                deg[w] -= 1
    return tuple(order), d


def reference_degeneracy(g):
    order, d = reference_peel(g.adj)
    return d, order


def balanced_pair_graph(g, w):
    """The pair graph encode peels: the clean balanced model's nodes, an
    edge per signed pair."""
    b = make_clean(shallowise(make_clean(stm_from_witness(g, w)), w.d + 1))
    adj = [[] for _ in range(b.n_nodes)]
    for a, c in b.green | b.blue:
        adj[a].append(c)
        adj[c].append(a)
    return adj


def reference_orientation(nodes, pairs):
    nodes = list(nodes)
    adj = {u: set() for u in nodes}
    plist = []
    for a, b in pairs:
        p = (a, b) if a <= b else (b, a)
        adj[a].add(b)
        adj[b].add(a)
        plist.append(p)
    plist = sorted(set(plist))
    deg = {u: len(adj[u]) for u in nodes}
    alive = set(nodes)
    order = []
    rank = {}
    while alive:
        u = min(alive, key=lambda v: (deg[v], v))
        rank[u] = len(order)
        order.append(u)
        alive.remove(u)
        for w in adj[u]:
            if w in alive:
                deg[w] -= 1
    owner = {}
    out = {u: 0 for u in nodes}
    for a, b in plist:
        o = a if rank[a] < rank[b] else b
        owner[(a, b)] = o
        out[o] += 1
    return owner, tuple(order), max(out.values()) if nodes else 0


def random_graph(rng):
    n = rng.randrange(1, 48)
    return gen_gnp(n, rng.choice((0.0, 0.05, 0.15, 0.4, 0.8, 1.0)), rng.randrange(1 << 32))


def random_pair_set(rng):
    """Nodes lo..hi-1 (often wider than the endpoints used), possibly no
    pairs, with repeats given in both orientations."""
    lo = rng.randrange(0, 20)
    hi = lo + rng.randrange(1, 60)
    span_lo = rng.randrange(lo, hi)
    span_hi = rng.randrange(span_lo, hi) + 1
    pairs = []
    if span_hi - span_lo >= 2 and rng.random() > 0.1:
        for _ in range(rng.randrange(0, 4 * (span_hi - span_lo))):
            a, b = rng.sample(range(span_lo, span_hi), 2)
            pairs.append((a, b))
            if rng.random() < 0.2:
                pairs.append((b, a))
    return range(lo, hi), pairs


def test_degeneracy_matches_min_scan():
    rng = random.Random(20240516)
    for case in range(CASES):
        g = random_graph(rng)
        cert = degeneracy(g)
        assert (cert.d, cert.order) == reference_degeneracy(g), (case, g)


def test_orientation_matches_min_scan():
    rng = random.Random(19830701)
    for case in range(CASES):
        nodes, pairs = random_pair_set(rng)
        o = orient_low_outdegree(nodes, pairs)
        assert (o.owner, o.order, o.max_outdegree) == reference_orientation(nodes, pairs), case


@pytest.mark.parametrize(
    "make",
    [
        lambda: [],
        lambda: Graph(40).adj,
        lambda: balanced_pair_graph(*padded_embed(512, 1)),
    ],
    ids=["empty", "edgeless", "balanced-embed-512"],
)
def test_peel_matches_min_scan(make):
    adj = make()
    assert min_degree_peel(adj) == reference_peel(adj)


def test_peel_empty_and_isolated():
    assert min_degree_peel([]) == ((), 0)
    assert min_degree_peel([set(), set(), set()]) == ((0, 1, 2), 0)
    assert degeneracy(Graph(1)).order == (0,)


def test_orientation_nodes_out_of_order():
    # Ids are peeled in id order whatever order the nodes come in: every
    # node starts at degree 1 or 2, and the ties go to the smaller id.
    for nodes, pairs in (
        ([5, 3, 4], [(5, 3), (4, 5)]),
        ([9, 2, 7, 4], [(9, 2), (7, 4), (2, 7), (4, 9)]),
        ([8, 1, 6, 1], [(6, 8), (1, 8)]),
    ):
        o = orient_low_outdegree(nodes, pairs)
        assert (o.owner, o.order, o.max_outdegree) == reference_orientation(nodes, pairs)
    assert orient_low_outdegree([5, 3, 4], [(5, 3), (4, 5)]).order == (3, 4, 5)


def test_orientation_rejects_foreign_endpoint():
    with pytest.raises(ValueError, match="outside"):
        orient_low_outdegree(range(3), [(0, 5)])
    with pytest.raises(ValueError, match="degenerate"):
        orient_low_outdegree(range(3), [(1, 1)])


def test_model_width_is_orientation_width(corpus):
    for name, g, w in corpus:
        b = make_clean(shallowise(make_clean(stm_from_witness(g, w)), w.d + 1))
        expect = orient_low_outdegree(range(b.n_nodes), b.green | b.blue).max_outdegree
        assert width(b) == expect, name
