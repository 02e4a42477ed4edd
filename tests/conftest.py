"""Shared fixtures: a small graph zoo, the 14-leaf figure model, and the
witness corpus used by the model/balance/labeling acceptance criteria."""

import pytest

from sdlabel import (
    Graph,
    gen_gnp,
    gen_rook,
    gen_shift,
    sdd_exact,
    sdd_greedy_escalate,
    embed_sdd1,
    check_witness,
)
from sdlabel.model import SignedTreeModel


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def build_figure_model():
    """The 14-leaf signed tree model used throughout the model tests.

    Returns (model, names) where names maps mnemonic node names to ids;
    leaves are named L1..L14 and carry vertices 0..13.
    """
    children = []
    leafv = []
    names = {}

    def leaf(name, v):
        names[name] = len(children)
        children.append(None)
        leafv.append(v)

    def internal(name, l, r):
        names[name] = len(children)
        children.append((names[l], names[r]))
        leafv.append(-1)

    for k in range(1, 15):
        leaf(f"L{k}", k - 1)
    internal("c", "L1", "L2")
    internal("b", "c", "L3")
    internal("f", "L4", "L5")
    internal("g", "L6", "L7")
    internal("e", "f", "g")
    internal("a", "b", "e")
    internal("j", "L8", "L9")
    internal("i", "j", "L10")
    internal("m", "L11", "L12")
    internal("n", "L13", "L14")
    internal("l", "m", "n")
    internal("h", "i", "l")
    internal("root", "a", "h")

    green = [
        (names["a"], names["n"]),
        (names["L2"], names["L10"]),
        (names["i"], names["e"]),
        (names["L2"], names["L3"]),
    ]
    blue = [
        (names["a"], names["h"]),
        (names["e"], names["L10"]),
        (names["f"], names["j"]),
        (names["L6"], names["L7"]),
        (names["L11"], names["L12"]),
        (names["L11"], names["n"]),
        (names["L4"], names["g"]),
        (names["n"], names["i"]),
        (names["c"], names["L3"]),
    ]
    return SignedTreeModel(children, leafv, green, blue), names


@pytest.fixture(scope="session")
def figure_model():
    return build_figure_model()


def small_zoo():
    """Graphs small enough for every exact oracle."""
    zoo = {
        "K1": Graph(1),
        "K2": complete_graph(2),
        "K5": complete_graph(5),
        "P4": path_graph(4),
        "P5": path_graph(5),
        "C5": cycle_graph(5),
        "star7": star_graph(7),
        "K23": complete_bipartite(2, 3),
        "C4": cycle_graph(4),  # = K4 minus a perfect matching, a cograph
        "rook33": gen_rook(3, 3),
        "shift4": gen_shift(4),
        "empty5": Graph(5),
    }
    for seed in range(4):
        zoo[f"gnp8_{seed}"] = gen_gnp(8, 0.4, seed)
    return zoo


@pytest.fixture(scope="session")
def zoo():
    return small_zoo()


def build_corpus():
    """(name, graph, witness) triples: >= 200 instances, exact witnesses up
    to n = 16 and greedy witnesses up to n = 64."""
    corpus = []

    def exact(name, g):
        d, w = sdd_exact(g)
        corpus.append((name, g, w))

    def greedy(name, g):
        corpus.append((name, g, sdd_greedy_escalate(g)))

    exact("K1", Graph(1))
    exact("K2", complete_graph(2))
    exact("K5", complete_graph(5))
    exact("K8", complete_graph(8))
    exact("P5", path_graph(5))
    exact("P8", path_graph(8))
    exact("C5", cycle_graph(5))
    exact("C7", cycle_graph(7))
    exact("star9", star_graph(9))
    exact("K34", complete_bipartite(3, 4))
    exact("C4", cycle_graph(4))
    exact("rook33", gen_rook(3, 3))
    exact("rook34", gen_rook(3, 4))
    exact("rook44", gen_rook(4, 4))
    exact("shift4", gen_shift(4))
    exact("shift5", gen_shift(5))
    exact("empty7", Graph(7))
    for n, seeds in ((6, range(6)), (9, range(6)), (12, range(6)), (13, range(4))):
        for s in seeds:
            for p in (0.25, 0.5):
                exact(f"gnp{n}_{p}_{s}", gen_gnp(n, p, s))

    for n in (16, 24, 32, 48, 64):
        for p in (0.08, 0.15, 0.3):
            for s in range(8):
                greedy(f"gnp{n}_{p}_{s}", gen_gnp(n, p, s))
    for k, s in [(6, 0), (6, 1), (8, 0), (8, 1), (10, 0), (10, 1), (10, 2)]:
        host, w, _ = embed_sdd1(gen_gnp(k, 0.5, s))
        corpus.append((f"embed{k}_{s}", host, w))
    for a, b in [(3, 4), (3, 5), (4, 4), (4, 6), (5, 5), (6, 6), (5, 8)]:
        greedy(f"rook{a}{b}", gen_rook(a, b))
    for k in (6, 7, 8, 9, 10, 11):
        greedy(f"shift{k}", gen_shift(k))
    greedy("P64", path_graph(64))
    greedy("C64", cycle_graph(64))
    greedy("star64", star_graph(64))
    greedy("K32_32", complete_bipartite(32, 32))
    greedy("K20", complete_graph(20))

    for name, g, w in corpus:
        assert check_witness(g, w), name
        assert g.n <= 64
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
