"""The incremental twin scans against the all-pairs loops they replaced.

``sdd_greedy`` re-tests only the partners an elimination split, and
``is_diverse`` cuts every mask to the subset once.  The references below
are the earlier loops, which recomputed every pair's restricted sd at
every step; witnesses and verdicts must match them exactly, since the
labels of graphs without a given witness depend on the greedy's steps.
``sdd_greedy_escalate`` finds its start level from neighbour masks; the
reference escalation finds it with ``sd_pair`` on every pair.
"""

import hashlib
import random

import pytest

from sdlabel import (
    Graph,
    gen_gnp,
    gen_rook,
    is_diverse,
    save_witness,
    sd_pair,
    sdd_greedy,
    sdd_greedy_escalate,
)
from sdlabel.twins import SddWitness, _witness_search

from conftest import complete_graph

CASES = 200


def restricted_sd(masks, smask, u, v):
    return ((masks[u] ^ masks[v]) & smask & ~(1 << u) & ~(1 << v)).bit_count()


def reference_greedy(g, d):
    masks = g.neighbor_masks()
    alive_mask = (1 << g.n) - 1
    alive = list(range(g.n))
    steps = []
    while len(alive) > 1:
        pick = None
        for u in alive:
            for v in alive:
                if v != u and restricted_sd(masks, alive_mask, u, v) <= d:
                    pick = (u, v)
                    break
            if pick:
                break
        if pick is None:
            return None
        u, v = pick
        steps.append((u, v))
        alive.remove(u)
        alive_mask &= ~(1 << u)
    return SddWitness(d, tuple(steps))


def reference_is_diverse(g, vertices, d):
    s = sorted(set(vertices))
    if len(s) < 2:
        return False
    masks = g.neighbor_masks()
    smask = sum(1 << u for u in s)
    return all(
        restricted_sd(masks, smask, u, v) > d
        for i, u in enumerate(s)
        for v in s[i + 1 :]
    )


def least_pair_sd(g):
    return min(sd_pair(g, u, v) for u in range(g.n) for v in range(u + 1, g.n))


def reference_escalate(g):
    """The least pair sd by sd_pair, then greedy at rising d; level 0 for K1."""
    if g.n == 1:
        return sdd_greedy(g, 0)
    d = least_pair_sd(g)
    while True:
        w = sdd_greedy(g, d)
        if w is not None:
            return w
        d += 1


def random_graphs():
    rng = random.Random(2026)
    for _ in range(CASES):
        n = rng.randint(1, 30)
        yield gen_gnp(n, rng.random(), rng.getrandbits(32))


def special_graphs():
    yield Graph(1)
    yield Graph(2)
    yield Graph(2, [(0, 1)])
    for n in (3, 5, 8):
        yield Graph(n)
        yield complete_graph(n)
    yield gen_rook(3, 3)
    yield gen_rook(4, 4)
    yield gen_rook(3, 5)


class TestGreedy:
    def test_matches_reference_on_random_graphs(self):
        outcomes = {"stuck": 0, "found": 0}
        for g in random_graphs():
            for d in range(6):
                got = sdd_greedy(g, d)
                assert got == reference_greedy(g, d), (g.n, g.edges(), d)
                outcomes["stuck" if got is None else "found"] += 1
        assert outcomes["stuck"] > 50 and outcomes["found"] > 50, outcomes

    def test_matches_reference_on_special_graphs(self):
        for g in special_graphs():
            for d in range(6):
                assert sdd_greedy(g, d) == reference_greedy(g, d), (g.n, g.edges(), d)

    def test_exact_search_level_zero_is_the_greedy(self):
        for g in list(random_graphs())[:60]:
            got = _witness_search(g.neighbor_masks(), g.n, 0)
            want = reference_greedy(g, 0)
            assert got == (None if want is None else list(want.steps))

    def test_escalation_matches_reference(self):
        levels, climbed = set(), 0
        for g in [*random_graphs(), *special_graphs()]:
            got = sdd_greedy_escalate(g)
            assert got == reference_escalate(g), (g.n, g.edges())
            levels.add(got.d)
            climbed += g.n > 1 and got.d > least_pair_sd(g)
        assert len(levels) > 5 and climbed > 50, (levels, climbed)

    @pytest.mark.parametrize(
        "p,seed,d,digest",
        [
            (0.04, 1, 3, "2cd8cefb45a073814854ea50eaa4fe7ab52ed90e5734d5cb0db9e7d4890d2a47"),
            (0.04, 2, 3, "c605da6d1d562ae8ededc041d1cf906e5444b6d1bc89f6d74a5e699c47b39942"),
            (0.04, 3, 3, "9f4f04e7e96f817b8e7de6d371f09016909877757a2136deb30748b681ffb6e2"),
            (0.08, 1, 9, "f6634fb90273d8e64d0c33bb69defd089d17c0cd4cf08eaa7937e56e916eef3b"),
            (0.08, 2, 8, "6a75f276abd19138bcef5d5372fcf343c9d2517037cca633da02860337a03203"),
            (0.08, 3, 8, "a74743f400228e79400672026ceafe4d6debea0fdd8628a5ac5053ea34702005"),
            (0.12, 1, 15, "4be866bc66d88d5922da0d38b239e581a409688f08123f1424978aa1d30735cd"),
            (0.12, 2, 13, "eefbdfaea342808b4b3e7ea34b0446cda38d589e0b66c6c9fa80e3cecd980922"),
            (0.12, 3, 13, "0792fe74c3090941fe1b6e4320ab42b5d0b772a36f1888f4825a0340a7753a11"),
        ],
    )
    def test_escalation_witness_unchanged(self, p, seed, d, digest):
        # sha256 of save_witness, recorded with the all-pairs loop
        w = sdd_greedy_escalate(gen_gnp(120, p, seed))
        assert w.d == d
        assert hashlib.sha256(save_witness(w).encode()).hexdigest() == digest


class TestIsDiverse:
    def test_matches_reference(self):
        rng = random.Random(7)
        verdicts = set()
        for g in random_graphs():
            for _ in range(3):
                s = [u for u in range(g.n) if rng.random() < 0.7]
                d = rng.randint(0, 4)
                got = is_diverse(g, s, d)
                assert got == reference_is_diverse(g, s, d), (g.n, g.edges(), s, d)
                verdicts.add(got)
        assert verdicts == {True, False}
