"""The incremental twin scans against the all-pairs loops they replaced.

``sdd_greedy`` re-tests only the partners an elimination split, and
``is_diverse`` cuts every mask to the subset once and tests only the
pairs that can be twins.  The references below
are the earlier loops, which recomputed every pair's restricted sd at
every step; witnesses and verdicts must match them exactly, since the
labels of graphs without a given witness depend on the greedy's steps.
``sdd_greedy_escalate`` finds its start level from neighbour masks; the
reference escalation finds it with ``sd_pair`` on every pair.
``_greedy_steps`` is also compared, level by level, with the incremental
step loop that tested u against partners below it too.
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
from sdlabel.hardness import build_sd_reduction, sd_witness_from_assignment
from sdlabel.twins import SddWitness, _greedy_steps, _witness_search

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


def sparse_graphs():
    """Unions of two or three random Hamiltonian cycles: near-regular and
    sparse, so most pairs of their full vertex sets are never candidates."""
    rng = random.Random(2027)
    for _ in range(CASES // 4):
        n = rng.randint(50, 90)
        edges = []
        for _ in range(rng.randint(2, 3)):
            order = rng.sample(range(n), n)
            edges += zip(order, order[1:] + order[:1])
        yield Graph(n, edges)


def pendant_pair(copies, u, v):
    """Disjoint rook 3x3 graphs, in which every pair has sd 4, plus pendant
    vertices u and v hung on different copies and one more vertex w
    adjacent to both.  With w left out of S, u and v are non-adjacent,
    share no neighbour in S and have S-degree 1 each, so sd_S(u, v) = 2;
    every other pair of S has sd at least 3.  Returns (graph, S)."""
    n = 9 * copies + 3
    rest = [x for x in range(n) if x not in (u, v)]
    w = rest.pop()
    rook = gen_rook(3, 3).edges()
    edges = [(rest[9 * c + a], rest[9 * c + b]) for c in range(copies) for a, b in rook]
    edges += [(u, rest[0]), (v, rest[9]), (u, w), (v, w)]
    return Graph(n, edges), [x for x in range(n) if x != w]


def sd_reduction_sets(count=5, max_n=1000):
    """(graph, kept, mutated) for the first ``count`` sd-reductions at d = 8
    of the acceptance generator with fewer than ``max_n`` vertices."""
    from test_acceptance import _gen_sd_formula, _Rng

    rng = _Rng(2024)
    out = []
    while len(out) < count:
        phi, assignment = _gen_sd_formula(rng)
        r = build_sd_reduction(phi, 8)
        if r.graph.n >= max_n:
            continue
        kept = sd_witness_from_assignment(r, phi, assignment).vertices
        mutated = list(assignment)
        for lit in phi.clauses[0]:
            mutated[abs(lit) - 1] = lit < 0
        drop = {
            r.meta["lit_neg"][i] if mutated[i - 1] else r.meta["lit_pos"][i]
            for i in range(1, phi.num_vars + 1)
        }
        out.append((r.graph, kept, frozenset(range(r.graph.n)) - drop))
    return out


class TestIsDiverse:
    def test_matches_reference(self):
        # random_graphs spans every edge density, sparse_graphs the sparse
        # sets on which most pairs are skipped; each gives both verdicts
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
        verdicts = set()
        for g in sparse_graphs():
            for d in range(6):
                got = is_diverse(g, range(g.n), d)
                assert got == reference_is_diverse(g, range(g.n), d), (g.n, g.edges(), d)
                verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("u,v", [(0, 1), (0, 56), (20, 40), (55, 56)])
    def test_only_twins_by_degree_sum(self, u, v):
        g, s = pendant_pair(6, u, v)
        masks = g.neighbor_masks()
        smask = sum(1 << x for x in s)
        twins = [
            (a, b)
            for i, a in enumerate(s)
            for b in s[i + 1 :]
            if restricted_sd(masks, smask, a, b) <= 2
        ]
        assert twins == [(u, v)]
        assert not g.has_edge(u, v) and not masks[u] & masks[v] & smask
        assert is_diverse(g, s, 1) and reference_is_diverse(g, s, 1)
        assert not is_diverse(g, s, 2) and not reference_is_diverse(g, s, 2)

    def test_sd_reduction_certificates(self):
        for g, kept, mutated in sd_reduction_sets():
            got = (is_diverse(g, kept, 8), is_diverse(g, mutated, 8))
            want = (reference_is_diverse(g, kept, 8), reference_is_diverse(g, mutated, 8))
            assert got == want == (True, False), g.n

    def test_relabelled_sd_reduction_certificates(self):
        # the builder puts a bubble cell's candidates a few dozen ids above
        # it; a random relabelling spreads them up to bit n - 1
        rng = random.Random(2020)
        for g, kept, mutated in sd_reduction_sets():
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            kept_h = [perm[u] for u in kept]
            mutated_h = [perm[u] for u in mutated]
            got = (is_diverse(h, kept_h, 8), is_diverse(h, mutated_h, 8))
            want = (reference_is_diverse(h, kept_h, 8), reference_is_diverse(h, mutated_h, 8))
            assert got == want == (True, False), g.n

    def test_only_candidate_is_the_top_vertex(self):
        # hubs 0 and n - 1 are adjacent and share ten neighbours outside S;
        # inside S they are an edge apart from a cycle on 1..n - 12, so
        # u = 0 has the one candidate n - 1, and that pair is the only
        # 1-twin pair
        n = 140
        outside = range(n - 11, n - 1)
        edges = [(0, n - 1), *((h, x) for h in (0, n - 1) for x in outside)]
        edges += [(u, u + 1) for u in range(1, n - 12)] + [(1, n - 12)]
        edges += [(x, x - 100) for x in outside]
        g = Graph(n, edges)
        s = [0, *range(1, n - 11), n - 1]
        masks = g.neighbor_masks()
        smask = sum(1 << x for x in s)
        cand = masks[0] & smask  # N_S(0) and the S-neighbourhoods of N_S(0)
        for w in g.adj[0] & set(s):
            cand |= masks[w] & smask
        assert cand & ~1 == 1 << (n - 1)
        twins = [
            (a, b)
            for i, a in enumerate(s)
            for b in s[i + 1 :]
            if restricted_sd(masks, smask, a, b) <= 1
        ]
        assert twins == [(0, n - 1)]
        assert not is_diverse(g, s, 1) and not reference_is_diverse(g, s, 1)
        assert is_diverse(g, s[:-1], 1) and reference_is_diverse(g, s[:-1], 1)

    def test_small_sets_and_d_zero(self):
        for g in special_graphs():
            sets = [[], *([u] for u in range(g.n)), list(range(g.n))]
            sets += [[u, v] for u in range(g.n) for v in range(u + 1, g.n)]
            for s in sets:
                for d in range(3):
                    got = is_diverse(g, s, d)
                    assert got == reference_is_diverse(g, s, d), (g.n, g.edges(), s, d)
                    # two vertices alone are 0-twins; fewer are never diverse
                    assert not got or len(s) > 2
        # d = 0 on a set whose pairs all differ: the path 0-1-2-3
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_diverse(p4, range(4), 0) and reference_is_diverse(p4, range(4), 0)
        assert not is_diverse(p4, range(4), 1)


# The step loop that first-tested every alive partner of u and, on each
# elimination of x, ORed S \ N[x] into the split set of each neighbour of x.
def reference_greedy_steps(masks, n: int, d: int):
    """The steps of sdd_greedy at level d, or None if the rule gets stuck.

    ``split[u]`` is None until u is first tested.  Once u has been found
    twinless it holds the partners whose sd with u fell since that test;
    every twin u can have now is among them, so a re-test reads only those,
    and the lowest-id twin is the lowest set bit that passes.
    """
    nbr = list(masks)  # neighbourhoods cut to the alive set
    alive = list(range(n))
    alive_mask = (1 << n) - 1
    split = [None] * n
    checked = set()  # alive vertices whose split set is kept
    limit = d + 1  # sd(u, v) = |N[u] ^ N(v)| - 1 inside the alive set
    steps = []
    while len(alive) > 1:
        pick = None
        for u in alive:
            todo = split[u]
            if todo == 0:
                continue
            closed = nbr[u] | (1 << u)
            if todo is None:
                for v in alive:
                    if v != u and (closed ^ nbr[v]).bit_count() <= limit:
                        pick = (u, v)
                        break
            else:
                todo &= alive_mask
                while todo:
                    low = todo & -todo
                    v = low.bit_length() - 1
                    if (closed ^ nbr[v]).bit_count() <= limit:
                        pick = (u, v)
                        break
                    todo ^= low
            if pick is not None:
                break
            split[u] = 0
            checked.add(u)
        if pick is None:
            return None
        steps.append(pick)
        x = pick[0]
        alive.remove(x)
        checked.discard(x)
        bit = 1 << x
        alive_mask ^= bit
        near = masks[x]
        far = alive_mask & ~near  # S \ N[x], taken over the new S
        for u in checked:
            split[u] |= far if (near >> u) & 1 else near
        rest = near & alive_mask
        while rest:
            low = rest & -rest
            nbr[low.bit_length() - 1] ^= bit
            rest ^= low
    return steps


def step_graphs():
    for p in (0.04, 0.08, 0.12):
        for seed in range(1, 11):
            yield gen_gnp(120, p, seed)
    yield gen_gnp(300, 0.05, 1)
    for a in (8, 12, 16):
        yield gen_rook(a, a)
    yield from sparse_graphs()


class TestGreedySteps:
    def test_matches_reference_at_every_level(self):
        stalled = 0
        for g in step_graphs():
            masks = g.neighbor_masks()
            least = least_pair_sd(g)
            for d in range(sdd_greedy_escalate(g).d + 2):
                got = _greedy_steps(masks, g.n, d)
                assert got == reference_greedy_steps(masks, g.n, d), (g.n, g.edges(), d)
                # the first pass takes a step iff some pair is a d-twin pair
                stalled += got is None and least <= d
        assert stalled > 50, stalled


def brute_floors(g):
    """Entry u: the least sd_pair(g, u, v) over v > u; n for the last vertex."""
    return [
        min((sd_pair(g, u, v) for v in range(u + 1, g.n)), default=g.n)
        for u in range(g.n)
    ]


class TestFloorBound:
    """``_greedy_steps`` skips the tests a cached per-vertex sd floor rules
    out; the steps must stay those of the loop without the bound."""

    def test_shared_floors_match_reference_at_every_level(self):
        # one floors list per order of levels, shared across the levels, so
        # floors filled at a high d are reused at a low one and vice versa
        filled = 0
        for g in step_graphs():
            masks = g.neighbor_masks()
            levels = range(sdd_greedy_escalate(g).d + 2)
            want = {d: reference_greedy_steps(masks, g.n, d) for d in levels}
            exact = brute_floors(g)
            for order in (levels, reversed(levels)):
                floors = [None] * g.n
                for d in order:
                    got = _greedy_steps(masks, g.n, d, floors)
                    assert got == want[d], (g.n, g.edges(), d)
                known = [(f, x) for f, x in zip(floors, exact) if f is not None]
                assert all(f == x for f, x in known), (g.n, g.edges())
                filled += len(known)
        assert filled > 1000, filled

    def test_escalation_fills_exact_floors(self):
        for g in [*random_graphs(), *special_graphs(), *step_graphs()]:
            w = sdd_greedy_escalate(g)
            if g.n > 1:
                assert g._floors == brute_floors(g), (g.n, g.edges())
                # a second escalation reads the cached floors
                assert sdd_greedy_escalate(g) == w

    @pytest.mark.parametrize("edit", ["add_edge", "remove_edge"])
    def test_edit_drops_floors(self, edit):
        # the edit makes vertices 0 and 1 both universal or both isolated,
        # so floor[0] falls to 0; a stale floor would skip vertex 0
        for seed in range(1, 4):
            g = gen_gnp(120, 0.08, seed)
            sdd_greedy_escalate(g)  # fills every floor
            assert g._floors[0] > 0
            for u in (0, 1):
                for v in range(g.n):
                    if v != u and (v in g.adj[u]) == (edit == "remove_edge"):
                        getattr(g, edit)(u, v)
            fresh = Graph(g.n, g.edges())
            for d in range(12):
                assert sdd_greedy(g, d) == sdd_greedy(fresh, d), (seed, d)
            assert sdd_greedy_escalate(g) == sdd_greedy_escalate(fresh)
