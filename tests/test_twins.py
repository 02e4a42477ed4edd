"""Symmetric difference, twins, sd-degeneracy, and the degeneracy-1 embedding."""

import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sdlabel import (
    Graph,
    SddWitness,
    check_witness,
    d_twin_pairs,
    degeneracy,
    embed_sdd1,
    find_diverse_subgraph,
    gen_gnp,
    gen_rook,
    gen_shift,
    is_diverse,
    load_witness,
    save_witness,
    sd_exact,
    sd_pair,
    sdd_exact,
    sdd_greedy,
)

from sdlabel.twins import _has_twin_pair, _witness_search

from conftest import complete_graph, cycle_graph, path_graph

from test_graph import small_graphs


def brute_sd(g):
    """From-scratch subset oracle using plain set arithmetic (no bitmasks)."""
    best = 0
    for size in range(2, g.n + 1):
        for sub in combinations(range(g.n), size):
            s = set(sub)
            m = min(
                len(((g.adj[u] & s) - {v}) ^ ((g.adj[v] & s) - {u}))
                for u, v in combinations(sub, 2)
            )
            best = max(best, m)
    return best


def reference_sd_exact(g):
    """The former sd_exact: subsets largest first, raising the best min
    pair sd on each subset and stopping at sizes that cannot beat it."""
    masks = g.neighbor_masks()
    best = 0
    for size in range(g.n, 2, -1):
        if size - 2 <= best:
            break
        for combo in combinations(range(g.n), size):
            while not _has_twin_pair(masks, combo, best):
                best += 1
    return best


def reference_sd_branch_and_bound(g):
    """sd_exact before forward checking: the same branch and bound, but
    an undecided vertex leaves ``avail`` only when the search reaches it
    and excludes it."""
    masks = g.neighbor_masks()
    n = g.n
    diff = [
        [(masks[u] ^ masks[v]) & ~((1 << u) | (1 << v)) for v in range(n)]
        for u in range(n)
    ]

    def pairs_beat(chosen, mask, best):
        for k, u in enumerate(chosen):
            row = diff[u]
            for v in chosen[k + 1 :]:
                if (row[v] & mask).bit_count() <= best:
                    return False
        return True

    best = 0
    stack = [(0, (), (1 << n) - 1)]
    while stack:
        i, chosen, avail = stack.pop()
        if not pairs_beat(chosen, avail, best):
            continue
        while avail.bit_count() >= best + 3:
            if i == n:
                best = min(
                    (diff[u][v] & avail).bit_count()
                    for k, u in enumerate(chosen)
                    for v in chosen[k + 1 :]
                )
                break
            stack.append((i + 1, chosen, avail & ~(1 << i)))
            row = diff[i]
            for u in chosen:
                if (row[u] & avail).bit_count() <= best:
                    break
            else:
                chosen += (i,)
                i += 1
                continue
            break
    return best


def reference_sdd_exact(g):
    """The former sdd_exact: bisect the level from [0, n - 2], keeping the
    witness of the last level that _witness_search decides yes."""
    n = g.n
    masks = g.neighbor_masks()
    lo, hi = 0, n - 2  # every pair is an (n-2)-twin
    steps = _witness_search(masks, n, hi)
    while lo < hi:
        mid = (lo + hi) // 2
        got = _witness_search(masks, n, mid)
        if got is not None:
            hi, steps = mid, got
        else:
            lo = mid + 1
    return hi, SddWitness(hi, tuple(steps))


def gnp_grid():
    """TestSdExactBranchAndBound's 312 G(n, p): 13 orders times 24
    densities, each pair met once."""
    for seed in range(312):
        n = 2 + seed % 13  # n = 2..14
        p = 0.05 + 0.9 * (seed * 7 % 24) / 23  # 24 densities in [0.05, 0.95]
        yield n, p, seed, gen_gnp(n, p, seed)


def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def reference_sd_pair(g, u, v):
    """Set formula for sd(u, v): neighbours of exactly one, minus u and v."""
    return len((g.adj[u] ^ g.adj[v]) - {u, v})


class TestSdPair:
    def test_complete(self):
        g = complete_graph(6)
        assert all(sd_pair(g, u, v) == 0 for u, v in combinations(range(6), 2))

    def test_p3_false_twins(self):
        g = path_graph(3)
        assert sd_pair(g, 0, 2) == 0

    def test_rook_same_row(self):
        g = gen_rook(3, 3)
        assert sd_pair(g, 0, 1) == 4  # two private column neighbors each

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            sd_pair(path_graph(3), 1, 1)

    @given(small_graphs)
    def test_symmetry(self, g):
        for u, v in combinations(range(g.n), 2):
            assert sd_pair(g, u, v) == sd_pair(g, v, u)

    @given(small_graphs)
    def test_matches_set_reference(self, g):
        for u, v in combinations(range(g.n), 2):
            assert sd_pair(g, u, v) == reference_sd_pair(g, u, v)

    def test_corpus_matches_set_reference(self, corpus):
        for name, g, _ in corpus:
            for u, v in combinations(range(g.n), 2):
                assert sd_pair(g, u, v) == reference_sd_pair(g, u, v), (name, u, v)


class TestTwinPairs:
    def test_triangle_all(self):
        assert d_twin_pairs(complete_graph(3), 0) == [(0, 1), (0, 2), (1, 2)]

    def test_rook_none_low(self):
        assert d_twin_pairs(gen_rook(3, 3), 3) == []

    def test_p3(self):
        assert d_twin_pairs(path_graph(3), 0) == [(0, 2)]


class TestDiverse:
    def test_small_sets_false(self):
        g = complete_graph(4)
        assert not is_diverse(g, set(), 0)
        assert not is_diverse(g, {2}, 0)

    def test_rook_full_set(self):
        g = gen_rook(3, 3)
        assert is_diverse(g, range(9), 3)

    def test_complete_false(self):
        assert not is_diverse(complete_graph(5), range(5), 0)

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError, match="^d must be non-negative$"):
            is_diverse(gen_rook(3, 3), range(9), -1)

    def test_find_in_complete_absent(self):
        assert find_diverse_subgraph(complete_graph(5), 0) is None

    def test_find_in_rook(self):
        assert find_diverse_subgraph(gen_rook(3, 3), 3) == frozenset(range(9))

    def test_find_in_path_absent(self):
        assert find_diverse_subgraph(path_graph(4), 1) is None

    def test_limit(self):
        with pytest.raises(ValueError, match="too large"):
            find_diverse_subgraph(Graph(19), 0)

    @given(small_graphs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_found_set_is_diverse_and_maximal(self, g, d):
        got = find_diverse_subgraph(g, d)
        if got is None:
            return
        assert is_diverse(g, got, d)
        for extra in set(range(g.n)) - got:
            # no diverse strict superset exists through any single vertex
            assert not is_diverse(g, got | {extra}, d)


class TestSdExact:
    def test_complete(self):
        assert sd_exact(complete_graph(5)) == 0

    def test_rook_formula(self):
        assert sd_exact(gen_rook(3, 4)) == 4

    def test_p4(self):
        g = path_graph(4)
        assert brute_sd(g) == 1  # oracle agrees: frozen value
        assert sd_exact(g) == 1

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            sd_exact(Graph(1))

    @given(small_graphs)
    @settings(max_examples=40)
    def test_against_brute(self, g):
        if g.n >= 2:
            assert sd_exact(g) == brute_sd(g)

    @given(small_graphs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_diverse_equivalence(self, g, d):
        # sd(G) >= d+1 iff a (d+1)-diverse induced subgraph exists
        if g.n < 2:
            return
        has = find_diverse_subgraph(g, d) is not None
        assert has == (sd_exact(g) >= d + 1)

    def test_diverse_equivalence_up_to_twelve(self):
        for seed in range(24):
            n = 2 + seed % 11  # up to n = 12
            g = gen_gnp(n, 0.2 + 0.1 * (seed % 7), seed)
            sd = sd_exact(g)
            for d in range(0, n):
                has = find_diverse_subgraph(g, d) is not None
                assert has == (sd >= d + 1), (seed, d)


class TestSdExactBranchAndBound:
    def test_matches_reference_on_gnp(self):
        # 312 = 13 * 24 seeds meet each (n, density) pair exactly once
        for seed in range(312):
            n = 2 + seed % 13  # n = 2..14
            p = 0.05 + 0.9 * (seed * 7 % 24) / 23  # 24 densities in [0.05, 0.95]
            g = gen_gnp(n, p, seed)
            assert sd_exact(g) == reference_sd_exact(g), (n, p, seed)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_families(self, n):
        for g in (Graph(n), complete_graph(n), path_graph(n), cycle_graph(n)):
            assert sd_exact(g) == reference_sd_exact(g)

    @pytest.mark.parametrize(
        "g",
        [gen_rook(3, 4), gen_rook(4, 4), gen_shift(4), gen_shift(5), gen_shift(6)],
        ids=["rook3x4", "rook4x4", "shift4", "shift5", "shift6"],
    )
    def test_matches_reference_on_named_graphs(self, g):
        assert sd_exact(g) == reference_sd_exact(g)

    def test_matches_reference_on_gnp14_chains(self):
        # G(14, p) at the densities of the oracle-reduce benchmark's gnp ops
        for p in (0.2, 0.3, 0.4, 0.5):
            for seed in range(1, 7):
                g = gen_gnp(14, p, seed)
                assert sd_exact(g) == reference_sd_exact(g), (p, seed)

    def test_matches_branch_and_bound_reference_past_the_limit(self):
        # the subset scan of reference_sd_exact is too slow past n = 16
        for n in range(15, 25):
            for p in (0.2, 0.3, 0.4, 0.5):
                for seed in (1, 2, 3):
                    g = gen_gnp(n, p, seed)
                    want = reference_sd_branch_and_bound(g)
                    assert sd_exact(g, limit=n) == want, (n, p, seed)

    def test_branch_and_bound_reference_matches_subset_scan(self):
        for n, p, seed, g in gnp_grid():
            want = reference_sd_exact(g)
            assert reference_sd_branch_and_bound(g) == want, (n, p, seed)

    def test_raised_limit_needs_no_recursion(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 40)
        try:
            got = sd_exact(Graph(200), limit=200)
        finally:
            sys.setrecursionlimit(old)
        assert got == 0


class TestSddExact:
    def test_single_vertex(self):
        assert sdd_exact(Graph(1)) == (0, SddWitness(0, ()))

    def test_cograph_zero(self):
        # C4 = K4 minus a perfect matching
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d, w = sdd_exact(c4)
        assert d == 0 and check_witness(c4, w)

    def test_p4_is_one(self):
        assert sdd_exact(path_graph(4))[0] == 1

    def test_limit(self):
        with pytest.raises(ValueError, match="too large"):
            sdd_exact(Graph(21))

    @given(small_graphs)
    @settings(max_examples=50)
    def test_witness_verifies_and_is_minimal(self, g):
        d, w = sdd_exact(g)
        assert check_witness(g, w)
        if d > 0:
            from sdlabel.twins import _witness_search

            assert _witness_search(g.neighbor_masks(), g.n, d - 1) is None

    def test_matches_reference_on_gnp(self):
        for n, p, seed, g in gnp_grid():
            assert sdd_exact(g) == reference_sdd_exact(g), (n, p, seed)

    @pytest.mark.parametrize("k", range(4, 10))
    def test_matches_reference_on_shift(self, k):
        g = gen_shift(k)  # k(k-1)/2 vertices: 36 at k = 9
        assert sdd_exact(g, limit=g.n) == reference_sdd_exact(g)

    @pytest.mark.parametrize("a,b", [(3, 3), (3, 4), (4, 3), (4, 4)])
    def test_matches_reference_on_rook(self, a, b):
        g = gen_rook(a, b)
        assert sdd_exact(g) == reference_sdd_exact(g)

    def test_embed_outputs_are_one(self):
        for seed in range(6):
            g = gen_gnp(5, 0.5, seed)
            host, w, _ = embed_sdd1(g)
            d, _ = sdd_exact(host, limit=64)
            assert d <= 1


class TestChainInequalities:
    def test_sdd_le_sd_le_twice_degeneracy(self):
        for seed in range(120):
            n = 4 + seed % 7
            g = gen_gnp(n, 0.15 + 0.1 * (seed % 8), seed)
            d, _ = sdd_exact(g)
            sd = sd_exact(g)
            assert d <= sd <= 2 * degeneracy(g).d


class TestGreedy:
    def test_complete_zero(self):
        w = sdd_greedy(complete_graph(4), 0)
        assert w.steps == ((0, 1), (1, 2), (2, 3))

    def test_rook_absent(self):
        assert sdd_greedy(gen_rook(3, 3), 3) is None

    def test_p5_at_two(self):
        g = path_graph(5)
        w = sdd_greedy(g, 2)
        assert w is not None and check_witness(g, w)

    @given(small_graphs, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_greedy_witness_always_verifies(self, g, d):
        w = sdd_greedy(g, d)
        if w is not None:
            assert check_witness(g, w)


class TestCheckWitness:
    def test_empty_on_single(self):
        assert check_witness(Graph(1), SddWitness(0, ()))

    def test_round_trip(self):
        g = gen_gnp(9, 0.4, 3)
        d, w = sdd_exact(g)
        assert check_witness(g, w)

    def test_rejects_tightened_level(self):
        g = path_graph(5)
        d, w = sdd_exact(g)
        assert d == 1
        # same steps, declared at d-1: some step must exceed the bound
        assert not check_witness(g, SddWitness(d - 1, w.steps))

    def test_rejects_repeated_elimination(self):
        g = complete_graph(3)
        assert not check_witness(g, SddWitness(0, ((0, 1), (0, 1))))

    def test_rejects_dead_partner(self):
        g = complete_graph(3)
        assert not check_witness(g, SddWitness(0, ((0, 1), (1, 0))))

    def test_rejects_wrong_length(self):
        g = complete_graph(3)
        assert not check_witness(g, SddWitness(0, ((0, 1),)))


class TestEmbed:
    def test_complete_unchanged(self):
        g = complete_graph(6)
        host, w, inj = embed_sdd1(g)
        assert host == g and inj == tuple(range(6))
        assert check_witness(host, w) and w.d == 1

    def test_single_vertex(self):
        host, w, inj = embed_sdd1(Graph(1))
        assert host.n == 1 and w.steps == ()

    def test_p4(self):
        g = path_graph(4)
        host, w, inj = embed_sdd1(g)
        assert host.n < 16
        assert check_witness(host, w)
        assert sdd_exact(host, limit=64)[0] == 1

    @given(small_graphs)
    @settings(max_examples=60)
    def test_contains_original_induced(self, g):
        host, w, inj = embed_sdd1(g)
        assert check_witness(host, w)
        if g.n >= 2:
            assert host.n < g.n * g.n
        for u, v in combinations(range(g.n), 2):
            assert host.has_edge(inj[u], inj[v]) == g.has_edge(u, v)


class TestWitnessFormat:
    def test_round_trip(self):
        g = gen_gnp(8, 0.5, 11)
        _, w = sdd_exact(g)
        text = save_witness(w)
        again = load_witness(text)
        assert again == w
        assert save_witness(again) == text

    def test_header(self):
        w = load_witness("w sdd 2 1\nx 3 4\n")
        assert w == SddWitness(2, ((3, 4),))

    @pytest.mark.parametrize(
        "text",
        ["x 0 1\n", "w sdd 1 2\nx 0 1\n", "w sdd 1 0\nz\n"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            load_witness(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("w sdd x 3\n", "line 1: malformed header 'w sdd x 3'"),
            ("w sdd 1 y\n", "line 1: malformed header 'w sdd 1 y'"),
            ("w sdd 1 2\nx 0 1\nx 0 y\n", "line 3: malformed step 'x 0 y'"),
            ("# c\nw sdd 1 1\nx z 1\n", "line 3: malformed step 'x z 1'"),
            ("# c\nw sdd -3 0\n", "line 2: negative level in header 'w sdd -3 0'"),
        ],
    )
    def test_malformed_integer_names_line(self, text, message):
        with pytest.raises(ValueError) as err:
            load_witness(text)
        assert str(err.value) == message


class TestNonIntegerArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: sdd_greedy(g, 2.5),
            lambda g: d_twin_pairs(g, 2.5),
            lambda g: is_diverse(g, range(g.n), 2.5),
            lambda g: find_diverse_subgraph(g, 2.5),
        ],
        ids=["sdd_greedy", "d_twin_pairs", "is_diverse", "find_diverse_subgraph"],
    )
    def test_level_must_be_an_integer(self, call):
        # an sdd_greedy witness at d = 2.5 would carry a header load_witness
        # rejects; is_diverse would answer as if d were 2
        with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.5$"):
            call(gen_gnp(16, 0.3, 1))

    def test_is_diverse_vertex_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^vertex must be an integer, got 1\.5$"):
            is_diverse(gen_gnp(16, 0.3, 1), [0, 1.5], 1)

    @pytest.mark.parametrize("u,v,bad", [(1.0, 2, "1.0"), (1, 2.0, "2.0"), ("1", 2, "'1'")])
    def test_sd_pair_vertex_must_be_an_integer(self, u, v, bad):
        with pytest.raises(ValueError, match=rf"^vertex must be an integer, got {bad}$"):
            sd_pair(gen_gnp(16, 0.3, 1), u, v)
