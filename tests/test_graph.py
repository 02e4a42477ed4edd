"""Graph core: generators, degeneracy, induced subgraphs, edge-list format."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from sdlabel import (
    Graph,
    check_witness,
    degeneracy,
    gen_gnp,
    gen_rook,
    gen_shift,
    induced_subgraph,
    is_diverse,
    load_edge_list,
    save_edge_list,
    sd_pair,
    sdd_greedy,
)

from conftest import complete_graph, cycle_graph, path_graph


def brute_degeneracy(g):
    """Independent oracle: max over vertex subsets of the minimum degree
    inside the induced subgraph."""
    best = 0
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            s = set(sub)
            best = max(best, min(len(g.adj[u] & s) for u in sub))
    return best


_M64 = (1 << 64) - 1


def splitmix64(state):
    """One step of splitmix64, one call per word: (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def reference_gnp(n, p, seed):
    """G(n, p) one splitmix64 call per pair, in lexicographic pair order."""
    threshold = int(p * 2.0**64)
    g = Graph(n)
    state = seed & _M64
    for u in range(n):
        for v in range(u + 1, n):
            state, z = splitmix64(state)
            if z < threshold:
                g.add_edge(u, v)
    return g


def gnp_sweep_cases():
    rng = random.Random(2024)
    seeds = [0, 7, 2**64, 2**64 + 12345, 2**80 + 3, -1, -(2**63), -(2**70) - 9]
    cases = [
        (n, p, seed)
        for n in range(4)
        for p in (0.0, 1.0, rng.random())
        for seed in seeds
    ]
    # odd n leave a short last chunk of n - 1 pairs: n(n-1)/2 is not a multiple
    sizes = [5, 6, 17, 64, 65, 129, 200, 255, 299, 300] + rng.sample(range(4, 300), 6)
    for n in sizes:
        p = rng.choice([0.0, 1.0, rng.random(), rng.random() * 0.05])
        cases.append((n, p, rng.choice(seeds + [rng.getrandbits(64)])))
    return cases


small_graphs = st.builds(
    lambda n, bits: Graph(
        n,
        [
            e
            for k, e in enumerate(
                (u, v) for u in range(n) for v in range(u + 1, n)
            )
            if (bits >> k) & 1
        ],
    ),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0),
)


class TestGenerators:
    def test_rook_trivial(self):
        g = gen_rook(1, 1)
        assert g.n == 1 and g.num_edges == 0

    def test_rook_2x2_is_c4(self):
        g = gen_rook(2, 2)
        assert g.n == 4 and g.num_edges == 4
        assert all(g.degree(u) == 2 for u in range(4))

    def test_rook_3x3_counts(self):
        g = gen_rook(3, 3)
        assert g.n == 9 and g.num_edges == 18

    @pytest.mark.parametrize("a,b", [(1, 4), (2, 3), (3, 5), (4, 4)])
    def test_rook_count_formula(self, a, b):
        g = gen_rook(a, b)
        assert g.n == a * b
        assert g.num_edges == a * comb(b, 2) + b * comb(a, 2)

    def test_shift_trivial(self):
        g = gen_shift(2)
        assert g.n == 1 and g.num_edges == 0

    def test_shift_3(self):
        g = gen_shift(3)
        # vertices (1,2), (1,3), (2,3); the only edge is (1,2)~(2,3)
        assert g.n == 3 and g.edges() == [(0, 2)]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_shift_triangle_free(self, n):
        g = gen_shift(n)
        assert g.n == comb(n, 2)
        for u in range(g.n):
            for v in g.adj[u]:
                assert not (g.adj[u] & g.adj[v]), (u, v)

    def test_gnp_extremes(self):
        assert gen_gnp(5, 0.0, 1).num_edges == 0
        assert gen_gnp(5, 1.0, 1).num_edges == 10

    def test_gnp_deterministic(self):
        a = gen_gnp(10, 0.5, 42)
        b = gen_gnp(10, 0.5, 42)
        assert a == b
        assert a != gen_gnp(10, 0.5, 43)

    def test_gnp_golden_stream(self):
        # splitmix64 reference values pin the generator across platforms
        state, z = splitmix64(0)
        assert z == 0xE220A8397B1DCDAF
        state, z = splitmix64(state)
        assert z == 0x6E789E6AA1B965F4

    @pytest.mark.parametrize("n,p,seed", gnp_sweep_cases())
    def test_gnp_matches_reference(self, n, p, seed):
        assert gen_gnp(n, p, seed) == reference_gnp(n, p, seed)

    def test_gnp_threshold_is_strict(self):
        # a word of at most 53 significant bits is a float times 2**64 exactly,
        # so p = word / 2**64 puts the threshold on that word
        state, k = 0, 0
        while True:
            state, z = splitmix64(state)
            if z.bit_length() <= 53:
                break
            k += 1
        n = 3
        while n * (n - 1) // 2 <= k:
            n += 1
        u, v = list(combinations(range(n), 2))[k]
        p = z / 2.0**64
        assert int(p * 2.0**64) == z
        g = gen_gnp(n, p, 0)
        assert g == reference_gnp(n, p, 0) and not g.has_edge(u, v)
        assert gen_gnp(n, (z + 1) / 2.0**64, 0).has_edge(u, v)

    @pytest.mark.parametrize(
        "n,seed,message",
        [
            (2.0, 1, "vertex count must be an integer, got 2.0"),
            ("5", 1, "vertex count must be an integer, got '5'"),
            (5, 1.5, "seed must be an integer, got 1.5"),
            (5, None, "seed must be an integer, got None"),
        ],
    )
    def test_gnp_rejects_non_integers(self, n, seed, message):
        with pytest.raises(ValueError) as err:
            gen_gnp(n, 0.5, seed)
        assert str(err.value) == message

    @given(small_graphs)
    def test_generated_adjacency_symmetric_loopless(self, g):
        for u in range(g.n):
            assert u not in g.adj[u]
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestDegeneracy:
    def test_complete(self):
        assert degeneracy(complete_graph(5)).d == 4

    def test_tree(self):
        assert degeneracy(path_graph(6)).d == 1
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert degeneracy(star).d == 1

    def test_rook33(self):
        g = gen_rook(3, 3)
        assert brute_degeneracy(g) == 4  # oracle agrees: frozen value
        assert degeneracy(g).d == 4

    @given(small_graphs)
    def test_against_brute_force(self, g):
        assert degeneracy(g).d == brute_degeneracy(g)

    @given(small_graphs)
    def test_order_witnesses_value(self, g):
        cert = degeneracy(g)
        assert sorted(cert.order) == list(range(g.n))
        seen = set()
        for u in cert.order:
            forward = g.adj[u] - seen
            assert len(forward) <= cert.d
            seen.add(u)

    @given(small_graphs)
    def test_at_most_max_degree(self, g):
        if g.n:
            assert degeneracy(g).d <= max((g.degree(u) for u in range(g.n)), default=0)

    @given(small_graphs)
    def test_removing_first_never_raises_forward_degrees(self, g):
        if g.n < 2:
            return
        cert = degeneracy(g)
        first = cert.order[0]

        def forward_counts(adj_sets, order):
            seen, out = set(), {}
            for u in order:
                out[u] = len(adj_sets[u] - seen)
                seen.add(u)
            return out

        before = forward_counts(g.adj, cert.order)
        pruned = [a - {first} for a in g.adj]
        after = forward_counts(pruned, cert.order[1:])
        assert all(after[u] <= before[u] for u in cert.order[1:])


class TestInduced:
    def test_identity(self):
        g = gen_rook(2, 3)
        h, kept = induced_subgraph(g, range(g.n))
        assert h == g and kept == tuple(range(g.n))

    def test_k4_pair(self):
        h, kept = induced_subgraph(complete_graph(4), {0, 1})
        assert h.n == 2 and h.edges() == [(0, 1)]

    def test_path_drop_middle(self):
        h, kept = induced_subgraph(path_graph(4), {0, 2, 3})
        assert kept == (0, 2, 3)
        assert h.edges() == [(1, 2)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), {0, 5})


def reference_masks(g):
    """Neighbour masks built one edge at a time from ``g.edges()``."""
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def mask_answers(g, w):
    """What the mask readers say about g: the masks first, so they are cached."""
    return (
        list(g.neighbor_masks()),
        [sd_pair(g, u, v) for u, v in combinations(range(g.n), 2)],
        check_witness(g, w),
        is_diverse(g, range(g.n), 0),
        sdd_greedy(g, 0),
    )


class TestNeighborMasks:
    def test_same_object(self):
        g = gen_gnp(30, 0.3, 1)
        assert g.neighbor_masks() is g.neighbor_masks()

    @given(small_graphs, st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))))
    def test_match_reference_across_edits(self, g, toggles):
        assert list(g.neighbor_masks()) == reference_masks(g)
        for u, v in toggles:
            if u == v or max(u, v) >= g.n:
                continue
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
            assert list(g.neighbor_masks()) == reference_masks(g)

    @pytest.mark.parametrize("edit", ["add_edge", "remove_edge"])
    def test_edit_drops_cache(self, edit):
        # C4 is P4 plus the edge (0, 3); every reader changes its answer.
        p4, c4 = path_graph(4), cycle_graph(4)
        start, want = (p4, c4) if edit == "add_edge" else (c4, p4)
        w = sdd_greedy(c4, 0)
        g = Graph(4, start.edges())
        before = mask_answers(g, w)
        getattr(g, edit)(0, 3)
        assert mask_answers(g, w) == mask_answers(want, w) != before


class TestConstructorRejects:
    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (2.5, (), "vertex count must be an integer, got 2.5"),
            (3, [(0, 1.0)], "vertex must be an integer, got 1.0"),
        ],
    )
    def test_non_integers(self, n, edges, message):
        with pytest.raises(ValueError) as err:
            Graph(n, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([5], "edge 5 is not a pair of vertices"),
            ([(0, 1), (0, 1, 2)], "edge (0, 1, 2) is not a pair of vertices"),
            ([(0,)], "edge (0,) is not a pair of vertices"),
            ([None], "edge None is not a pair of vertices"),
            (5, "edges must be an iterable of vertex pairs, got 5"),
            (None, "edges must be an iterable of vertex pairs, got None"),
        ],
    )
    def test_edge_not_a_pair(self, edges, message):
        with pytest.raises(ValueError) as err:
            Graph(3, edges)
        assert str(err.value) == message


class TestNonIntegerVertices:
    """Every vertex argument is checked before the graph changes."""

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None, (1,)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, x: g.add_edge(0, x),
            lambda g, x: g.add_edge(x, 2),
            lambda g, x: g.remove_edge(0, x),
            lambda g, x: g.remove_edge(x, 0),
            lambda g, x: g.has_edge(0, x),
            lambda g, x: g.has_edge(x, 1),
            lambda g, x: g.degree(x),
        ],
    )
    def test_rejected_before_any_change(self, call, bad):
        g = Graph(3, [(0, 1)])
        masks = g.neighbor_masks()
        with pytest.raises(ValueError) as err:
            call(g, bad)
        assert str(err.value) == f"vertex must be an integer, got {bad!r}"
        assert g.adj == [{1}, {0}, set()]
        assert g.neighbor_masks() is masks

    def test_add_float_leaves_no_edge(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 1.5)
        assert g.adj == [set(), set(), set()]
        assert not g.has_edge(0, 1)

    def test_integer_likes_still_accepted(self):
        g = Graph(3)
        g.add_edge(True, 2)
        assert g.has_edge(1, 2) and g.degree(True) == 1


class TestRemoveEdge:
    def test_removes_both_directions(self):
        g = complete_graph(3)
        g.remove_edge(2, 0)
        assert g.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "u,v,message",
        [
            (0, 3, "vertex 3 out of range [0, 3)"),
            (-1, 1, "vertex -1 out of range [0, 3)"),
            (1, 1, "self-loop at vertex 1"),
            (0, 2, "no edge (0, 2)"),
        ],
    )
    def test_rejects(self, u, v, message):
        g = path_graph(3)
        with pytest.raises(ValueError) as err:
            g.remove_edge(u, v)
        assert str(err.value) == message
        assert g.edges() == [(0, 1), (1, 2)]


class TestEdgeListFormat:
    def test_single_edge(self):
        g = load_edge_list("p el 2 1\ne 0 1\n")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_isolated(self):
        g = load_edge_list("p el 3 0\n")
        assert g.n == 3 and g.num_edges == 0

    def test_comments(self):
        g = load_edge_list("# header comment\np el 2 1\n# mid\ne 0 1\n")
        assert g.num_edges == 1

    @pytest.mark.parametrize(
        "text,frag",
        [
            ("p el 2 1\ne 0 0\n", "self-loop"),
            ("p el 2 2\ne 0 1\ne 0 1\n", "duplicate"),
            ("p el 2 1\ne 1 0\n", "u < v"),
            ("p el 2 1\ne 0 5\n", "out of range"),
            ("p el 2 1\nq 0 1\n", "unknown"),
            ("p el 2 2\ne 0 1\n", "declares"),
            ("e 0 1\n", "before header"),
            ("p el 2 1\ne 0 x\n", "malformed"),
        ],
    )
    def test_rejects(self, text, frag):
        with pytest.raises(ValueError, match=frag):
            load_edge_list(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p el 2 1\ne 0 5\n", "line 2: vertex 5 out of range [0, 2)"),
            ("p el 2 1\n# c\ne -1 1\n", "line 3: vertex -1 out of range [0, 2)"),
            ("p el 2 1\ne 1 1\n", "line 2: self-loop at vertex 1"),
        ],
    )
    def test_rejects_with_line_number(self, text, message):
        with pytest.raises(ValueError) as err:
            load_edge_list(text)
        assert str(err.value) == message

    @given(small_graphs)
    def test_round_trip(self, g):
        text = save_edge_list(g)
        again = load_edge_list(text)
        assert again == g
        assert save_edge_list(again) == text
