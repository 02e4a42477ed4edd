"""Signed tree models: validity, realization, cleaning, constructions."""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from sdlabel import Graph, check_witness, embed_sdd1, gen_gnp, sdd_exact
from sdlabel.balance import shallowise
from sdlabel.model import (
    BLUE,
    GREEN,
    ResolvedEdge,
    SignedTreeModel,
    _canonical_bfs,
    is_clean,
    load_stm,
    make_clean,
    realize,
    resolve,
    save_stm,
    sparsity,
    stm_from_welzl,
    stm_from_witness,
    validate,
    width,
)
from sdlabel.twins import SddWitness

from conftest import build_figure_model, complete_bipartite, complete_graph, path_graph


def trivial_model(g):
    """Arbitrary full tree with empty greens and one blue per edge."""
    children = [None] * g.n
    leafv = list(range(g.n))
    roots = list(range(g.n))
    while len(roots) > 1:
        a, b = roots[0], roots[1]
        children.append((a, b))
        leafv.append(-1)
        roots = [len(children) - 1] + roots[2:]
    return SignedTreeModel(children, leafv, [], g.edges())


def reference_pairs_cross(m, p, q):
    """Literal four-clause crossing test between two transversal pairs,
    the brute-force check of validate's crossing sweep."""
    u, v = p
    a, b = q

    def s(a, b):
        return a != b and m.is_ancestor(a, b)

    return (
        (s(u, a) and s(b, v))
        or (s(a, u) and s(v, b))
        or (s(u, b) and s(a, v))
        or (s(b, u) and s(v, a))
    )


class _Fenwick:
    __slots__ = ("n", "t")

    def __init__(self, n):
        self.n = n
        self.t = [0] * (n + 1)

    def add(self, i, delta):
        i += 1
        while i <= self.n:
            self.t[i] += delta
            i += i & (-i)

    def prefix(self, i):  # sum of [0, i]
        i += 1
        s = 0
        while i > 0:
            s += self.t[i]
            i -= i & (-i)
        return s

    def range_sum(self, lo, hi):
        if lo > hi:
            return 0
        return self.prefix(hi) - (self.prefix(lo - 1) if lo > 0 else 0)


def reference_find_crossing(m):
    """The former crossing sweep of validate: a stack DFS that keeps the
    open nodes' partner Euler times in a Fenwick tree and scans the
    subtree range for the first one.  Returns (open pair, entered pair)
    or None, the pair validate names."""
    pairs = sorted(set(m.green) | set(m.blue))
    if len(pairs) < 2:
        return None
    at_node = defaultdict(list)
    for p in pairs:
        a, b = p
        at_node[a].append((p, b))
        at_node[b].append((p, a))
    fw = _Fenwick(m.n_nodes)
    active = defaultdict(list)  # euler position of partner -> pairs
    result = None

    stack = [(m.root, False)]
    while stack and result is None:
        node, done = stack.pop()
        entries = at_node.get(node, ())
        if done:
            for p, c in entries:
                fw.add(m.tin[c], -1)
                active[m.tin[c]].pop()
            continue
        for q, c in entries:
            lo, hi = m.tin[c] + 1, m.tout[c]
            if fw.range_sum(lo, hi) > 0:
                for posn in range(lo, hi + 1):
                    if active.get(posn):
                        result = (active[posn][-1], q)
                        break
                break
        if result is not None:
            break
        for p, c in entries:
            fw.add(m.tin[c], +1)
            active[m.tin[c]].append(p)
        stack.append((node, True))
        ch = m.children[node]
        if ch is not None:
            stack.append((ch[1], False))
            stack.append((ch[0], False))
    return result


def reference_resolve(m, u, v):
    """The deepest pair above the leaves of u and v, by the former
    `_candidates` scan: pairs from u's path below the meet to v's, and
    `max` over (depth sum, pair, color) with no tie check."""
    vl = m.vertex_leaf()
    pu = m.root_path(vl[u])
    pv = m.root_path(vl[v])
    cp = 0
    for x, y in zip(pu, pv):
        if x != y:
            break
        cp += 1
    vside = {node: i for i, node in enumerate(pv[cp:], start=cp)}
    inc = m.incident()
    cands = []
    for i in range(cp, len(pu)):
        x = pu[i]
        for y, color in inc.get(x, ()):
            j = vside.get(y)
            if j is not None:
                cands.append((i + j, (min(x, y), max(x, y)), color))
    if not cands:
        raise ValueError(f"no signed pair above ({u}, {v}); model is not clean")
    return ResolvedEdge(*max(cands)[1:])


def reference_realize(m):
    """realize's former L x L bytearray painting: every signed pair, in
    increasing (depth sum, pair), then a scan of all L^2/2 cells."""
    L = m.n_leaves
    intervals = m.node_intervals()
    order = sorted(
        (m.depth[a] + m.depth[b], (a, b), color)
        for (a, b), color in m.signed_pairs().items()
    )
    mat = [bytearray(L) for _ in range(L)]
    for _, (a, b), color in order:
        alo, ahi = intervals[a]
        blo, bhi = intervals[b]
        fill = (b"\x01" if color == BLUE else b"\x00") * (bhi - blo + 1)
        for r in range(alo - 1, ahi):
            mat[r][blo - 1 : bhi] = fill
        fill = (b"\x01" if color == BLUE else b"\x00") * (ahi - alo + 1)
        for r in range(blo - 1, bhi):
            mat[r][alo - 1 : ahi] = fill
    vert = [m.leaf_vertex[leaf] for leaf in m.leaf_order()]
    g = Graph(L)
    for i in range(L):
        row = mat[i]
        for j in range(i + 1, L):
            if row[j]:
                g.add_edge(vert[i], vert[j])
    return g


def reference_stm_from_witness(g, w):
    """stm_from_witness's former set replay: a copy of the adjacency sets,
    private neighbours as sorted set differences, and each eliminated
    vertex discarded from its neighbours' sets."""
    assert check_witness(g, w)
    n = g.n
    children = [None] * n
    leaf_vertex = list(range(n))
    root_of = {v: v for v in range(n)}
    adj = [set(a) for a in g.adj]
    green = set()
    blue = set()
    norm = lambda a, b: (min(a, b), max(a, b))  # noqa: E731
    for e, p in w.steps:
        re, rp = root_of[e], root_of[p]
        (blue if p in adj[e] else green).add(norm(re, rp))
        for x in sorted(adj[e] - adj[p] - {p}):
            blue.add(norm(re, root_of[x]))
        for x in sorted(adj[p] - adj[e] - {e}):
            green.add(norm(re, root_of[x]))
        children.append((rp, re))
        leaf_vertex.append(-1)
        root_of[p] = len(children) - 1
        del root_of[e]
        for x in adj[e]:
            adj[x].discard(e)
        adj[e].clear()
    return SignedTreeModel(children, leaf_vertex, green, blue)


def outcome(fn, *args):
    """fn(*args), or the ValueError class if it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@st.composite
def random_models(draw):
    """Random valid model: a witness model of a random graph, with a few
    sibling greens dropped to exercise the non-clean paths."""
    n = draw(st.integers(min_value=2, max_value=8))
    bits = draw(st.integers(min_value=0))
    edges = [
        e
        for k, e in enumerate((u, v) for u in range(n) for v in range(u + 1, n))
        if (bits >> k) & 1
    ]
    g = Graph(n, edges)
    d, w = sdd_exact(g)
    m = stm_from_witness(g, w)
    drop = draw(st.sets(st.sampled_from(sorted(m.green)) if m.green else st.nothing()))
    return SignedTreeModel(
        m.children, m.leaf_vertex, set(m.green) - drop, m.blue
    ), g, drop


class TestValidate:
    def test_figure_model(self, figure_model):
        m, names = figure_model
        ok, issues = validate(m)
        assert ok and not issues
        assert m.n_nodes == 27 and m.n_leaves == 14
        assert len(m.green) == 4 and len(m.blue) == 9

    def test_non_transversal(self, figure_model):
        m, names = figure_model
        bad = SignedTreeModel(
            m.children, m.leaf_vertex, [(names["a"], names["L1"])], []
        )
        ok, issues = validate(bad)
        assert not ok and any("transversal" in s for s in issues)

    def test_crossing_blue_pairs(self, figure_model):
        # u' strictly below u on one side, v strictly below v' on the other
        m, names = figure_model
        bad = SignedTreeModel(
            m.children,
            m.leaf_vertex,
            [],
            [(names["c"], names["j"]), (names["L1"], names["i"])],
        )
        ok, issues = validate(bad)
        assert not ok and any("cross" in s for s in issues)

    def test_color_overlap(self, figure_model):
        m, names = figure_model
        p = [(names["c"], names["j"])]
        ok, issues = validate(SignedTreeModel(m.children, m.leaf_vertex, p, p))
        assert not ok and any("both green and blue" in s for s in issues)

    def test_leaf_bijection(self):
        with pytest.raises(ValueError):
            SignedTreeModel([None, None, (0, 1)], [0, 0, -1]).vertex_leaf()
        ok, issues = validate(SignedTreeModel([None, None, (0, 1)], [0, 2, -1]))
        assert not ok and any("bijection" in s for s in issues)

    @given(random_models())
    @settings(max_examples=40)
    def test_sweep_agrees_with_pairwise_crossing(self, mgd):
        m, _, _ = mgd
        pairs = sorted(m.green | m.blue)
        brute = any(
            reference_pairs_cross(m, p, q) for p, q in combinations(pairs, 2)
        )
        ok, issues = validate(m)
        assert ok == (not brute)

    @given(st.sets(st.tuples(st.integers(0, 26), st.integers(0, 26)), max_size=12))
    @settings(max_examples=120)
    def test_sweep_matches_brute_on_random_pairs(self, raw):
        # arbitrary transversal pairs on the 27-node figure tree, crossing
        # or not; the sweep must agree with the literal pairwise test
        m0, _ = build_figure_model()
        pairs = sorted(
            {
                (min(a, b), max(a, b))
                for a, b in raw
                if a != b and m0.is_transversal(a, b)
            }
        )
        m = SignedTreeModel(m0.children, m0.leaf_vertex, [], pairs)
        brute = any(reference_pairs_cross(m, p, q) for p, q in combinations(pairs, 2))
        ok, _ = validate(m)
        assert ok == (not brute)

    @given(
        st.sets(st.tuples(st.integers(0, 26), st.integers(0, 26)), max_size=16),
        st.integers(min_value=0),
    )
    # entering leaf 4 with (4, 25), the open pairs (13, 19) and (13, 18)
    # both end at leaf 13 below 25; the one owned deeper, at 18, is named
    @example({(2, 6), (4, 25), (5, 24), (8, 24), (13, 18), (13, 19)}, 0)
    @settings(max_examples=300)
    def test_names_the_reference_crossing(self, raw, colors):
        # transversal pairs on the 27-node figure tree, each green or blue
        # by one bit of colors; validate names the pair the former sweep found
        m0, _ = build_figure_model()
        pairs = sorted(
            {
                (min(a, b), max(a, b))
                for a, b in raw
                if a != b and m0.is_transversal(a, b)
            }
        )
        green = [p for k, p in enumerate(pairs) if colors >> k & 1]
        blue = [p for k, p in enumerate(pairs) if not colors >> k & 1]
        m = SignedTreeModel(m0.children, m0.leaf_vertex, green, blue)
        want = reference_find_crossing(m)
        expected = [] if want is None else [f"pairs {want[0]} and {want[1]} cross"]
        assert validate(m) == (want is None, expected)

    def test_corpus_models_do_not_cross(self, corpus):
        for name, g, w in corpus:
            m = make_clean(stm_from_witness(g, w))
            b = make_clean(shallowise(m, w.d + 1))
            for model in (m, b):
                assert validate(model) == (True, []), name
                assert reference_find_crossing(model) is None, name
                assert [model.tin[x] for x in model.preorder] == list(
                    range(model.n_nodes)
                ), name


class TestWidthSparsity:
    def test_empty_signed(self):
        m = SignedTreeModel([None, None, (0, 1)], [0, 1, -1])
        assert width(m) == 0
        assert sparsity(m) == 0

    def test_trivial_k3(self):
        m = trivial_model(complete_graph(3))
        assert width(m) == 2  # the auxiliary graph is a triangle on leaves

    def test_figure_sparsity(self, figure_model):
        m, _ = figure_model
        assert sparsity(m) == Fraction(13, 27)

    @given(random_models())
    @settings(max_examples=30)
    def test_sparsity_at_most_width(self, mgd):
        m, _, _ = mgd
        assert sparsity(m) <= width(m)


class TestRealizeResolve:
    def test_trivial_model_realizes_itself(self):
        g = gen_gnp(7, 0.5, 9)
        assert realize(trivial_model(g)) == g

    def test_figure_adjacencies(self, figure_model):
        m, _ = figure_model
        g = realize(m)
        assert g.has_edge(3, 7)  # leaves 4 and 8: blue pair of their parents
        assert not g.has_edge(6, 7)  # leaves 7, 8: green pair of grandparents

    def test_resolve_siblings(self):
        m = SignedTreeModel([None, None, (0, 1)], [0, 1, -1], [], [(0, 1)])
        got = resolve(m, 0, 1)
        assert got.pair == (0, 1) and got.color == "blue"

    def test_resolve_figure(self, figure_model):
        m, names = figure_model
        mc = make_clean(m)
        r = resolve(mc, 3, 7)
        assert r.color == "blue"
        assert set(r.pair) == {names["f"], names["j"]}
        r = resolve(mc, 6, 7)
        assert r.color == "green"
        assert set(r.pair) == {names["e"], names["i"]}

    def test_out_of_range_arguments(self, figure_model):
        m, _ = figure_model
        with pytest.raises(ValueError, match=r"^node 999 out of range \[0, 27\)$"):
            m.root_path(999)
        with pytest.raises(ValueError, match=r"^node -1 out of range \[0, 27\)$"):
            m.root_path(-1)
        with pytest.raises(ValueError, match=r"^node 999 out of range \[0, 27\)$"):
            m.pair_leq((0, 999), (1, 2))
        with pytest.raises(ValueError, match=r"^node -1 out of range \[0, 27\)$"):
            m.pair_leq((-1, 2), (3, 4))
        mc = make_clean(m)
        with pytest.raises(ValueError, match=r"^vertex 99 out of range \[0, 14\)$"):
            resolve(mc, 0, 99)
        with pytest.raises(ValueError, match=r"^vertex -1 out of range \[0, 14\)$"):
            resolve(mc, -1, 0)

    def test_resolve_vertex_must_be_an_integer(self, figure_model):
        mc = make_clean(figure_model[0])
        with pytest.raises(ValueError, match=r"^vertex must be an integer, got 1\.0$"):
            resolve(mc, 1.0, 2)
        with pytest.raises(ValueError, match=r"^vertex must be an integer, got 'a'$"):
            resolve(mc, "a", 1)

    def test_resolve_needs_clean(self):
        m = SignedTreeModel([None, None, (0, 1)], [0, 1, -1])
        with pytest.raises(ValueError, match="not clean"):
            resolve(m, 0, 1)

    @given(random_models())
    @settings(max_examples=60)
    def test_resolve_matches_reference(self, mgd):
        m, _, _ = mgd
        for model in (m, make_clean(m)):
            for u, v in combinations(range(model.n_leaves), 2):
                got = outcome(resolve, model, u, v)
                assert got == outcome(reference_resolve, model, u, v)
                assert got == outcome(resolve, model, v, u)

    def test_resolve_rejects_crossing_pairs(self):
        # (0, 5) and (2, 4) cross and both sit at depth 3 above leaves 0, 2
        m = SignedTreeModel(
            [None] * 4 + [(0, 1), (2, 3), (4, 5)],
            [0, 1, 2, 3, -1, -1, -1],
            [(0, 5), (0, 1), (2, 3), (4, 5)],
            [(2, 4)],
        )
        ok, issues = validate(m)
        assert not ok and issues == ["pairs (2, 4) and (0, 5) cross"]
        assert reference_resolve(m, 0, 2) == ResolvedEdge((2, 4), "blue")
        with pytest.raises(ValueError) as err:
            resolve(m, 0, 2)
        assert str(err.value) == "signed pairs (0, 5) and (2, 4) tie at depth 3"

    @given(random_models())
    @settings(max_examples=100)
    def test_clean_preserves_realization(self, mgd):
        m, _, _ = mgd
        assert realize(make_clean(m)) == realize(m)

    @given(random_models())
    @settings(max_examples=40)
    def test_resolve_color_matches_realize(self, mgd):
        m, _, _ = mgd
        mc = make_clean(m)
        g = realize(mc)
        for u, v in combinations(range(mc.n_leaves), 2):
            assert (resolve(mc, u, v).color == "blue") == g.has_edge(u, v)


class TestRealizeReference:
    def test_corpus_witness_and_balanced_models(self, corpus):
        for name, g, w in corpus:
            m = make_clean(stm_from_witness(g, w))
            b = make_clean(shallowise(m, w.d + 1))
            assert realize(m) == reference_realize(m) == g, name
            assert realize(b) == reference_realize(b) == g, name

    def test_figure_model(self, figure_model):
        m, _ = figure_model
        # every blue pair also green: validate rejects it, and blue wins
        both = SignedTreeModel(m.children, m.leaf_vertex, m.green | m.blue, m.blue)
        for model in (m, make_clean(m), both):
            assert realize(model) == reference_realize(model)
        assert realize(both) == realize(m)

    @given(random_models())
    @settings(max_examples=100)
    def test_random_models(self, mgd):
        m, _, _ = mgd
        for model in (m, make_clean(m)):
            assert realize(model) == reference_realize(model)

    def test_rejects_tying_crossing_pairs(self):
        # a clean model whose pairs (1, 10) and (4, 7) cross and tie at
        # depth 5 above leaves 1 and 4; the reference paints one over the other
        children = [None] * 7 + [(1, 2), (0, 7), (5, 6), (3, 4), (9, 10), (8, 11)]
        green = [(0, 7), (1, 2), (3, 4), (4, 7), (5, 6), (8, 11), (9, 10)]
        blue = [(0, 1), (0, 4), (1, 10), (4, 9)]
        m = SignedTreeModel(children, list(range(7)) + [-1] * 6, green, blue)
        assert is_clean(m) and not validate(m)[0]
        with pytest.raises(ValueError) as err:
            realize(m)
        assert str(err.value) == "signed pairs (1, 10) and (4, 7) tie at depth 5"
        with pytest.raises(ValueError, match=r"^signed pairs \(1, 10\) and \(4, 7\) tie"):
            resolve(m, 1, 4)


class TestMakeClean:
    def test_idempotent(self, figure_model):
        m, _ = figure_model
        mc = make_clean(m)
        assert is_clean(mc)
        assert make_clean(mc) is mc

    def test_figure_additions(self, figure_model):
        m, names = figure_model
        mc = make_clean(m)
        added = mc.green - m.green
        expected_names = [
            ("b", "e"),
            ("L1", "L2"),
            ("L4", "L5"),
            ("f", "g"),
            ("L8", "L9"),
            ("j", "L10"),
            ("i", "l"),
            ("m", "n"),
            ("L13", "L14"),
        ]
        expected = {
            tuple(sorted((names[x], names[y]))) for x, y in expected_names
        }
        assert added == expected  # exactly the nine sibling greens

    def test_empty_model_on_four_leaves(self):
        children = [None, None, None, None, (0, 1), (2, 3), (4, 5)]
        leafv = [0, 1, 2, 3, -1, -1, -1]
        m = SignedTreeModel(children, leafv)
        mc = make_clean(m)
        assert len(mc.green) == 3 and not mc.blue
        assert realize(mc) == Graph(4)

    @given(random_models())
    @settings(max_examples=30)
    def test_width_grows_by_at_most_one(self, mgd):
        m, _, _ = mgd
        assert width(make_clean(m)) <= width(m) + 1


class TestFromWitness:
    def test_single_vertex(self):
        m = stm_from_witness(Graph(1), SddWitness(0, ()))
        assert m.n_nodes == 1 and not (m.green | m.blue)

    def test_k3_zero_witness(self):
        g = complete_graph(3)
        d, w = sdd_exact(g)
        m = stm_from_witness(g, w)
        assert width(m) <= 1
        assert realize(m) == g

    def test_embedded_path(self):
        host, w, _ = embed_sdd1(path_graph(4))
        m = stm_from_witness(host, w)
        assert is_clean(m)
        assert width(m) <= 2
        assert realize(m) == host

    def test_rejects_bad_witness(self):
        with pytest.raises(ValueError, match="witness"):
            stm_from_witness(path_graph(4), SddWitness(0, ((0, 1), (1, 2), (2, 3))))

    def test_rejects_what_check_witness_rejects(self, corpus):
        """The replay verifies as it goes: each single corruption of a
        corpus witness fails check_witness and raises its message."""
        tried = 0
        for name, g, w in corpus:
            n, steps = g.n, w.steps
            assert realize(stm_from_witness(g, w)) == g, name
            bad = [SddWitness(w.d, steps + ((0, 1),)), SddWitness(-1, steps)]
            if steps:
                bad.append(SddWitness(w.d, steps[:-1]))
            least = next(d for d in range(w.d + 1) if check_witness(g, SddWitness(d, steps)))
            if least > 0:  # below one step's sd
                bad.append(SddWitness(least - 1, steps))
            for k in sorted({0, 1, len(steps) // 2, len(steps) - 1} & set(range(len(steps)))):
                e, p = steps[k]
                for step in ((e, e), (n, p), (e, n), (-1, p), (e, -1)):
                    bad.append(SddWitness(w.d, steps[:k] + (step,) + steps[k + 1:]))
                if k:
                    first = steps[0][0]  # eliminated by step 0
                    for step in ((first, p), (e, first)):  # repeated, dead partner
                        bad.append(SddWitness(w.d, steps[:k] + (step,) + steps[k + 1:]))
            for x in bad:
                assert not check_witness(g, x), (name, x)
                with pytest.raises(ValueError) as err:
                    stm_from_witness(g, x)
                assert str(err.value) == "witness rejected by check_witness", (name, x)
                tried += 1
        assert tried > 2_000

    def test_mask_replay_matches_set_replay(self, corpus):
        for name, g, w in corpus:
            got, want = stm_from_witness(g, w), reference_stm_from_witness(g, w)
            assert got.children == want.children, name
            assert got.leaf_vertex == want.leaf_vertex, name
            assert (got.green, got.blue) == (want.green, want.blue), name

    def test_corpus_round_trip(self, corpus):
        for name, g, w in corpus[:40]:
            m = stm_from_witness(g, w)
            assert is_clean(m), name
            assert realize(m) == g, name
            assert width(m) <= w.d + 1, name


class TestFromWelzl:
    def test_no_edges(self):
        g = Graph(2)
        m = stm_from_welzl(g, [0], [1], [0, 1], {})
        assert validate(m)[0] and realize(m) == g
        assert not (m.green | m.blue)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        iv = {0: [(2, 4)], 1: [(2, 4)]}
        m = stm_from_welzl(g, [0, 1], [2, 3, 4], [0, 1, 2, 3, 4], iv)
        assert validate(m)[0]
        assert realize(m) == g
        assert width(m) <= 2

    def test_two_intervals_per_vertex(self):
        g = Graph(6, [(0, 3), (0, 5), (1, 4), (2, 3), (2, 5)])
        iv = {0: [(3, 3), (5, 5)], 1: [(4, 4)], 2: [(3, 3), (5, 5)]}
        m = stm_from_welzl(g, [0, 1, 2], [3, 4, 5], [0, 1, 2, 3, 4, 5], iv)
        assert validate(m)[0]
        assert realize(m) == g
        assert width(m) <= 4

    def test_rejects_non_bipartite(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="inside one part"):
            stm_from_welzl(g, [0, 1], [2, 3], [0, 1, 2, 3], {0: [(2, 3)]})

    def test_rejects_bad_intervals(self):
        g = complete_bipartite(1, 2)
        with pytest.raises(ValueError, match="cover"):
            stm_from_welzl(g, [0], [1, 2], [0, 1, 2], {0: [(1, 1)]})

    def test_welzl_order_general(self):
        # neighborhoods that need interleaved stops: X={0,1}, Y={2,3,4,5}
        g = Graph(6, [(0, 2), (0, 3), (1, 3), (1, 4), (0, 5), (1, 5)])
        iv = {0: [(2, 3), (5, 5)], 1: [(3, 5)]}
        m = stm_from_welzl(g, [0, 1], [2, 3, 4, 5], [0, 1, 2, 3, 4, 5], iv)
        assert validate(m)[0]
        assert realize(m) == g


class TestSerialization:
    def test_round_trip_figure(self, figure_model):
        m, _ = figure_model
        text = save_stm(m)
        again = load_stm(text)
        assert realize(again) == realize(m)
        assert save_stm(again) == text

    def test_canonical_bfs_preserves_everything(self, figure_model):
        m, _ = figure_model
        c = _canonical_bfs(m)
        assert c.root == 0
        assert realize(c) == realize(m)
        assert width(c) == width(m)

    def test_complete_flag(self, figure_model):
        m, _ = figure_model
        text = save_stm(m, complete=True)
        assert text.splitlines()[0].endswith("complete 1")
        assert realize(load_stm(text)) == realize(m)

    @pytest.mark.parametrize(
        "text",
        [
            "t 0 -1 0\n",
            "p stm 2 1\nt 0 -1 -1\nt 1 0 0\n",
            "p stm 1 1\nt 0 -1 0\ng 0 zero\n",
            "p stm 1 1\nt 0 -1 0\nt 0 -1 0\n",
            "p stm 1 1\np stm 1 1\nt 0 -1 0\n",
            "p stm 3 1\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\n",
            "p stm 1 1\nt 0 -1 0 7\n",
            "p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\ng 1 2 0\n",
            "p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\nb 1 2 0\n",
            "p stm 3 2 foo bar\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\n",
            "p stm 1 1\nt 0 5 0\n",
            "p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 3 1\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            load_stm(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p stm 1 1\nt 0 -1 0\n# again\nt 0 -1 0\n", "line 4: repeated node 0"),
            ("p stm 1 1\np stm 1 1\n", "line 2: duplicate header"),
            ("p stm 3 1\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\n",
             "line 1: header declares 1 leaves, node table has 2"),
            ("p stm 1 1\nt 0 -1 0 7\n", "line 2: malformed record 't 0 -1 0 7'"),
            ("p stm 3 2 foo bar\n", "line 1: malformed header 'p stm 3 2 foo bar'"),
            ("p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 3 1\n",
             "line 4: parent 3 of node 2 out of range"),
            ("p stm 2 1\nt 2 -1 0\n", "line 2: node 2 out of range [0, 2)"),
            ("t 0 -1 0\np stm 1 1\n", "line 1: record before header"),
            ("p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\ng 1 9\n",
             "line 5: signed pair (1, 9) out of range [0, 3)"),
            ("p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\ng 1 1\n",
             "line 5: signed pair (1, 1) is degenerate"),
            ("p stm 3 2\nt 0 -1 -1\nt 1 0 0\nt 2 0 1\n# blue\nb 2 2\n",
             "line 6: signed pair (2, 2) is degenerate"),
        ],
    )
    def test_rejects_with_line_number(self, text, message):
        with pytest.raises(ValueError) as err:
            load_stm(text)
        assert str(err.value) == message
