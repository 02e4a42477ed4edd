"""Complete-tree interval covers, shallowisation, and the width bound."""

import hashlib
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sdlabel import Graph, gen_gnp, sdd_exact
from sdlabel.bench import bench_instance
from sdlabel.balance import (
    Orientation,
    _covers,
    complete_tree,
    interval_cover,
    orient_low_outdegree,
    shallowise,
    width_bound,
)
from sdlabel.model import (
    SignedTreeModel,
    is_clean,
    make_clean,
    realize,
    save_stm,
    stm_from_witness,
    validate,
    width,
)

from conftest import build_figure_model


def min_cover_oracle(n, i, j):
    """Independent DP over leaf positions: (minimum node count, number of
    optimal covers) for partitioning [i, j] into subtree leaf sets."""
    t = complete_tree(n)
    starts = {}
    for node in range(t.n_nodes):
        lo, hi = t.node_intervals()[node]
        if i <= lo and hi <= j:
            starts.setdefault(lo, []).append(hi)

    @lru_cache(maxsize=None)
    def f(p):
        if p == j + 1:
            return 0, 1
        best, count = None, 0
        for hi in starts.get(p, ()):
            sub_best, sub_count = f(hi + 1)
            if sub_best is None:
                continue
            cand = sub_best + 1
            if best is None or cand < best:
                best, count = cand, sub_count
            elif cand == best:
                count += sub_count
        if best is None:
            return None, 0
        return best, count

    return f(i)


class TestCompleteTree:
    @pytest.mark.parametrize("n", list(range(1, 35)) + [100, 255, 256, 257])
    def test_shape(self, n):
        t = complete_tree(n)
        assert t.n_nodes == 2 * n - 1
        expected = 1 if n == 1 else math.ceil(math.log2(n)) + 1
        assert max(t.depth) + 1 == expected
        # left-aligned: leaf depths never increase left to right
        depths = []
        for k in range(1, n + 1):
            node, d = t.leaf_order()[k - 1], 1
            while t.parent[node] != -1:
                node, d = t.parent[node], d + 1
            depths.append(d)
        assert all(a >= b for a, b in zip(depths, depths[1:]))


def reference_complete_tree(n):
    """The BFS size-split builder and interval DFS that CompleteTree used
    before it took heap ids: (children, parent, leaf_of_pos, interval, depth)."""
    children = [None]
    sizes = [n]
    queue = [0]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        s = sizes[node]
        if s == 1:
            continue
        d = (s - 1).bit_length()
        left = 1 if s == 2 else min(1 << (d - 1), s - (1 << (d - 2)))
        l_id, r_id = len(sizes), len(sizes) + 1
        sizes.extend((left, s - left))
        children[node] = (l_id, r_id)
        children.extend((None, None))
        queue.extend((l_id, r_id))
    n_nodes = len(children)
    parent = [-1] * n_nodes
    for i, ch in enumerate(children):
        if ch is not None:
            parent[ch[0]] = parent[ch[1]] = i
    lo = [0] * n_nodes
    hi = [0] * n_nodes
    leaf_of_pos = [0]
    maxdep = 0
    stack = [(0, 1, False)]
    while stack:
        node, dep, done = stack.pop()
        ch = children[node]
        if done:
            lo[node] = lo[ch[0]]
            hi[node] = hi[ch[1]]
            continue
        maxdep = max(maxdep, dep)
        if ch is None:
            leaf_of_pos.append(node)
            lo[node] = hi[node] = len(leaf_of_pos) - 1
        else:
            stack.append((node, dep, True))
            stack.append((ch[1], dep + 1, False))
            stack.append((ch[0], dep + 1, False))
    return (
        tuple(children),
        tuple(parent),
        tuple(leaf_of_pos),
        tuple(zip(lo, hi)),
        maxdep,
    )


class TestCompleteTreeReference:
    """complete_tree(n) equals the BFS/DFS builder it replaced, field by field."""

    SIZES = list(range(1, 513)) + [1023, 1024, 1025, 4096, 16383, 16384, 16385]

    def test_matches_reference(self):
        for n in self.SIZES:
            t = complete_tree(n)
            got = (
                t.children,
                t.parent,
                (0,) + t.leaf_order(),
                t.node_intervals(),
                max(t.depth) + 1,
            )
            assert got == reference_complete_tree(n), n

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, 1025])
    def test_heap_ids(self, n):
        t = complete_tree(n)
        assert t.n_nodes == 2 * n - 1
        for i in range(t.n_nodes):
            if i < n - 1:
                assert t.children[i] == (2 * i + 1, 2 * i + 2)
            else:
                assert t.children[i] is None
            assert t.parent[i] == ((i - 1) // 2 if i else -1)
        assert sorted(t.leaf_order()) == list(range(n - 1, 2 * n - 1))


def reference_interval_cover(n, i, j):
    """The top-down stack walk that interval_cover used before the bottom-up
    heap walk.  Node intervals come from the size split of
    reference_complete_tree instead of complete_tree(n), so a check over
    thousands of n builds no tree."""
    out = []
    stack = [(0, 1, n)]
    while stack:
        node, lo, hi = stack.pop()
        if i <= lo and hi <= j:
            out.append(node)
            continue
        if hi < i or lo > j:
            continue
        s = hi - lo + 1
        d = (s - 1).bit_length()
        mid = lo + (1 if s == 2 else min(1 << (d - 1), s - (1 << (d - 2)))) - 1
        stack.append((2 * node + 2, mid + 1, hi))
        stack.append((2 * node + 1, lo, mid))
    return tuple(out)


class TestIntervalCoverReference:
    """interval_cover(n, i, j) equals the top-down walk it replaced."""

    def test_every_interval_small(self):
        for n in range(1, 65):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert interval_cover(n, i, j) == reference_interval_cover(n, i, j)

    def test_boundary_and_random_intervals(self):
        # Positions 1, deep, deep + 1 and n are where the perfect leaves
        # end and the shallow leaves begin.
        rng = random.Random(7)
        sizes = list(range(65, 3001)) + [4095, 4096, 4097, 16383, 16384, 16385]
        for n in sizes:
            deep = 2 * n - (1 << (n - 1).bit_length())
            ends = sorted({1, deep, min(deep + 1, n), n})
            intervals = [(i, j) for i in ends for j in ends if i <= j]
            for e in ends:
                intervals.append((e, rng.randint(e, n)))
                intervals.append((rng.randint(1, e), e))
            for _ in range(4):
                i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
                intervals.append((i, j))
            for i, j in intervals:
                assert interval_cover(n, i, j) == reference_interval_cover(n, i, j), (n, i, j)


class TestIntervalCover:
    def test_whole_range(self):
        assert interval_cover(8, 1, 8) == (0,)

    def test_single_leaf(self):
        c = interval_cover(8, 1, 1)
        t = complete_tree(8)
        assert c == (t.leaf_order()[0],)

    def test_middle_range(self):
        t = complete_tree(8)
        c = interval_cover(8, 2, 7)
        assert [t.node_intervals()[x] for x in c] == [(2, 2), (3, 4), (5, 6), (7, 7)]

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            interval_cover(8, 0, 3)
        with pytest.raises(ValueError):
            interval_cover(8, 5, 3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 23, 32])
    def test_minimal_unique_partition(self, n):
        t = complete_tree(n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                c = interval_cover(n, i, j)
                best, count = min_cover_oracle(n, i, j)
                assert len(c) == best
                assert count == 1  # unique minimum
                leaves = [
                    p
                    for x in c
                    for p in range(
                        t.node_intervals()[x][0], t.node_intervals()[x][1] + 1
                    )
                ]
                assert leaves == list(range(i, j + 1))  # ordered partition
                for a in c:
                    for b in c:
                        if a != b:
                            la, ha = t.node_intervals()[a]
                            lb, hb = t.node_intervals()[b]
                            assert not (la <= lb and hb <= ha)  # antichain

    @pytest.mark.parametrize("n", [2, 7, 16, 63, 100, 256])
    def test_two_log_bound_sampled(self, n):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert len(interval_cover(n, i, j)) <= 2 * math.log2(n)


def test_covers_from_children_match_interval_cover(corpus, figure_model):
    models = [make_clean(stm_from_witness(g, w)) for _, g, w in corpus]
    for m in models + [figure_model[0]]:
        n = m.n_leaves
        want = [interval_cover(n, lo, hi) for lo, hi in m.node_intervals()]
        assert [tuple(c) for c in _covers(m, complete_tree(n))] == want


class TestSubtreeInterval:
    def test_root_and_leaves(self, figure_model):
        m, names = figure_model
        iv = m.node_intervals()
        assert iv[m.root] == (1, 14)
        for k, leaf in enumerate(m.leaf_order(), start=1):
            assert iv[leaf] == (k, k)

    def test_figure_parent_of_45(self, figure_model):
        m, names = figure_model
        assert m.node_intervals()[names["f"]] == (4, 5)

    def test_intersecting_intervals_are_nested(self, figure_model):
        m, _ = figure_model
        iv = m.node_intervals()
        for x in range(m.n_nodes):
            for y in range(m.n_nodes):
                lx, hx = iv[x]
                ly, hy = iv[y]
                if max(lx, ly) <= min(hx, hy):  # intersect
                    assert (lx <= ly and hy <= hx) or (ly <= lx and hx <= hy)


class TestWidthBound:
    @pytest.mark.parametrize("m,expect", [(0, 0), (1, 1), (3, 2), (6, 3), (10, 4)])
    def test_values(self, m, expect):
        assert width_bound(m) == expect

    def test_triangle_attains(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        from sdlabel import degeneracy

        assert degeneracy(g).d == width_bound(3) == 2

    def test_k4_attains(self):
        from sdlabel import degeneracy

        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert degeneracy(g).d == width_bound(6) == 3

    @given(st.integers(min_value=0, max_value=10_000))
    def test_ceil_sqrt(self, m):
        b = width_bound(m)
        if m:
            assert (b + 1) ** 2 >= 2 * m > b * b  # ceil(sqrt(2m)) = b + 1


class TestOrientation:
    def test_empty(self):
        o = orient_low_outdegree(range(4), [])
        assert o.max_outdegree == 0 and o.owner == {}

    def test_star(self):
        pairs = [(0, k) for k in range(1, 6)]
        o = orient_low_outdegree(range(6), pairs)
        assert o.max_outdegree == 1
        center_owned = sum(1 for p, owner in o.owner.items() if owner == 0)
        assert center_owned <= 1

    def test_triangle(self):
        o = orient_low_outdegree(range(3), [(0, 1), (1, 2), (0, 2)])
        assert o.max_outdegree == 2

    def test_matches_degeneracy(self):
        g = gen_gnp(12, 0.4, 2)
        from sdlabel import degeneracy

        o = orient_low_outdegree(range(g.n), g.edges())
        assert o.max_outdegree == degeneracy(g).d


class TestShallowise:
    def test_already_complete_leaf_pairs(self):
        # all signed pairs between leaves: covers are singletons and the
        # pair set survives unchanged up to renumbering
        t = complete_tree(4)
        children = list(t.children)
        leafv = [-1] * t.n_nodes
        for k in range(1, 5):
            leafv[t.leaf_order()[k - 1]] = k - 1
        pos = {k: t.leaf_order()[k - 1] for k in range(1, 5)}
        green = [(pos[1], pos[2]), (pos[3], pos[4])]
        blue = [(pos[1], pos[3])]
        m = make_clean(SignedTreeModel(children, leafv, green, blue))
        b = shallowise(m, 2)
        assert sorted(b.green) == sorted(m.green)
        assert sorted(b.blue) == sorted(m.blue)

    def test_realization_preserved_on_witness_models(self):
        for seed in range(6):
            g = gen_gnp(11, 0.35, seed)
            d, w = sdd_exact(g)
            m = stm_from_witness(g, w)
            b = shallowise(m, d + 1)
            ok, issues = validate(b)
            assert ok, issues
            assert realize(b) == g
            n = g.n
            assert max(b.depth) + 1 == math.ceil(math.log2(n)) + 1

    def test_hand_built_conflict_keeps_blue(self):
        # green (x, leaf4) strictly above blue (x1, leaf4); both emit the
        # complete-tree pair ({1,2}-node, leaf 4), which must stay blue
        children = [None, None, None, None, (0, 1), (4, 2), (5, 3)]
        leafv = [0, 1, 2, 3, -1, -1, -1]
        green = [(5, 3), (0, 1)]
        blue = [(4, 3), (4, 2)]
        m = SignedTreeModel(children, leafv, green, blue)
        assert is_clean(m) and validate(m)[0]
        b = shallowise(m, 2)
        t = complete_tree(4)
        left_internal = t.children[0][0]
        leaf4 = t.leaf_order()[3]
        conflicted = tuple(sorted((left_internal, leaf4)))
        assert conflicted in b.blue and conflicted not in b.green
        assert realize(b) == realize(m)

    def test_incomparable_origins_raise(self):
        # a clean model whose pairs (4, 7) and (1, 10) cross: both emit the
        # complete-tree pair (6, 8), and neither origin is above the other
        children = [None] * 7 + [(1, 2), (0, 7), (5, 6), (3, 4), (9, 10), (8, 11)]
        leafv = list(range(7)) + [-1] * 6
        green = [(0, 7), (1, 2), (3, 4), (4, 7), (5, 6), (8, 11), (9, 10)]
        blue = [(0, 1), (0, 4), (1, 10), (4, 9)]
        m = SignedTreeModel(children, leafv, green, blue)
        assert is_clean(m)
        with pytest.raises(ValueError, match="incomparable origins"):
            shallowise(m, 2)

    def test_non_transversal_pair_rejected(self):
        # parent-child pairs are not transversal: (5, 4) would pair leaf 1
        # with itself, and (3, 5) would emit the non-transversal (2, 6)
        children = [None] * 4 + [(1, 2), (4, 3), (0, 5)]
        leafv = [0, 1, 2, 3, -1, -1, -1]
        for blue in ((4, 5), (3, 5)):
            m = SignedTreeModel(children, leafv, [(1, 2), (3, 4), (0, 5)], [blue])
            assert is_clean(m)
            with pytest.raises(ValueError) as exc:
                shallowise(m, 1)
            assert str(exc.value) == f"signed pair {blue} is not transversal"

    def test_requires_clean(self):
        children = [None, None, (0, 1)]
        m = SignedTreeModel(children, [0, 1, -1])
        with pytest.raises(ValueError, match="clean"):
            shallowise(m, 1)

    def test_sparsity_declaration_checked(self, figure_model):
        m, _ = figure_model
        mc = make_clean(m)
        with pytest.raises(ValueError, match="sparse"):
            shallowise(mc, 0)

    def test_pair_count_bound(self):
        for seed in range(4):
            g = gen_gnp(13, 0.5, seed)
            d, w = sdd_exact(g)
            m = stm_from_witness(g, w)
            b = shallowise(m, d + 1)
            n = g.n
            cap = (2 * n - 1) * (d + 1) * (2 * math.log2(n)) ** 2
            assert len(b.green | b.blue) <= cap

    def test_output_width_within_edge_bound(self):
        g = gen_gnp(12, 0.4, 7)
        d, w = sdd_exact(g)
        b = shallowise(stm_from_witness(g, w), d + 1)
        assert width(b) <= width_bound(len(b.green | b.blue))


def fill_caches(m):
    m.vertex_leaf()
    m.incident()
    m.node_intervals()
    m.root_path(m.leaf_order()[0])


def assert_same_as_fresh(x):
    """x equals the model the constructor derives from x's own input."""
    y = SignedTreeModel(x.children, x.leaf_vertex, x.green, x.blue)
    for field in ("parent", "root", "tin", "tout", "depth", "green", "blue"):
        assert getattr(x, field) == getattr(y, field), field
    assert x.leaf_order() == y.leaf_order()
    assert x.node_intervals() == y.node_intervals()
    assert x.vertex_leaf() == y.vertex_leaf()
    assert x.incident() == y.incident()
    for leaf in y.leaf_order():
        assert x.root_path(leaf) == y.root_path(leaf)


class TestSharedTree:
    """make_clean and shallowise share the tree they keep, and no cache
    filled before the derivation leaks into the derived model."""

    def test_derived_models_equal_fresh(self, corpus):
        for name, g, w in corpus:
            m = stm_from_witness(g, w)
            # drop the sibling pairs so that make_clean has to add them back
            siblings = {tuple(sorted(ch)) for ch in m.children if ch is not None}
            src = SignedTreeModel(
                m.children, m.leaf_vertex, m.green - siblings, m.blue - siblings
            )
            tree = complete_tree(g.n)
            fill_caches(src)
            fill_caches(tree)
            clean = make_clean(src)
            assert clean.tin is src.tin, name
            assert_same_as_fresh(clean)
            fill_caches(clean)
            b = shallowise(clean, w.d + 1)
            assert b.tin is tree.tin, name
            assert_same_as_fresh(b)
            fill_caches(b)
            bc = make_clean(b)
            assert bc.tin is tree.tin, name
            assert_same_as_fresh(bc)
            # the cached tree stays pair-free, with each leaf carrying its id
            assert not tree.green and not tree.blue and tree.incident() == {}
            assert tree.vertex_leaf() == {v: v for v in range(g.n - 1, 2 * g.n - 1)}

    def test_figure_model(self, figure_model):
        m, _ = figure_model
        fill_caches(m)
        clean = make_clean(m)
        assert clean is not m and clean.children is m.children
        assert_same_as_fresh(clean)
        assert_same_as_fresh(make_clean(shallowise(clean, 2)))

    def test_complete_tree_is_a_cached_model(self):
        t = complete_tree(5)
        assert isinstance(t, SignedTreeModel) and t is complete_tree(5)
        assert t.leaf_vertex == (-1, -1, -1, -1, 4, 5, 6, 7, 8)
        with pytest.raises(ValueError, match="at least one leaf"):
            complete_tree(0)


class TestBalancedFingerprints:
    """sha256 of the saved balanced model, as `sdlabel balance` writes it,
    pinned from the top-down cover walk and the sorted-pair origin order."""

    @pytest.mark.parametrize(
        "family,n,d,seed,digest",
        [
            ("embed", 512, 1, 1, "e250d3f11128d71f91f977fa697a4be8ecf51563e770f765d605f3ec3126f81c"),
            ("embed", 512, 1, 2, "5ea16217cc3149980f6afefdd082a966190bbb9bd08d54d74ad32b23e4db8dbf"),
            ("embed", 512, 1, 3, "301e0f6f2279f85b0e01aa35fb9ab301f8f53a68c1274dd4897c12b9f273c05e"),
            ("rook", 256, 1, 0, "2d369d688d21615cdccbd65600ae7052a2eff03567c3a4f5e24974e386753839"),
            ("gnp", 120, 6, 1, "0f9b6f4c76e48407f094d1442fc60bb091fa3221ba3fd63c9cf0bf4d0a46826e"),
            ("gnp", 120, 12, 2, "eb115f3927dc7f603fb51f1efcdb0958f909afb36b45f5296075b96388ad6e22"),
        ],
    )
    def test_saved_balanced_model_unchanged(self, family, n, d, seed, digest):
        g, w = bench_instance(family, n, d, seed)
        b = shallowise(make_clean(stm_from_witness(g, w)), w.d + 1)
        text = save_stm(b, complete=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
