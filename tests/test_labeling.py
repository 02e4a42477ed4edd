"""Adjacency labels: layout, two-label decoding, and the full pipeline."""

import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from sdlabel import Graph, SddWitness, gen_gnp, gen_rook, sdd_exact, embed_sdd1
from sdlabel.balance import shallowise
from sdlabel.bench import bench_instance
from sdlabel.labeling import (
    DEPTH_BITS,
    PREAMBLE_BITS,
    AdjacencyLabel,
    _read,
    _split,
    decode,
    decode_matrix,
    encode,
    label_graph,
    label_stats,
    layout_bound,
    load_labels,
    save_labels,
)
from sdlabel.model import (
    BLUE, SignedTreeModel, deepest_pair, is_clean, make_clean, realize, stm_from_witness,
    validate,
)

from conftest import build_figure_model, complete_graph, orient_low_outdegree, reference_parse


def reference_encode(m):
    """encode's former loop over a global pair sort and per-leaf root
    paths, with ownership from orient_low_outdegree, kept to compare
    against."""
    if not is_clean(m):
        raise ValueError("labels require a clean model")
    ori = orient_low_outdegree(range(m.n_nodes), m.green | m.blue)
    n, width = m.n_leaves, ori.max_outdegree
    id_bits = max(1, (m.n_nodes - 1).bit_length())
    paths = {leaf: m.root_path(leaf) for leaf in m.leaf_order()}
    h_max = max(len(p) for p in paths.values())
    if h_max > (1 << DEPTH_BITS) - 1:
        raise ValueError(f"tree depth {h_max} does not fit the 8-bit path length")
    for limit, value, what in (
        (1 << 16, n, "vertex count"),
        (1 << 16, id_bits, "id width"),
        (1 << 16, width, "scheme width"),
    ):
        if value >= limit:
            raise ValueError(f"{what} {value} does not fit the preamble")
    owned = {}
    for (a, b), color in sorted(m.signed_pairs().items()):
        o = ori.owner[(a, b)]
        other = b if o == a else a
        owned.setdefault(o, []).append((other << 1) | (color == BLUE))
    cb = width.bit_length()
    entry_bits = id_bits + 1
    blocks = {}
    for node, entries in owned.items():
        assert len(entries) <= width
        value = len(entries)
        for entry in entries:
            value = (value << entry_bits) | entry
        blocks[node] = (value, cb + len(entries) * entry_bits)
    empty = (0, cb)
    preamble = (n << 32) | (id_bits << 16) | width
    labels = {}
    for leaf, path in paths.items():
        acc = (preamble << DEPTH_BITS) | len(path)
        for node in path:
            acc = (acc << id_bits) | node
        nbits = PREAMBLE_BITS + DEPTH_BITS + len(path) * id_bits
        for node in path:
            value, bits = blocks.get(node, empty)
            acc = (acc << bits) | value
            nbits += bits
        assert nbits <= layout_bound(n, id_bits, width, len(path))
        pad = (-nbits) % 8
        data = (acc << pad).to_bytes((nbits + pad) // 8, "big")
        labels[m.leaf_vertex[leaf]] = AdjacencyLabel(data, nbits)
    return labels


def encode_outcome(encoder, m):
    """The labels, or the message of the ValueError raised."""
    try:
        return encoder(m)
    except ValueError as exc:
        return str(exc)


def comb_model(k):
    """The clean left comb on k leaves: its deepest leaves have k levels."""
    children = [None] * k
    leaf_vertex = list(range(k))
    top = 0
    for leaf in range(1, k):
        children.append((top, leaf))
        leaf_vertex.append(-1)
        top = len(children) - 1
    return make_clean(SignedTreeModel(children, leaf_vertex))


def reference_decode_parsed(a, b):
    """The decoder's former candidate loop, kept to compare against."""
    if (a.n, a.id_bits, a.width) != (b.n, b.id_bits, b.width):
        raise ValueError("labels come from different encodings")
    if a.path == b.path:
        raise ValueError("labels describe the same leaf")
    a_pos = {node: i for i, node in enumerate(a.path)}
    b_pos = {node: i for i, node in enumerate(b.path)}
    cands = {}
    for side, own_pos, other_pos in ((a, a_pos, b_pos), (b, b_pos, a_pos)):
        for i, x in enumerate(side.path):
            if x in other_pos:
                continue
            for y, colorbit in side.entries[i]:
                j = other_pos.get(y)
                if j is None or y in own_pos:
                    continue
                key = (x, y) if x < y else (y, x)
                cands[key] = (i + j, colorbit)
    if not cands:
        raise ValueError("no signed pair covers the leaf pair; corrupt labels")
    ranked = sorted((depth, key, colorbit) for key, (depth, colorbit) in cands.items())
    for (d1, k1, _), (d2, k2, _) in zip(ranked, ranked[1:]):
        if d1 == d2:
            raise ValueError(f"candidates {k1} and {k2} are unordered; corrupt labels")
    return ranked[-1][2] == 1


def exact_parse(label):
    """reference_parse, which also rejects a label whose declared length
    runs past its layout, as every library reader does."""
    p = reference_parse(label)
    if p.nbits != label.nbits:
        raise ValueError(f"label declares {label.nbits} bits but its layout ends at bit {p.nbits}")
    return p


def reference_decode(a, b):
    """True/False from the reference decoder, or ValueError if it raises."""
    try:
        return reference_decode_parsed(exact_parse(a), exact_parse(b))
    except ValueError:
        return ValueError


def decode_parsed(a, b):
    """decode's rule on two parsed labels: model.deepest_pair's color."""
    if (a.n, a.id_bits, a.width) != (b.n, b.id_bits, b.width):
        raise ValueError("labels come from different encodings")
    if a.path == b.path:
        raise ValueError("labels describe the same leaf")
    best = deepest_pair(a.path, a.entries, b.path, b.entries)
    if best is None:
        raise ValueError("no signed pair covers the leaf pair; corrupt labels")
    return best[2] == 1


def reference_decode_matrix(labels):
    """decode_matrix's former loop, one decode per vertex pair, kept to
    compare against."""
    parsed = {v: exact_parse(l) for v, l in labels.items()}
    n = len(parsed)
    if sorted(parsed) != list(range(n)):
        raise ValueError("labels must cover vertices 0..n-1")
    g = Graph(n)
    verts = sorted(parsed)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if decode_parsed(parsed[u], parsed[v]):
                g.add_edge(u, v)
    return g


def reference_blocks_agree(labels):
    """Whether every node has one parent, depth and entry block in all the
    labels through it; raises the parse's ValueError on a label that does
    not parse."""
    seen = {}
    for label in labels.values():
        p = exact_parse(label)
        parent = -1
        for depth, node in enumerate(p.path):
            info = (parent, depth, p.entries[depth])
            if seen.setdefault(node, info) != info:
                return False
            parent = node
    return True


def matrix_outcome(decoder, labels):
    """The decoded edge list, or the message of the ValueError raised."""
    try:
        return decoder(labels).edges()
    except ValueError as exc:
        return str(exc)


def write_label(n, id_bits, width, path, entries):
    """A label in encode's layout from its parts; ``entries`` holds one
    block of (other endpoint, color bit) per path node."""
    fields = [(n, 16), (id_bits, 16), (width, 16), (len(path), 8)]
    fields += [(x, id_bits) for x in path]
    for block in entries:
        fields.append((len(block), width.bit_length()))
        for y, color in block:
            fields += [(y, id_bits), (color, 1)]
    value = nbits = 0
    for field, bits in fields:
        value = (value << bits) | field
        nbits += bits
    pad = -nbits % 8
    return AdjacencyLabel((value << pad).to_bytes((nbits + pad) // 8, "big"), nbits)


def label_set(parts):
    """Labels in write_label's layout for n = 2, 2-bit ids and width 1;
    ``parts`` maps each vertex to its (path, blocks)."""
    return {v: write_label(2, 2, 1, *p) for v, p in parts.items()}


def flip_bit(label, k):
    data = bytearray(label.data)
    data[k // 8] ^= 1 << (7 - k % 8)
    return AdjacencyLabel(bytes(data), label.nbits)


def witness_labels(g):
    d, w = sdd_exact(g)
    m = stm_from_witness(g, w)
    return encode(m), m


class TestEncode:
    def test_single_vertex(self):
        m = stm_from_witness(Graph(1), SddWitness(0, ()))
        labels = encode(m)
        assert set(labels) == {0}
        # preamble + depth field + one path id, no pair entries
        assert labels[0].nbits == 48 + 8 + 1

    def test_two_vertices(self):
        g = Graph(2, [(0, 1)])
        labels, _ = witness_labels(g)
        assert decode(labels[0], labels[1]) is True
        assert decode(labels[1], labels[0]) is True

    def test_figure_model(self, figure_model):
        m, _ = figure_model
        labels = encode(make_clean(m))
        assert len(labels) == 14
        assert decode(labels[3], labels[7]) is True  # leaves 4 and 8
        assert decode(labels[6], labels[7]) is False  # leaves 7 and 8

    def test_requires_clean(self, figure_model):
        m, _ = figure_model
        with pytest.raises(ValueError, match="clean"):
            encode(m)

    def test_bits_within_layout_bound(self):
        for seed in range(5):
            g = gen_gnp(10, 0.4, seed)
            labels, _ = witness_labels(g)
            # layout_bound at the labels' own (n, id_bits, W) and largest h
            cap = label_stats(labels).bound_bits
            assert max(l.nbits for l in labels.values()) <= cap

    def test_shared_path_nodes_store_equal_entries(self, corpus):
        # A node's block is the same bits in every label through it.
        shared = 0
        for name, g, w in corpus[:25]:
            block_at = {}
            for label in label_graph(g, w).values():
                p = reference_parse(label)
                for node, entries in zip(p.path, p.entries):
                    if node in block_at:
                        assert block_at[node] == entries, (name, node)
                        shared += 1
                    else:
                        block_at[node] = entries
        assert shared > 0


    @pytest.mark.parametrize(
        "leaf_vertex,green,blue,message",
        [
            ([-1, 0, 1], [(1, 2)], [(1, 2)], "pair (1, 2) is both green and blue"),
            ([-1, 0, 0], [(1, 2)], [], "leaf vertices are not a bijection onto 0..1"),
            ([-1, 0, 7], [(1, 2)], [], "leaf vertices are not a bijection onto 0..1"),
        ],
    )
    def test_rejects_invalid_model(self, leaf_vertex, green, blue, message):
        m = SignedTreeModel([(1, 2), None, None], leaf_vertex, green, blue)
        assert is_clean(m) and message in validate(m)[1]
        with pytest.raises(ValueError) as exc:
            encode(m)
        assert str(exc.value) == message


class TestEncodeReference:
    """encode against reference_encode: equal labels, or equal errors."""

    @staticmethod
    def check(m):
        got = encode_outcome(encode, m)
        assert got == encode_outcome(reference_encode, m)
        return got

    def test_corpus_witness_and_balanced_models(self, corpus):
        for name, g, w in corpus:
            m = make_clean(stm_from_witness(g, w))
            assert isinstance(self.check(m), dict), name
            assert isinstance(self.check(make_clean(shallowise(m, w.d + 1))), dict), name

    def test_figure_model(self, figure_model):
        m, _ = figure_model
        assert self.check(m) == "labels require a clean model"
        assert len(self.check(make_clean(m))) == 14

    @pytest.mark.parametrize(
        "family,n,d,seed",
        [
            ("embed", 512, 1, 1),
            ("embed", 512, 1, 2),
            ("embed", 512, 1, 3),
            ("rook", 256, 1, 0),
            ("gnp", 120, 6, 1),
            ("gnp", 120, 12, 2),
        ],
    )
    def test_bench_instances(self, family, n, d, seed):
        g, w = bench_instance(family, n, d, seed)
        m = make_clean(shallowise(make_clean(stm_from_witness(g, w)), w.d + 1))
        assert decode_matrix(self.check(m)) == g

    @pytest.mark.parametrize("k", [255, 256, 300])
    def test_depth_limit(self, k):
        got = self.check(comb_model(k))
        if k <= 255:
            assert len(got) == k
        else:
            assert got == f"tree depth {k} does not fit the 8-bit path length"


class TestDecode:
    def test_same_vertex_rejected(self):
        g = Graph(3, [(0, 1)])
        labels, _ = witness_labels(g)
        with pytest.raises(ValueError, match="same leaf"):
            decode(labels[1], labels[1])

    def test_symmetric_on_thousand_pairs(self):
        checked = 0
        for seed in range(17, 24):
            g = gen_gnp(12, 0.5, seed)
            labels, _ = witness_labels(g)
            g2 = gen_gnp(14, 0.3, seed)
            labels2, _ = witness_labels(g2)
            for lab in (labels, labels2):
                for u, v in combinations(sorted(lab), 2):
                    assert decode(lab[u], lab[v]) == decode(lab[v], lab[u])
                    checked += 1
        assert checked >= 1000

    def test_matrix_reconstruction_random_models(self):
        for seed in range(12):
            g = gen_gnp(9, 0.1 + 0.08 * (seed % 9), seed)
            labels, _ = witness_labels(g)
            assert decode_matrix(labels) == g

    def test_mixed_encodings_rejected(self):
        la, _ = witness_labels(gen_gnp(6, 0.5, 1))
        lb, _ = witness_labels(gen_gnp(8, 0.5, 1))
        with pytest.raises(ValueError, match="different encodings"):
            decode(la[0], lb[0])

    def test_truncated_labels_error_not_misreport(self):
        g = gen_gnp(10, 0.5, 23)
        labels, _ = witness_labels(g)
        full = labels[0]
        other = labels[1]
        truth = decode(full, other)
        for cut in range(0, full.nbits):
            t = AdjacencyLabel(full.data[: (cut + 7) // 8], cut)
            try:
                got = decode(t, other)
            except ValueError:
                continue
            # a prefix that still parses must not silently flip the answer
            assert got == truth and cut == full.nbits

    def test_bit_flips_never_crash_silently_wrong_is_detected_or_decoded(self):
        # flipping bits may change the answer, but must never read past the
        # end or loop; decode either raises ValueError or returns a bool
        g = gen_gnp(8, 0.5, 5)
        labels, _ = witness_labels(g)
        base = labels[2]
        for k in range(0, base.nbits, 3):
            data = bytearray(base.data)
            data[k // 8] ^= 1 << (7 - k % 8)
            mutated = AdjacencyLabel(bytes(data), base.nbits)
            try:
                got = decode(mutated, labels[5])
            except ValueError:
                continue
            assert isinstance(got, bool)


class TestDecodeReference:
    def test_corpus_pairs(self, corpus):
        checked = 0
        for name, g, w in corpus[:25]:
            labels = label_graph(g, w)
            for u, v in permutations(sorted(labels), 2):
                got = decode(labels[u], labels[v])
                assert got == reference_decode(labels[u], labels[v]) == g.has_edge(u, v), name
                checked += 1
        assert checked > 1000

    def test_single_bit_flips(self):
        rng = random.Random(9)
        instances = [
            bench_instance(*args)
            for args in (("embed", 64, 1, 1), ("rook", 36, 1, 0), ("gnp", 40, 6, 1))
        ]
        sets = [(g, label_graph(g, w)) for g, w in instances]
        ties = wrong = 0
        for _ in range(2400):
            g, labels = rng.choice(sets)
            u, v = rng.sample(sorted(labels), 2)
            k = rng.randrange(labels[u].nbits)
            flipped = flip_bit(labels[u], k)
            try:
                got = decode(flipped, labels[v])
            except ValueError as exc:
                got = ValueError
                ties += "tie at depth" in str(exc)
            assert got == reference_decode(flipped, labels[v]), (u, v, k)
            wrong += got is not ValueError and got != g.has_edge(u, v)
        # the flips reach the decider's tie check and also decode silently wrong
        assert ties > 0 and wrong > 0


def reference_fields(label):
    """_read's fields built from reference_parse, or its message."""
    try:
        p = reference_parse(label)
    except ValueError as exc:
        return str(exc)
    ids = 0
    for x in p.path:
        ids = (ids << p.id_bits) | x
    blocks = []
    for block in p.entries:
        value = 0
        for y, color in block:
            value = (value << (p.id_bits + 1)) | (y << 1) | color
        blocks.append(value)
    counts = [len(block) for block in p.entries]
    return (p.n << 32) | (p.id_bits << 16) | p.width, len(p.path), ids, counts, blocks, p.nbits


def check_reader(label):
    """_read and _split against reference_parse: equal fields, or equal
    messages, or, where the reference parses and stops short of the
    declared length, the reader's length message.  Returns which."""
    want = reference_fields(label)
    try:
        got = _read(label.data, label.nbits)
    except ValueError as exc:
        got = str(exc)
    if isinstance(want, tuple) and want[5] != label.nbits:
        assert got == f"label declares {label.nbits} bits but its layout ends at bit {want[5]}"
        return "length"
    assert got == want
    if isinstance(got, str):
        return "raised"
    p = reference_parse(label)
    head, path, entries = _split(label)
    assert (head, path) == (got[0], p.path)
    assert tuple(tuple(block) for block in entries) == p.entries
    return "read"


class TestRead:
    """The one v1 reader against the field-by-field reference parser."""

    @staticmethod
    def bench_sets():
        sets = []
        for args in (("embed", 512, 1, 1), ("rook", 256, 1, 0)):
            g, w = bench_instance(*args)
            sets.append(label_graph(g, w))
        return sets

    def test_every_label_matches_reference(self, corpus):
        sets = [label_graph(g, w) for _, g, w in corpus] + self.bench_sets()
        for labels in sets:
            for label in labels.values():
                assert check_reader(label) == "read"

    def test_single_bit_flips_match_reference(self, corpus):
        big = sorted(corpus, key=lambda c: -c[1].n)[:2]
        sets = [label_graph(g, w) for _, g, w in big] + self.bench_sets()
        seen = {"read": 0, "raised": 0, "length": 0}
        for labels in sets:
            for v in (0, len(labels) // 2, len(labels) - 1):
                label = labels[v]
                for k in range(label.nbits):
                    seen[check_reader(flip_bit(label, k))] += 1
        # flips land in fields that still read, in fields that fail, and in
        # counts that move the layout's end off the declared length
        assert all(seen.values()), seen

    def test_declared_length_must_match_layout(self):
        g, w = bench_instance("embed", 64, 1, 1)
        labels = label_graph(g, w)
        lab = labels[3]
        longer = AdjacencyLabel(lab.data + b"\x00\x00", lab.nbits + 9)
        cut = AdjacencyLabel(lab.data, lab.nbits - 1)
        # the field-by-field parser read both as far as their layouts go
        assert reference_parse(longer) == reference_parse(lab)
        for bad, message in (
            (longer, f"label declares {lab.nbits + 9} bits but its layout ends at bit {lab.nbits}"),
            (cut, "label exhausted: read past the end"),
        ):
            for call in (
                lambda: decode(bad, labels[4]),
                lambda: decode(labels[4], bad),
                lambda: decode_matrix({**labels, 3: bad}),
                lambda: label_stats({**labels, 3: bad}),
                lambda: save_labels({3: bad}),
            ):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == message


class TestDecodeMatrix:
    def test_corpus_equals_reference(self, corpus):
        for name, g, w in corpus:
            labels = label_graph(g, w)
            assert decode_matrix(labels) == reference_decode_matrix(labels) == g, name

    @pytest.mark.parametrize(
        "args", [("embed", 64, 1, 1), ("rook", 36, 1, 0), ("gnp", 40, 6, 1)]
    )
    def test_bench_instances_equal_reference(self, args):
        g, w = bench_instance(*args)
        labels = label_graph(g, w)
        assert decode_matrix(labels) == reference_decode_matrix(labels) == g

    def test_comparable_pair_decides_nothing(self):
        # (3, 5) joins leaf 3 to its parent; is_clean accepts the model
        children = [None] * 4 + [(1, 2), (4, 3), (0, 5)]
        m = SignedTreeModel(children, [0, 1, 2, 3, -1, -1, -1], [(1, 2), (3, 4), (0, 5)], [(3, 5)])
        labels = encode(m)
        assert decode_matrix(labels) == reference_decode_matrix(labels) == realize(m)

    def test_crossing_pairs_tie(self):
        # the clean model's pairs (4, 7) and (1, 10) cross, so two pairs of
        # one depth sum decide a common leaf pair
        children = [None] * 7 + [(1, 2), (0, 7), (5, 6), (3, 4), (9, 10), (8, 11)]
        green = [(0, 7), (1, 2), (3, 4), (4, 7), (5, 6), (8, 11), (9, 10)]
        blue = [(0, 1), (0, 4), (1, 10), (4, 9)]
        labels = encode(SignedTreeModel(children, list(range(7)) + [-1] * 6, green, blue))
        message = "signed pairs (1, 10) and (4, 7) tie at depth 5"
        assert matrix_outcome(reference_decode_matrix, labels) == message
        assert matrix_outcome(decode_matrix, labels) == message

    def test_repeated_label_raises(self):
        g, w = bench_instance("gnp", 40, 6, 1)
        labels = label_graph(g, w)
        message = "labels describe the same leaf"
        assert matrix_outcome(decode_matrix, {**labels, 1: labels[0]}) == message
        # a new vertex with an isolated vertex's label leaves the spelled
        # tree whole; the count no longer matches the preamble's n
        g, w = bench_instance("embed", 64, 1, 1)
        labels = label_graph(g, w)
        v = next(v for v in range(g.n) if not g.adj[v])
        got = matrix_outcome(decode_matrix, {**labels, g.n: labels[v]})
        assert got == "preamble declares 64 vertices, found 65 labels"

    def test_pair_in_both_colors_raises(self):
        m = SignedTreeModel([None, None, (0, 1)], [0, 1, -1], [], [(0, 1)])
        parts = {0: ((2, 0), ((), ((1, 1),))), 1: ((2, 1), ((), ()))}
        assert {v: write_label(2, 2, 1, *p) for v, p in parts.items()} == encode(m)
        # the sibling pair (0, 1) also stored green at leaf 1: the pairwise
        # decoder keeps the color read last, decode_matrix rejects the set
        parts[1] = ((2, 1), ((), ((0, 0),)))
        labels = {v: write_label(2, 2, 1, *p) for v, p in parts.items()}
        assert reference_decode_matrix(labels) == Graph(2)
        assert matrix_outcome(decode_matrix, labels) == "pair (0, 1) is both green and blue"

    @pytest.mark.parametrize(
        "labels,message",
        [
            ({}, "no labels"),
            (
                {0: write_label(2, 2, 1, (2, 0), ((), ((1, 1),))),
                 1: write_label(3, 2, 1, (2, 1), ((), ()))},
                "labels come from different encodings",
            ),
            # node 2's block differs between the two labels
            (
                label_set({0: ((2, 0), (((1, 1),), ())), 1: ((2, 1), ((), ()))}),
                "label of vertex 1 disagrees with an earlier label on node 2",
            ),
            # no node 2 between the root 3 and the leaves
            (
                label_set({0: ((3, 0), ((), ((1, 1),))), 1: ((3, 1), ((), ()))}),
                "node ids are not 0..2: the labels name node 3",
            ),
            # vertex 0 ends at node 0, which is also vertex 1's parent
            (
                label_set({0: ((2, 0), ((), ((1, 1),))), 1: ((2, 0, 1), ((), ((1, 1),), ()))}),
                "internal node 0 carries a leaf vertex",
            ),
            # the sibling pair (0, 1) is stored in neither color
            (
                label_set({0: ((2, 0), ((), ())), 1: ((2, 1), ((), ()))}),
                "labels spell a model that is not clean",
            ),
        ],
    )
    def test_label_set_faults(self, labels, message):
        assert matrix_outcome(decode_matrix, labels) == message

    def test_single_bit_flips_match_reference(self):
        rng = random.Random(12)
        sets = []
        for args in (("embed", 64, 1, 1), ("rook", 36, 1, 0), ("gnp", 40, 6, 1)):
            g, w = bench_instance(*args)
            sets.append((g, label_graph(g, w)))
        raised = same = silent_wrong = 0
        for _ in range(150):
            g, labels = rng.choice(sets)
            labels = dict(labels)
            v = rng.randrange(g.n)
            k = rng.randrange(labels[v].nbits)
            labels[v] = flip_bit(labels[v], k)
            got = matrix_outcome(decode_matrix, labels)
            try:
                agree = reference_blocks_agree(labels)
            except ValueError:
                agree = False
            if isinstance(got, str):
                raised += 1
                continue
            # the model checks may also reject a set whose blocks agree, but
            # a graph, when returned, is the pairwise loop's graph
            assert agree and got == matrix_outcome(reference_decode_matrix, labels), (g.n, v, k)
            same += got == g.edges()
            silent_wrong += got != g.edges()
        # a flip inside a block that only one label carries, such as a leaf's
        # own block, keeps the blocks consistent and can decode silently wrong
        assert raised > 0 and same > 0 and silent_wrong > 0, (raised, same, silent_wrong)

    def test_cut_and_rekeyed_labels_raise(self):
        # decode_matrix reads fields straight from the bits; a label whose
        # length is off raises the parse's message, and wrong keys raise too
        g, w = bench_instance("gnp", 40, 6, 1)
        labels = label_graph(g, w)
        cases = [
            (
                {k: v for k, v in labels.items() if k != 39},
                "preamble declares 40 vertices, found 39 labels",
            ),
            ({**labels, 40: labels[5]}, "preamble declares 40 vertices, found 41 labels"),
            ({k + (k == 39): v for k, v in labels.items()}, "labels must cover vertices 0..n-1"),
        ]
        rng = random.Random(13)
        for _ in range(60):
            v = rng.randrange(g.n)
            lab = labels[v]
            cut = rng.choice(
                [
                    AdjacencyLabel(lab.data, rng.randrange(lab.nbits)),
                    AdjacencyLabel(lab.data, len(lab.data) * 8 + 1),
                    AdjacencyLabel(lab.data[: rng.randrange(len(lab.data))], lab.nbits),
                    AdjacencyLabel(lab.data + b"\xff", lab.nbits),
                ]
            )
            try:
                exact_parse(cut)
                want = g.edges()
            except ValueError as exc:
                want = str(exc)
            cases.append(({**labels, v: cut}, want))
        raised = 0
        for case, want in cases:
            got = matrix_outcome(decode_matrix, case)
            assert got == want
            raised += isinstance(got, str)
        assert 3 < raised < len(cases)

    def test_count_over_width_raises(self):
        # a 2-bit count of 3 under width 2, repeating one pair, would spell
        # a clean model; the parse rejects the count first
        parts = {0: ((2, 0), ((), ((1, 1),) * 3)), 1: ((2, 1), ((), ()))}
        labels = {v: write_label(2, 2, 2, *p) for v, p in parts.items()}
        message = "corrupt label: owned count exceeds width"
        assert matrix_outcome(reference_decode_matrix, labels) == message
        assert matrix_outcome(decode_matrix, labels) == message


class TestLabelGraph:
    def test_k8_all_adjacent(self):
        g = complete_graph(8)
        d, w = sdd_exact(g)
        labels = label_graph(g, w)
        for u, v in combinations(range(8), 2):
            assert decode(labels[u], labels[v])

    def test_embedded_gnp(self):
        host, w, _ = embed_sdd1(gen_gnp(8, 0.5, 7))
        labels = label_graph(host, w)
        assert decode_matrix(labels) == host

    def test_rook_with_exact_witness(self):
        g = gen_rook(3, 3)
        d, w = sdd_exact(g)
        labels = label_graph(g, w)
        assert decode_matrix(labels) == g

    def test_rejects_bad_witness(self):
        g = gen_rook(3, 3)
        with pytest.raises(ValueError, match="witness"):
            label_graph(g, SddWitness(0, tuple((i, i + 1) for i in range(8))))


class TestStats:
    def test_single_vertex(self):
        m = stm_from_witness(Graph(1), SddWitness(0, ()))
        st_ = label_stats(encode(m))
        assert st_.max_bits == 57 and st_.ratio <= 1

    def test_deterministic(self):
        g = gen_gnp(14, 0.3, 4)
        d, w = sdd_exact(g, limit=20)
        a = label_stats(label_graph(g, w))
        b = label_stats(label_graph(g, w))
        assert a == b

    def test_bound_dominates(self, corpus):
        for name, g, w in corpus[:25]:
            stt = label_stats(label_graph(g, w))
            assert stt.max_bits <= stt.bound_bits, name


class TestDumpFormat:
    def test_round_trip(self):
        g = gen_gnp(9, 0.5, 31)
        labels, _ = witness_labels(g)
        text = save_labels(labels)
        again = load_labels(text)
        assert save_labels(again) == text
        assert decode_matrix(again) == g

    def test_header_and_hex(self):
        g = Graph(2, [(0, 1)])
        labels, _ = witness_labels(g)
        lines = save_labels(labels).splitlines()
        assert lines[0].startswith("p lbl 2 ")
        assert all(l.startswith("l ") for l in lines[1:])

    @pytest.mark.parametrize(
        "text",
        ["l 0 ff\n", "p lbl 2 2 1\nl 0 zz\n", "p lbl 2 2\nl 0 ff\n"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            load_labels(text)

    @staticmethod
    def rook_dump():
        g = gen_rook(3, 3)
        d, w = sdd_exact(g)
        return save_labels(label_graph(g, w)).splitlines()

    def test_rejects_repeated_vertex(self):
        lines = self.rook_dump()
        text = "\n".join(lines + [lines[2]])
        with pytest.raises(ValueError, match=r"line 11: repeated vertex 1"):
            load_labels(text)

    def test_rejects_vertex_out_of_range(self):
        lines = self.rook_dump()
        lines[-1] = lines[-1].replace("l 8 ", "l 9 ")
        with pytest.raises(ValueError, match=r"line 10: vertex 9 out of range"):
            load_labels("\n".join(lines))

    def test_rejects_label_count(self):
        lines = self.rook_dump()
        with pytest.raises(ValueError, match=r"line 1: header declares 9 labels, found 8"):
            load_labels("\n".join(lines[:-1]))

    def test_rejects_header_preamble_mismatch(self):
        lines = self.rook_dump()
        _, _, n, id_bits, width = lines[0].split()
        for header in (f"p lbl 99 {id_bits} {width}", f"p lbl {n} 7 {width}",
                       f"p lbl {n} {id_bits} 3"):
            text = "\n".join([header] + lines[1:])
            with pytest.raises(ValueError, match=r"line 2: label preamble"):
                load_labels(text)

    def test_rejects_duplicate_header_and_bad_fields(self):
        lines = self.rook_dump()
        cases = [
            ([lines[0]] + lines, "line 2: duplicate header"),
            (["p lbl 9 x 1"] + lines[1:], "line 1: malformed header"),
            (lines[:1] + ["l one " + lines[1].split()[2]] + lines[2:], "line 2: malformed label"),
            (lines[:1] + ["l 0 ff"] + lines[2:], "line 2: label shorter than its preamble"),
        ]
        for text_lines, message in cases:
            with pytest.raises(ValueError, match=message):
                load_labels("\n".join(text_lines))

    def test_round_trip_keeps_exact_lengths(self):
        g, w = bench_instance("rook", 256, 1, 0)
        labels = label_graph(g, w)
        again = load_labels(save_labels(labels))
        assert again == labels
        stats = label_stats(again)
        assert stats == label_stats(labels)
        assert (stats.max_bits, stats.mean_bits) == (2231, 1323.96875)

    def test_rejects_nonzero_pad_bits(self):
        lines = self.rook_dump()
        labels = load_labels("\n".join(lines))
        k = next(k for k in range(1, len(lines)) if labels[k - 1].nbits % 8)
        data = bytearray(labels[k - 1].data)
        data[-1] |= 1  # the last bit is padding
        lines[k] = f"l {k - 1} {data.hex()}"
        with pytest.raises(ValueError, match=rf"line {k + 1}: nonzero pad bits"):
            load_labels("\n".join(lines))

    def test_rejects_trailing_byte(self):
        lines = self.rook_dump()
        for extra in ("00", "ff"):
            with pytest.raises(ValueError, match=r"line 3: trailing byte"):
                load_labels("\n".join(lines[:2] + [lines[2] + extra] + lines[3:]))

    def test_rejects_label_cut_short(self):
        lines = self.rook_dump()
        with pytest.raises(ValueError, match=r"line 2: label exhausted"):
            load_labels("\n".join(lines[:1] + [lines[1][:-4]] + lines[2:]))


class TestFingerprints:
    """sha256 of the saved labels, pinned from the O(N^2) min-scan peel:
    any change to the orientation, the layout or the bench instances shows
    up here."""

    @pytest.mark.parametrize(
        "family,n,seed,digest",
        [
            ("embed", 512, 1, "c45d76129e813f98e1ff8150a2190d4d47d9188fd24cdcd07ff0d5a78ccbb7ef"),
            ("embed", 512, 2, "75ba068d8fd6aa42a3d41a4843bf50fadcea21058535a0ffdb71844372f0469a"),
            ("embed", 512, 3, "67b878fadf7ad55182edadb5b3bc0e74803bcf62a77f84abb366179f88853876"),
            ("rook", 256, 0, "08d77935b85d7a656a498632e75cdca073daa064bbfc017bcbd4039a04f07c45"),
        ],
    )
    def test_saved_labels_unchanged(self, family, n, seed, digest):
        self.check(family, n, 1, seed, digest)

    # Greedy witnesses at d = 4 and d = 11, so 3- and 4-bit count fields;
    # pinned from the per-field bit writer that wrote every block per label.
    @pytest.mark.parametrize(
        "n,d,seed,digest",
        [
            (120, 6, 1, "cda4de442530797cbaa31e80edfc018eda584efb72686775d63aa8f8a67d47d8"),
            (120, 12, 2, "11804fbc65f31766a3d29583f261b4d62a3a4a906fa98e0a8dd79daa4f128882"),
        ],
    )
    def test_saved_gnp_labels_unchanged(self, n, d, seed, digest):
        self.check("gnp", n, d, seed, digest)

    @staticmethod
    def check(family, n, d, seed, digest):
        g, w = bench_instance(family, n, d, seed)
        text = save_labels(label_graph(g, w))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
