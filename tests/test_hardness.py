"""Reduction builders, their structural validators, and witness round trips."""

import hashlib
import itertools
import random

import pytest

from sdlabel import Graph, check_witness, is_diverse, sdd_exact
from sdlabel.graph import save_edge_list
from sdlabel.hardness import (
    CnfFormula,
    build_bubble,
    build_sd_reduction,
    build_sdd_reduction,
    extract_assignment,
    load_cnf,
    save_cnf,
    sat_oracle,
    save_roles,
    sd_witness_from_assignment,
    sdd_witness_from_assignment,
    unsat_clauses,
    validate_sd_reduction,
)

from test_acceptance import _Rng, _gen_sd_formula

PHI_SD = CnfFormula(4, [(1, -3, 4), (-2, 3, -4), (-1, 2)])
PHI_SDD = CnfFormula(4, [(1, 2, 3), (-1, -2, 4), (2, -3, -4)])


def reference_validate_sd_reduction(r, d):
    """The former validate_sd_reduction: every cell pair of each bubble
    against the row-or-column rule through has_edge, then a second walk
    over each cell's outside neighbours."""
    g = r.graph
    issues = []
    meta = r.meta
    if meta.get("kind") != "sd":
        return False, ["not a diverse-subgraph reduction"]
    bubble_vertices = set()
    for b in meta["bubbles"]:
        bubble_vertices.update(b["cells"].values())
    for b in meta["bubbles"]:
        cells = b["cells"]
        own = set(cells.values())
        ports = set(b["top_ports"]) | set(b["col_ports"])
        by_vertex = {v: cell for cell, v in cells.items()}
        # internal structure: same row/column iff adjacent
        for cell, v in cells.items():
            for cell2, v2 in cells.items():
                if v < v2:
                    expect = cell[0] == cell2[0] or cell[1] == cell2[1]
                    if g.has_edge(v, v2) != expect:
                        issues.append(f"bubble {b['id']}: cells {cell} {cell2} wrong")
        for v in own:
            outside = [x for x in g.adj[v] if x not in own]
            if v in ports:
                if len(outside) != 1:
                    issues.append(
                        f"bubble {b['id']}: port {by_vertex[v]} has "
                        f"{len(outside)} outside neighbors, wanted 1"
                    )
            elif outside:
                issues.append(
                    f"bubble {b['id']}: interior {by_vertex[v]} touches outside"
                )
        straddlers = [
            s
            for s in b["members"]
            if set(g.adj[s]) & set(b["top_ports"]) and set(g.adj[s]) & set(b["col_ports"])
        ]
        if len(straddlers) > 1:
            issues.append(f"bubble {b['id']}: {len(straddlers)} members straddle")
    half = d // 2
    for j in range(meta["num_clauses"]):
        for v in (meta["vc"][j], meta["dc"][j]):
            k = sum(1 for x in g.adj[v] if x in bubble_vertices)
            if k != half:
                issues.append(f"{r.roles[v]} has {k} bubble neighbors, wanted {half}")
    for i, y in enumerate(meta["y_ids"], start=1):
        k = sum(1 for x in g.adj[y] if x in bubble_vertices)
        if k < half + 1:
            issues.append(f"y:{i} has {k} bubble neighbors, wanted >= {half + 1}")
        if i >= 3 and k < d:
            issues.append(f"y:{i} has {k} bubble neighbors, wanted >= {d}")
    return (not issues, issues)


def toggle_edge(g, u, v):
    if v in g.adj[u]:
        g.remove_edge(u, v)
    else:
        g.add_edge(u, v)


class TestCnf:
    def test_round_trip(self):
        text = save_cnf(PHI_SD)
        again = load_cnf(text)
        assert again == PHI_SD
        assert save_cnf(again) == text

    def test_dimacs_parsing(self):
        phi = load_cnf("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
        assert phi.num_vars == 3 and phi.clauses == ((1, -2, 3), (-1, 2))

    def test_multiline_clause(self):
        phi = load_cnf("p cnf 3 1\n1 -2\n3 0\n")
        assert phi.clauses == ((1, -2, 3),)

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 0\n",
            "p cnf 2 1\n1 2\n",
            "p cnf 1 1\n5 0\n",
            "p cnf 2 2\n1 0\n",
            "p cnf 2 1\np cnf 3 1\n1 -2 0\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            load_cnf(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf a 1\n1 0\n", "line 1: malformed header 'p cnf a 1'"),
            ("c x\np cnf 1 b\n1 0\n", "line 2: malformed header 'p cnf 1 b'"),
            ("p cnf 2 1\n1\nx 0\n", "line 3: malformed literal 'x'"),
            ("p cnf 2 1\n1 -2 0.5 0\n", "line 2: malformed literal '0.5'"),
            ("p cnf 2 1\np cnf 3 1\n1 -2 0\n", "line 2: duplicate header"),
            ("c x\np cnf 2\n1 0\n", "line 2: malformed header 'p cnf 2'"),
        ],
    )
    def test_malformed_integer_names_line(self, text, message):
        with pytest.raises(ValueError) as err:
            load_cnf(text)
        assert str(err.value) == message


class TestSatOracle:
    def test_trivial(self):
        phi = CnfFormula(1, [(1, 1, 1)])
        assert sat_oracle(phi) == [True]

    def test_duplication_trick(self):
        # allow-one-unsat on phi + a disjoint copy decides satisfiability
        for phi, expect in [
            (CnfFormula(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)]), False),
            (CnfFormula(2, [(1, 2), (-1, -2)]), True),
        ]:
            shift = phi.num_vars
            doubled = CnfFormula(
                2 * shift,
                list(phi.clauses)
                + [
                    tuple(l + shift if l > 0 else l - shift for l in c)
                    for c in phi.clauses
                ],
            )
            got = sat_oracle(doubled, allow_one_unsat=True)
            assert (got is not None) == expect

    def test_unsat_eight_clauses(self):
        clauses = [
            tuple((v + 1) * s for v, s in zip(range(3), signs))
            for signs in itertools.product((1, -1), repeat=3)
        ]
        assert sat_oracle(CnfFormula(3, clauses)) is None

    def test_limit(self):
        with pytest.raises(ValueError, match="exhaustive"):
            sat_oracle(CnfFormula(25, []))


class TestBubble:
    def test_d8_counts(self):
        g, top, col = build_bubble(8)
        assert g.n == 34 and len(top) == 4 and len(col) == 5

    def test_d12_counts(self):
        g, top, col = build_bubble(12)
        assert g.n == 62 and len(top) == 6 and len(col) == 7

    def test_rejects_bad_d(self):
        for d in (6, 9):
            with pytest.raises(ValueError):
                build_bubble(d)

    def test_rook_structure(self):
        g, top, col = build_bubble(8)
        w = 6
        # every vertex degree: full rook row+column minus removals
        degs = sorted(g.degree(u) for u in range(g.n))
        assert degs[0] >= 2 * (w - 1) - 2

    @pytest.mark.parametrize("d", [8, 10, 12, 14, 16])
    def test_matches_coordinate_rule(self, d):
        w = d // 2 + 2
        cells = [
            (r, c) for r in range(w) for c in range(w) if (r, c) not in {(0, w - 2), (0, w - 1)}
        ]
        expected = Graph(
            len(cells),
            [
                (i, j)
                for i, j in itertools.combinations(range(len(cells)), 2)
                if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
            ],
        )
        g, top, col = build_bubble(d)
        assert g == expected
        assert [cells[k] for k in top] == [(0, c) for c in range(w - 2)]
        assert [cells[k] for k in col] == [(r, w - 1) for r in range(1, w)]


class TestSdReduction:
    def test_vertex_count_formula(self):
        d = 8
        r = build_sd_reduction(PHI_SD, d)
        nv, m, t = 4, 3, d // 2 + 1
        nt = nv * t
        bubbles = (m - 1) + 2 + (nt - 2)
        assert r.graph.n == 2 * nv + nt + 2 * m + bubbles * 34

    def test_validates(self):
        r = build_sd_reduction(PHI_SD, 8)
        ok, issues = validate_sd_reduction(r, 8)
        assert ok, issues

    @pytest.mark.parametrize("d", [10, 12])
    def test_validates_other_levels(self, d):
        r = build_sd_reduction(PHI_SD, d)
        ok, issues = validate_sd_reduction(r, d)
        assert ok, issues

    def test_roles_total(self):
        r = build_sd_reduction(PHI_SD, 8)
        assert sorted(r.roles) == list(range(r.graph.n))
        text = save_roles(r)
        assert text.count("\n") == r.graph.n

    def test_clause_vertices_bubble_degree(self):
        d = 8
        r = build_sd_reduction(PHI_SD, d)
        bubble_vertices = set()
        for b in r.meta["bubbles"]:
            bubble_vertices.update(b["cells"].values())
        for j in range(3):
            for v in (r.meta["vc"][j], r.meta["dc"][j]):
                assert sum(1 for x in r.graph.adj[v] if x in bubble_vertices) == d // 2

    def test_y_bubble_degrees(self):
        d = 8
        r = build_sd_reduction(PHI_SD, d)
        bubble_vertices = set()
        for b in r.meta["bubbles"]:
            bubble_vertices.update(b["cells"].values())
        for i, y in enumerate(r.meta["y_ids"], start=1):
            k = sum(1 for x in r.graph.adj[y] if x in bubble_vertices)
            assert k >= d // 2 + 1
            if i >= 3:
                assert k >= d

    def test_mutation_port_edge_dropped(self):
        r = build_sd_reduction(PHI_SD, 8)
        b = r.meta["bubbles"][0]
        port = b["top_ports"][0]
        outside = next(x for x in r.graph.adj[port] if x not in set(b["cells"].values()))
        r.graph.remove_edge(port, outside)
        ok, issues = validate_sd_reduction(r, 8)
        assert not ok and any("port" in s for s in issues)

    def test_mutation_interior_edge_added(self):
        r = build_sd_reduction(PHI_SD, 8)
        b = r.meta["bubbles"][0]
        interior = b["cells"][(2, 2)]
        r.graph.add_edge(interior, r.meta["y_ids"][5])
        ok, issues = validate_sd_reduction(r, 8)
        assert not ok and any("interior" in s for s in issues)

    def test_mutation_intra_bubble_edge_added(self):
        r = build_sd_reduction(PHI_SD, 8)
        cells = r.meta["bubbles"][0]["cells"]
        r.graph.add_edge(cells[(1, 0)], cells[(2, 1)])
        ok, issues = validate_sd_reduction(r, 8)
        assert (ok, issues) == (False, ["bubble s1: cells (1, 0) (2, 1) wrong"])

    def test_mutation_rook_edge_removed(self):
        r = build_sd_reduction(PHI_SD, 8)
        cells = r.meta["bubbles"][2]["cells"]
        toggle_edge(r.graph, cells[(3, 1)], cells[(3, 4)])
        ok, issues = validate_sd_reduction(r, 8)
        assert (ok, issues) == (False, ["bubble term1: cells (3, 1) (3, 4) wrong"])

    def test_mutation_member_straddles(self):
        # in s1, d_1 already takes the last top port and the first column
        # port; wiring z_1 to a column port too makes two straddlers
        r = build_sd_reduction(PHI_SD, 8)
        b = r.meta["bubbles"][0]
        r.graph.add_edge(b["members"][0], b["col_ports"][-1])
        ok, issues = validate_sd_reduction(r, 8)
        assert not ok
        assert issues == [
            "bubble s1: port (5, 5) has 2 outside neighbors, wanted 1",
            "bubble s1: 2 members straddle",
        ]

    def test_issue_order(self):
        # cell pairs first, then ports and interiors in cell order
        r = build_sd_reduction(PHI_SD, 8)
        b = r.meta["bubbles"][0]
        cells = b["cells"]
        r.graph.add_edge(cells[(4, 4)], r.meta["y_ids"][5])
        r.graph.add_edge(cells[(2, 2)], r.meta["y_ids"][5])
        toggle_edge(r.graph, cells[(1, 5)], r.meta["dc"][0])
        r.graph.add_edge(cells[(3, 0)], cells[(4, 1)])
        ok, issues = validate_sd_reduction(r, 8)
        assert issues == [
            "bubble s1: cells (3, 0) (4, 1) wrong",
            "bubble s1: port (1, 5) has 0 outside neighbors, wanted 1",
            "bubble s1: interior (2, 2) touches outside",
            "bubble s1: interior (4, 4) touches outside",
            "dc:1 has 3 bubble neighbors, wanted 4",
        ]

    @pytest.mark.parametrize("other", [10, -2])
    def test_other_d_is_one_issue(self, other):
        r = build_sd_reduction(PHI_SD, 8)
        assert validate_sd_reduction(r, other) == (
            False,
            [f"reduction was built at d = 8, not d = {other}"],
        )

    @pytest.mark.parametrize(
        "phi,frag",
        [
            (CnfFormula(2, [(1, 2), (-1, 2)]), "three clauses"),
            (CnfFormula(2, [(1,), (1, 2), (-1, -2)]), "size"),
            (CnfFormula(2, [(1, 2), (1, -2), (1, 2), (-1, 2)]), "occurs"),
        ],
    )
    def test_shape_rejected(self, phi, frag):
        with pytest.raises(ValueError, match=frag):
            build_sd_reduction(phi, 8)


class TestValidateAgainstReference:
    """The one-pass validator against the former all-pairs one, on
    reductions with 1-5 random edge flips: the same verdict and the same
    issues, compared as sorted lists."""

    FORMULAS = [
        PHI_SD,
        CnfFormula(3, [(1, 2), (2, 3), (1, 3)]),
        CnfFormula(5, [(1, -2, 3), (-1, 4), (2, -4, 5), (-3, -5)]),
    ]

    @staticmethod
    def random_pair(rng, r):
        meta, n = r.meta, r.graph.n
        b = rng.choice(meta["bubbles"])
        cells = list(b["cells"].values())
        kind = rng.randrange(5)
        if kind == 0:  # inside one bubble
            return tuple(rng.sample(cells, 2))
        if kind == 1:  # a cell and any vertex
            return rng.choice(cells), rng.randrange(n)
        if kind == 2:  # a member and a port of its bubble
            return rng.choice(b["members"]), rng.choice(b["top_ports"] + b["col_ports"])
        if kind == 3:  # a clause or y vertex and a cell
            hub = rng.choice(meta["vc"] + meta["dc"] + meta["y_ids"])
            return hub, rng.choice(cells)
        return rng.randrange(n), rng.randrange(n)

    @pytest.mark.parametrize("d", [8, 10, 12])
    def test_matches_reference_on_flips(self, d):
        rng = random.Random(1500 + d)
        kinds = set()
        invalid = 0
        for phi in self.FORMULAS:
            r = build_sd_reduction(phi, d)
            for _ in range(60):
                flips = set()
                while len(flips) < rng.randint(1, 5):
                    u, v = self.random_pair(rng, r)
                    if u != v:
                        flips.add((min(u, v), max(u, v)))
                for u, v in flips:
                    toggle_edge(r.graph, u, v)
                ok, issues = validate_sd_reduction(r, d)
                ref_ok, ref_issues = reference_validate_sd_reduction(r, d)
                assert ok == ref_ok
                assert sorted(issues) == sorted(ref_issues)
                invalid += not ok
                kinds.update(
                    kind
                    for kind in ("wrong", "port", "interior", "straddle", "bubble neighbors")
                    if any(kind in s for s in issues)
                )
                for u, v in flips:
                    toggle_edge(r.graph, u, v)
            assert validate_sd_reduction(r, d) == (True, [])
        assert invalid >= 150
        assert kinds == {"wrong", "port", "interior", "straddle", "bubble neighbors"}


class TestTamperedCellMaps:
    """Cell maps in ``meta`` that the builder never writes."""

    def test_two_cells_on_one_vertex(self):
        # The old vertex of (2, 2) leaves the bubble, so its row and column
        # touch outside.  The reference walks only cell pairs on distinct
        # vertices and names each vertex by its last cell, so it reports
        # other pairs; only the exact list is pinned here.
        r = build_sd_reduction(PHI_SD, 8)
        cells = r.meta["bubbles"][0]["cells"]
        cells[(2, 2)] = cells[(2, 3)]
        wrong = [(0, 2), (1, 2), (2, 0), (2, 1)]
        wrong = [(c, (2, 2)) for c in wrong]
        wrong += [((2, 2), c) for c in [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]]
        touch = [(1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2)]
        assert validate_sd_reduction(r, 8) == (
            False,
            [f"bubble s1: cells {a} {b} wrong" for a, b in wrong]
            + ["bubble s1: port (0, 2) has 2 outside neighbors, wanted 1"]
            + [f"bubble s1: interior {c} touches outside" for c in touch[:6]]
            + ["bubble s1: port (2, 5) has 2 outside neighbors, wanted 1"]
            + [f"bubble s1: interior {c} touches outside" for c in touch[6:]],
        )

    def test_bubble_on_non_consecutive_ids(self):
        # every other cell of s1 swaps its vertex with the same cell of s2,
        # in the graph and in meta alike: an isomorphic, valid reduction
        r = build_sd_reduction(PHI_SD, 8)
        s1, s2 = r.meta["bubbles"][:2]
        swap = {}
        for cell in list(s1["cells"])[1::2]:
            u, v = s1["cells"][cell], s2["cells"][cell]
            swap[u], swap[v] = v, u
        r.graph = Graph(r.graph.n, [(swap.get(u, u), swap.get(v, v)) for u, v in r.graph.edges()])
        for b in (s1, s2):
            b["cells"] = {cell: swap.get(v, v) for cell, v in b["cells"].items()}
            b["top_ports"] = [swap.get(v, v) for v in b["top_ports"]]
            b["col_ports"] = [swap.get(v, v) for v in b["col_ports"]]
        ids = list(s1["cells"].values())
        assert ids != list(range(ids[0], ids[0] + len(ids)))
        assert validate_sd_reduction(r, 8) == reference_validate_sd_reduction(r, 8) == (True, [])
        cells = s1["cells"]
        r.graph.add_edge(cells[(1, 0)], cells[(2, 1)])
        toggle_edge(r.graph, s2["cells"][(3, 1)], s2["cells"][(3, 4)])
        (member,) = r.graph.adj[cells[(3, 5)]] - set(ids)
        r.graph.remove_edge(cells[(3, 5)], member)
        ok, issues = validate_sd_reduction(r, 8)
        assert (ok, issues) == (
            False,
            [
                "bubble s1: cells (1, 0) (2, 1) wrong",
                "bubble s1: port (3, 5) has 0 outside neighbors, wanted 1",
                "bubble s2: cells (3, 1) (3, 4) wrong",
                "vc:2 has 3 bubble neighbors, wanted 4",
            ],
        )
        assert member == r.meta["vc"][1]
        ref_ok, ref_issues = reference_validate_sd_reduction(r, 8)
        assert (ok, sorted(issues)) == (ref_ok, sorted(ref_issues))

    @pytest.mark.parametrize("offset", [-1, 0, 7])
    def test_ids_outside_the_graph(self, offset):
        # -1 must not wrap to vertex n - 1, nor n raise IndexError: each
        # such id is one issue (the reference raises on both)
        r = build_sd_reduction(PHI_SD, 8)
        n, meta = r.graph.n, r.meta
        bad = -1 if offset < 0 else n + offset
        meta["bubbles"][0]["cells"][(2, 2)] = bad
        s2 = meta["bubbles"][1]
        s2["members"] = (bad, *s2["members"][1:])
        meta["vc"] = (bad, *meta["vc"][1:])
        meta["y_ids"] = (*meta["y_ids"][:4], bad, *meta["y_ids"][5:])
        assert validate_sd_reduction(r, 8) == (
            False,
            [
                f"bubble s1: cell (2, 2) is vertex {bad}, out of range [0, {n})",
                f"bubble s2: member is vertex {bad}, out of range [0, {n})",
                f"vc:1 is vertex {bad}, out of range [0, {n})",
                f"y:5 is vertex {bad}, out of range [0, {n})",
            ],
        )


class TestReductionFingerprints:
    """sha256 of the saved reduction graph and role map, pinned from the
    builders whose bubble grid was a row-or-column loop over the cells."""

    @pytest.mark.parametrize(
        "build,digest",
        [
            (
                lambda: build_sd_reduction(PHI_SD, 8),
                "7ab948cfe63f9dd66d4c0d314e49999dab357174d68316650172c7c724bb97b9",
            ),
            (
                lambda: build_sd_reduction(PHI_SD, 12),
                "05abe3afb964d5984c7b2a5709da8547d46c8d583d9cb53cce0d6be517706c2d",
            ),
            (
                lambda: build_sdd_reduction(PHI_SDD),
                "0b66f4902ea9cc549125cdad4909cda345123d82f90bd49fad83101e3b59bb0a",
            ),
        ],
        ids=["sd-8", "sd-12", "sdd"],
    )
    def test_saved_reduction_unchanged(self, build, digest):
        r = build()
        text = save_edge_list(r.graph) + save_roles(r)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def stamped_formulas():
    """PHI_SD, the first four ``test_08`` acceptance formulas, and four
    more from the same generator on another seed."""
    return [
        PHI_SD,
        *(_gen_sd_formula(rng)[0] for rng in (_Rng(2024), _Rng(2302)) for _ in range(4)),
    ]


class TestStampedGraph:
    """build_sd_reduction stamps each bubble's adjacency and neighbour
    masks from the cached template.  A fresh reduction must equal the graph
    rebuilt edge by edge, masks included, and every bubble's grid must be
    the template's, read from ``adj`` alone (validate_sd_reduction compares
    the masks against that template, so it cannot see a stamping fault in
    the sets)."""

    @pytest.mark.parametrize("d", [8, 10, 12])
    def test_matches_edge_by_edge_build(self, d):
        template, _, _ = build_bubble(d)
        for phi in stamped_formulas():
            r = build_sd_reduction(phi, d)
            g = r.graph
            rebuilt = Graph(g.n, g.edges())
            assert g._masks == rebuilt.neighbor_masks()
            assert rebuilt == g
            for b in r.meta["bubbles"]:
                ids = [b["cells"][cell] for cell in sorted(b["cells"])]
                own = set(ids)
                for k, v in enumerate(ids):
                    assert g.adj[v] & own == {ids[j] for j in template.adj[k]}

    def test_op_reads_the_seeded_masks(self):
        phi, d = PHI_SD, 8
        r = build_sd_reduction(phi, d)
        masks = r.graph._masks
        assert masks is not None
        assert validate_sd_reduction(r, d) == (True, [])
        kept = sd_witness_from_assignment(r, phi, sat_oracle(phi))
        assert is_diverse(r.graph, kept.vertices, d)
        assert r.graph.neighbor_masks() is masks


class TestNonIntegerLevels:
    @pytest.mark.parametrize(
        "call",
        [lambda: build_sd_reduction(PHI_SD, 8.0), lambda: build_bubble(8.0)],
        ids=["build_sd_reduction", "build_bubble"],
    )
    def test_d_must_be_an_integer(self, call):
        build_bubble(8)  # a cached d = 8 template must not answer d = 8.0
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "d must be an integer, got 8.0"


class TestDeterminism:
    def test_sd_builder(self):
        a = build_sd_reduction(PHI_SD, 8)
        b = build_sd_reduction(PHI_SD, 8)
        assert a.graph.edges() == b.graph.edges()
        assert a.roles == b.roles

    def test_sdd_builder(self):
        a = build_sdd_reduction(PHI_SDD)
        b = build_sdd_reduction(PHI_SDD)
        assert a.graph.edges() == b.graph.edges()
        assert a.roles == b.roles


class TestSdWitness:
    def test_satisfying_assignment_gives_diverse_set(self):
        d = 8
        r = build_sd_reduction(PHI_SD, d)
        a = sat_oracle(PHI_SD)
        ds = sd_witness_from_assignment(r, PHI_SD, a)
        assert len(ds.vertices) == r.graph.n - PHI_SD.num_vars
        assert is_diverse(r.graph, ds.vertices, d)

    def test_monotone_positive_all_true(self):
        phi = CnfFormula(3, [(1, 2), (2, 3), (1, 3)])
        r = build_sd_reduction(phi, 8)
        a = [True, True, True]
        ds = sd_witness_from_assignment(r, phi, a)
        for i in (1, 2, 3):
            assert r.meta["lit_neg"][i] not in ds.vertices
            assert r.meta["lit_pos"][i] in ds.vertices

    def test_rejects_unsatisfying(self):
        r = build_sd_reduction(PHI_SD, 8)
        bad = [True, False, True, False]
        if not unsat_clauses(PHI_SD, bad):
            pytest.skip("chosen assignment satisfies the formula")
        with pytest.raises(ValueError, match="unsatisfied"):
            sd_witness_from_assignment(r, PHI_SD, bad)

    def test_unsatisfied_clause_pair_becomes_twins(self):
        # keep literal vertices of an assignment that misses one clause:
        # the missed clause's (v_c, d_c) pair drops to d-twins
        d = 8
        r = build_sd_reduction(PHI_SD, d)
        a = sat_oracle(PHI_SD)
        flip = next(
            m
            for m in (
                [v if k != i else not v for k, v in enumerate(a)]
                for i in range(len(a))
            )
            if unsat_clauses(PHI_SD, m)
        )
        meta = r.meta
        drop = {
            (meta["lit_neg"][i] if flip[i - 1] else meta["lit_pos"][i])
            for i in range(1, PHI_SD.num_vars + 1)
        }
        keep = frozenset(range(r.graph.n)) - drop
        assert not is_diverse(r.graph, keep, d)


class TestForeignFormula:
    """Witness builders reject a formula the reduction was not built from
    with one line, instead of a KeyError or a failed self-check."""

    @pytest.mark.parametrize(
        "build,witness,phi",
        [
            (
                lambda: build_sd_reduction(PHI_SD, 8),
                sd_witness_from_assignment,
                CnfFormula(5, list(PHI_SD.clauses) + [(5, -1)]),
            ),
            (
                lambda: build_sd_reduction(PHI_SD, 8),
                sd_witness_from_assignment,
                CnfFormula(4, [(-1, -3, 4), (-2, 3, -4), (-1, 2)]),
            ),
            (
                lambda: build_sdd_reduction(PHI_SDD),
                sdd_witness_from_assignment,
                CnfFormula(5, list(PHI_SDD.clauses) + [(5, 1, -3), (-5, 2, 4)]),
            ),
            (
                lambda: build_sdd_reduction(PHI_SDD),
                sdd_witness_from_assignment,
                CnfFormula(4, [(-1, 2, 3), (-1, -2, 4), (2, -3, -4)]),
            ),
        ],
        ids=["sd-more-vars", "sd-other-signs", "sdd-more-vars", "sdd-other-signs"],
    )
    def test_rejected(self, build, witness, phi):
        r = build()
        with pytest.raises(ValueError) as err:
            witness(r, phi, sat_oracle(phi))
        assert str(err.value) == "formula differs from the one the reduction was built from"


class TestSddReduction:
    def test_vertex_count(self):
        r = build_sdd_reduction(PHI_SDD)
        expected = sum(
            2 * PHI_SDD.occurrences(v) + 1 for v in range(1, 5)
        ) + 5 * 3 + 2
        assert r.graph.n == expected

    def test_27_vertex_example(self):
        # 2 clauses over 3 variables, each occurring twice: 15 + 10 + 2
        phi = CnfFormula(3, [(1, 2, 3), (-1, -2, -3)])
        r = build_sdd_reduction(phi)
        assert r.graph.n == 27

    def test_gamma_iota(self):
        r = build_sdd_reduction(PHI_SDD)
        assert r.graph.degree(r.meta["iota"]) == 0
        assert r.graph.degree(r.meta["gamma"]) == len(PHI_SDD.clauses)

    def test_t2b_neighborhood_identity(self):
        r = build_sdd_reduction(PHI_SDD)
        for i in range(1, PHI_SDD.num_vars + 1):
            blk = r.meta["var_block"][i]
            if blk["a"] >= 1 and blk["b"] >= 1:
                t2b = blk["ts"][2 * blk["b"] - 1]
                assert r.graph.adj[t2b] == (
                    r.graph.adj[blk["v0"]] | r.graph.adj[blk["v1"]]
                )

    def test_gadget_is_independent_set(self):
        r = build_sdd_reduction(PHI_SDD)
        for i in range(1, PHI_SDD.num_vars + 1):
            blk = r.meta["var_block"][i]
            block = [blk["v0"], *blk["ts"], blk["v1"]]
            for u, v in itertools.combinations(block, 2):
                assert not r.graph.has_edge(u, v)

    def test_clause_is_clique(self):
        r = build_sdd_reduction(PHI_SDD)
        for j in range(len(PHI_SDD.clauses)):
            cb = r.meta["clause_block"][j]
            five = [cb["top"], *cb["lits"], cb["bot"]]
            for u, v in itertools.combinations(five, 2):
                assert r.graph.has_edge(u, v)

    @pytest.mark.parametrize(
        "phi,frag",
        [
            (CnfFormula(3, [(1, 2, 3), (1, 2), (1, 3)]), "size"),
            (CnfFormula(3, [(1, 2, 3), (-1, -2, -3), (1, 2, 3), (1, 2, 3)]), "occurs"),
            (CnfFormula(3, [(1, 1, 2), (1, 2, 3), (-2, -3, -1)]), "repeats"),
        ],
    )
    def test_shape_rejected(self, phi, frag):
        with pytest.raises(ValueError, match=frag):
            build_sdd_reduction(phi)


class TestSddWitness:
    def test_fully_satisfying(self):
        r = build_sdd_reduction(PHI_SDD)
        a = sat_oracle(PHI_SDD)
        w = sdd_witness_from_assignment(r, PHI_SDD, a)
        assert w.d == 1 and check_witness(r.graph, w)

    def test_one_unsat(self):
        r = build_sdd_reduction(PHI_SDD)
        for bits in itertools.product((False, True), repeat=4):
            a = list(bits)
            if len(unsat_clauses(PHI_SDD, a)) == 1:
                w = sdd_witness_from_assignment(r, PHI_SDD, a)
                assert check_witness(r.graph, w)
                return
        pytest.fail("no assignment with exactly one unsatisfied clause")

    def test_two_unsat_rejected(self):
        phi = CnfFormula(3, [(1, 2, 3), (1, 2, 3), (-1, -2, -3)])
        r = build_sdd_reduction(phi)
        a = [False, False, False]
        assert len(unsat_clauses(phi, a)) == 2
        with pytest.raises(ValueError, match="unsatisfied"):
            sdd_witness_from_assignment(r, phi, a)

    def test_designated_clause_enforced(self):
        r = build_sdd_reduction(PHI_SDD)
        for bits in itertools.product((False, True), repeat=4):
            a = list(bits)
            missed = unsat_clauses(PHI_SDD, a)
            if len(missed) == 1:
                other = next(j for j in range(3) if j != missed[0])
                with pytest.raises(ValueError, match="allowed"):
                    sdd_witness_from_assignment(
                        r, PHI_SDD, a, allowed_unsat_clause=other
                    )
                return

    def test_one_sided_variables(self):
        phi = CnfFormula(4, [(1, 2, 3), (1, -2, -4), (3, -4, 2)])
        r = build_sdd_reduction(phi)
        for bits in itertools.product((False, True), repeat=4):
            a = list(bits)
            if len(unsat_clauses(phi, a)) <= 1:
                w = sdd_witness_from_assignment(r, phi, a)
                assert check_witness(r.graph, w)


class TestExtractAssignment:
    def test_round_trip(self):
        r = build_sdd_reduction(PHI_SDD)
        for bits in itertools.product((False, True), repeat=4):
            a = list(bits)
            if len(unsat_clauses(PHI_SDD, a)) <= 1:
                w = sdd_witness_from_assignment(r, PHI_SDD, a)
                got, unsat = extract_assignment(r, w)
                assert unsat <= 1
                assert unsat == len(unsat_clauses(PHI_SDD, got))

    def test_duplicated_instance_recovers_satisfying_half(self):
        base = CnfFormula(3, [(1, 2, 3), (-1, -2, 3), (1, -2, -3)])
        doubled = CnfFormula(
            6,
            list(base.clauses)
            + [tuple(l + 3 if l > 0 else l - 3 for l in c) for c in base.clauses],
        )
        r = build_sdd_reduction(doubled)
        a = sat_oracle(doubled, allow_one_unsat=True)
        w = sdd_witness_from_assignment(r, doubled, a)
        got, unsat = extract_assignment(r, w)
        assert unsat <= 1
        # one half is untouched by the single miss, so it satisfies base
        first_ok = not unsat_clauses(base, got[:3])
        second_ok = not unsat_clauses(base, got[3:])
        assert first_ok or second_ok

    def test_minimal_formula(self):
        phi = CnfFormula(3, [(1, 2, 3), (1, 2, 3)])
        r = build_sdd_reduction(phi)
        a = [True, False, False]
        w = sdd_witness_from_assignment(r, phi, a)
        got, unsat = extract_assignment(r, w)
        assert unsat == 0
        # the surviving representative side fixes each variable
        assert got[0] is True

    def test_rejects_invalid_order(self):
        from sdlabel import SddWitness

        r = build_sdd_reduction(PHI_SDD)
        with pytest.raises(ValueError, match="valid"):
            extract_assignment(
                r, SddWitness(1, tuple((i, i + 1) for i in range(r.graph.n - 1)))
            )

    def test_exact_oracle_on_miniature(self):
        # tiny two-clause instance: the reduction graph itself has
        # sd-degeneracy 1, confirmed by the state-space oracle
        phi = CnfFormula(3, [(1, 2, 3), (-1, -2, -3)])
        r = build_sdd_reduction(phi)
        assert r.graph.n == 27
        assert sat_oracle(phi, allow_one_unsat=True) is not None
        d, w = sdd_exact(r.graph, limit=27)
        assert d == 1
        got, unsat = extract_assignment(r, w)
        assert unsat <= 1
