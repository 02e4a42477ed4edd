"""SAT-reduction graph builders with desk-scale correctness oracles.

Two reductions from bounded-occurrence 3-SAT:

* the *diverse-subgraph* reduction (build_sd_reduction): the built graph
  has an induced subgraph with at least two vertices and no d-twin pair
  iff the formula is satisfiable;

* the *elimination-order* reduction (build_sdd_reduction): the built
  graph has sd-degeneracy at most 1 iff some assignment satisfies all
  clauses but at most one.

Only the constructive directions are executed here: a satisfying
assignment is turned into a diverse set or an elimination order, and an
elimination order is turned back into an assignment.  The converse
directions are checked on miniature instances by the test suite via the
exact oracles in :mod:`sdlabel.twins`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .graph import Graph, bit_masks, gen_rook, induced_subgraph
from .twins import DiverseSet, SddWitness, check_witness

__all__ = [
    "CnfFormula",
    "ReductionMap",
    "load_cnf",
    "save_cnf",
    "unsat_clauses",
    "sat_oracle",
    "build_bubble",
    "build_sd_reduction",
    "validate_sd_reduction",
    "sd_witness_from_assignment",
    "build_sdd_reduction",
    "sdd_witness_from_assignment",
    "extract_assignment",
    "save_roles",
]

SAT_ORACLE_LIMIT = 24


@dataclass(frozen=True)
class CnfFormula:
    """CNF with 1-based variables; a literal is +v or -v."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        object.__setattr__(
            self, "clauses", tuple(tuple(c) for c in self.clauses)
        )
        for c in self.clauses:
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def occurrences(self, var: int) -> int:
        return sum(1 for c in self.clauses for lit in c if abs(lit) == var)


def load_cnf(text: str) -> CnfFormula:
    """DIMACS CNF; clauses are runs of literals terminated by 0."""
    tokens = []
    num_vars = num_clauses = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if num_vars is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
        else:
            for t in parts:
                try:
                    tokens.append(int(t))
                except ValueError:
                    raise ValueError(f"line {lineno}: malformed literal {t!r}") from None
    if num_vars is None:
        raise ValueError("missing `p cnf` header")
    clauses = []
    cur: list[int] = []
    for t in tokens:
        if t == 0:
            if not cur:
                raise ValueError("empty clause")
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(t)
    if cur:
        raise ValueError("unterminated clause")
    if len(clauses) != num_clauses:
        raise ValueError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def save_cnf(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in phi.clauses)
    return "\n".join(lines) + "\n"


def _clause_satisfied(clause, assignment) -> bool:
    return any(
        assignment[abs(lit) - 1] == (lit > 0) for lit in clause
    )


def unsat_clauses(phi: CnfFormula, assignment) -> list[int]:
    """0-based indices of clauses the assignment leaves unsatisfied."""
    if len(assignment) != phi.num_vars:
        raise ValueError("assignment length mismatch")
    return [
        j for j, c in enumerate(phi.clauses) if not _clause_satisfied(c, assignment)
    ]


def sat_oracle(phi: CnfFormula, allow_one_unsat: bool = False,
               limit: int = SAT_ORACLE_LIMIT):
    """Exhaustive search for an assignment leaving <= 0 (or 1) clauses
    unsatisfied; returns the first such assignment (variable i is bit i-1
    of the counter) or None."""
    if phi.num_vars > limit:
        raise ValueError(f"too many variables for exhaustive search "
                         f"({phi.num_vars} > {limit})")
    budget = 1 if allow_one_unsat else 0
    for bits in range(1 << phi.num_vars):
        assignment = [(bits >> i) & 1 == 1 for i in range(phi.num_vars)]
        misses = 0
        for c in phi.clauses:
            if not _clause_satisfied(c, assignment):
                misses += 1
                if misses > budget:
                    break
        if misses <= budget:
            return assignment
    return None


@dataclass
class ReductionMap:
    """A reduction graph plus a total vertex -> role-tag map.

    ``meta`` records the construction's internals (gadget ids, port
    assignments, parameters, the formula as ``"phi"``) so validators and
    witness builders do not re-derive them from the raw graph or from
    ``roles``, which is written for :func:`save_roles` only.
    """

    graph: Graph
    roles: dict[int, str]
    meta: dict = field(default_factory=dict)


def save_roles(r: ReductionMap) -> str:
    return "".join(f"r {v} {r.roles[v]}\n" for v in sorted(r.roles))


# ---------------------------------------------------------------------------
# Bubble gadget (diverse-subgraph reduction)
# ---------------------------------------------------------------------------


class _Bubble(NamedTuple):
    """The bubble gadget at one d, shared by every caller (see _bubble).

    Cell k is the k-th kept cell in row-major order.  ``rows[k]`` lists the
    cells adjacent to cell k in increasing order and ``masks[k]`` holds the
    same cells as bits; ``tags[k]`` is cell k as ``"row:col"``; ``top`` and
    ``col`` are the port cells.  ``build_sd_reduction`` stamps every bubble
    from ``rows`` (adjacency sets) and ``masks`` (shifted to the bubble's
    first id), and ``validate_sd_reduction`` checks each cell against them.
    """

    cells: tuple[tuple[int, int], ...]
    tags: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    top: tuple[int, ...]
    col: tuple[int, ...]


def _even_level(d, what: str) -> int:
    """``d`` as an int, or a one-line ValueError unless it is an even
    integer >= 8."""
    try:
        d = operator.index(d)
    except TypeError:
        raise ValueError(f"d must be an integer, got {d!r}") from None
    if d < 8 or d % 2:
        raise ValueError(f"{what} needs even d >= 8")
    return d


@lru_cache(maxsize=None, typed=True)
def _bubble(d: int) -> _Bubble:
    """The bubble at d, built once per d: a w x w rook grid, w = d/2 + 2,
    induced on all cells but the two rightmost of the top row.  Ports are
    the top row (d/2 cells, left to right) then the rightmost column
    (d/2 + 1 cells, top to bottom).  The cache is typed, so d = 8.0 is
    checked (and rejected) rather than served the entry of d = 8."""
    d = _even_level(d, "bubble gadget")
    w = d // 2 + 2
    removed = {(0, w - 2), (0, w - 1)}
    cells = tuple((r, c) for r in range(w) for c in range(w) if (r, c) not in removed)
    g, _ = induced_subgraph(gen_rook(w, w), [r * w + c for r, c in cells])
    index = {cell: k for k, cell in enumerate(cells)}
    return _Bubble(
        cells=cells,
        tags=tuple(f"{r}:{c}" for r, c in cells),
        rows=tuple(tuple(sorted(nbrs)) for nbrs in g.adj),
        masks=g.neighbor_masks(),
        top=tuple(index[0, c] for c in range(w - 2)),
        col=tuple(index[r, w - 1] for r in range(1, w)),
    )


def build_bubble(d: int):
    """Stand-alone bubble gadget; returns (graph, top_ports, col_ports).
    The graph is the w x w rook grid induced on the kept cells, so vertex
    k is the k-th kept cell in row-major order."""
    b = _bubble(d)
    edges = [(k, j) for k, row in enumerate(b.rows) for j in row if k < j]
    return Graph(len(b.cells), edges), list(b.top), list(b.col)


def _check_formula(meta: dict, phi: CnfFormula) -> None:
    if phi != meta["phi"]:
        raise ValueError("formula differs from the one the reduction was built from")


def _check_sd_shape(phi: CnfFormula, d) -> int:
    """``d`` as an int, or a one-line ValueError if ``phi`` or ``d`` does
    not fit the reduction."""
    d = _even_level(d, "reduction")
    if len(phi.clauses) < 3:
        raise ValueError("need at least three clauses")
    if phi.num_vars < 2:
        raise ValueError("need at least two variables")
    for j, c in enumerate(phi.clauses):
        if len(c) not in (2, 3):
            raise ValueError(f"clause {j} has size {len(c)}, need 2 or 3")
        if len({abs(l) for l in c}) != len(c):
            raise ValueError(f"clause {j} repeats a variable")
    for v in range(1, phi.num_vars + 1):
        occ = phi.occurrences(v)
        if not 1 <= occ <= 3:
            raise ValueError(f"variable {v} occurs {occ} times, need 1..3")
    return d


def build_sd_reduction(phi: CnfFormula, d: int) -> ReductionMap:
    """The diverse-subgraph reduction graph.

    Layout (ids in order): literal vertices x_i, not-x_i per variable;
    the shared-neighbor sets N_x concatenated as y_1..y_{nt}; clause
    pairs v_c, d_c; then the bubbles.  Bubbles are neatly attached with
    ports consumed left-to-right along the top row, then top-to-bottom
    along the rightmost column.

    Only the gadget and port edges go through ``Graph``.  Each bubble is
    then stamped from the cached template ``_bubble(d)``: a cell's
    adjacency set gets its template row mapped to the bubble's ids, and its
    neighbour mask is its template mask shifted to the bubble's first id,
    with the port's member bit ORed in.  The graph so comes with its
    ``neighbor_masks`` already built (about n**2 / 8 bytes), and
    ``validate_sd_reduction`` and ``twins.is_diverse`` read them as they
    are.
    """
    d = _check_sd_shape(phi, d)
    nv, m = phi.num_vars, len(phi.clauses)
    t = d // 2 + 1
    nt = nv * t
    if m - 1 > nt - 2:
        raise ValueError("not enough shared-neighbor vertices for distinct z_j")

    roles: dict[int, str] = {}
    edges: list[tuple[int, int]] = []

    lit_pos = {}
    lit_neg = {}
    for i in range(1, nv + 1):
        lit_pos[i] = 2 * (i - 1)
        lit_neg[i] = 2 * (i - 1) + 1
        roles[lit_pos[i]] = f"lit:+{i}"
        roles[lit_neg[i]] = f"lit:-{i}"
    y_base = 2 * nv
    y_ids = tuple(y_base + k for k in range(nt))  # y_1 .. y_nt
    for k, y in enumerate(y_ids, start=1):
        roles[y] = f"y:{k}"
    c_base = y_base + nt
    vc = tuple(c_base + 2 * j for j in range(m))
    dc = tuple(c_base + 2 * j + 1 for j in range(m))
    for j in range(m):
        roles[vc[j]] = f"vc:{j + 1}"
        roles[dc[j]] = f"dc:{j + 1}"

    # variable gadgets: both literals adjacent to all of N_x
    for i in range(1, nv + 1):
        block = y_ids[(i - 1) * t : i * t]
        for y in block:
            edges.append((lit_pos[i], y))
            edges.append((lit_neg[i], y))
    # clause gadgets
    for j, clause in enumerate(phi.clauses):
        edges.append((vc[j], dc[j]))
        for lit in clause:
            rep = lit_pos[lit] if lit > 0 else lit_neg[-lit]
            edges.append((vc[j], rep))
    # consecutive clause pairs fully joined
    for j in range(m - 1):
        for u in (vc[j], dc[j]):
            for v in (vc[j + 1], dc[j + 1]):
                edges.append((u, v))
    # clique on the first ceil(d/4) vertices of N_{x_1}, fully joined to
    # the first ceil(d/4) vertices of N_{x_2}
    q = -(-d // 4)  # ceil
    first1 = y_ids[:q]
    first2 = y_ids[t : t + q]
    for a in range(q):
        for b in range(a + 1, q):
            edges.append((first1[a], first1[b]))
    for a in first1:
        for b in first2:
            edges.append((a, b))

    next_id = first_cell = c_base + 2 * m
    bubbles = []
    bub = _bubble(d)
    cells = bub.cells
    port_cells = bub.top + bub.col
    stamps = []  # each bubble's cell ids, in cell order
    cell_masks = []  # every cell's neighbour mask, in id order

    def attach_bubble(bid: str, members, counts):
        nonlocal next_id
        ids = list(range(next_id, next_id + len(cells)))
        prefix = f"bub:{bid}:"
        roles.update(zip(ids, map(prefix.__add__, bub.tags)))
        next_id += len(cells)
        stamps.append(ids)
        stamp = [mask << ids[0] for mask in bub.masks]
        top_ids = [ids[k] for k in bub.top]
        col_ids = [ids[k] for k in bub.col]
        assert sum(counts) == len(port_cells) == d + 1
        assert len(counts) == len(members)
        pos = 0
        for member, cnt in zip(members, counts):
            for k in port_cells[pos : pos + cnt]:
                edges.append((member, ids[k]))
                stamp[k] |= 1 << member
            pos += cnt
        cell_masks.extend(stamp)
        bubbles.append(
            {
                "id": bid,
                "cells": dict(zip(cells, ids)),
                "top_ports": top_ids,
                "col_ports": col_ids,
                "members": tuple(members),
                "counts": tuple(counts),
            }
        )

    fl = d // 4
    ce = q
    # inter-clause bubbles: S_j = (z_j, v_j, d_j, v_{j+1}, d_{j+1}); the
    # z_j are the pairwise distinct y vertices not used in a terminal
    # attachment, taken in global y-order: z_j = y_{j+1}
    for j in range(m - 1):
        zj = y_ids[j + 1]
        attach_bubble(
            f"s{j + 1}",
            (zj, vc[j], dc[j], vc[j + 1], dc[j + 1]),
            (1, fl, fl, ce, ce),
        )
    attach_bubble("term1", (vc[0], dc[0], y_ids[0]), (ce, ce, d + 1 - 2 * ce))
    attach_bubble("term2", (vc[m - 1], dc[m - 1], y_ids[nt - 1]), (fl, fl, d + 1 - 2 * fl))
    for i in range(nt - 2):
        attach_bubble(
            f"sp{i + 1}",
            (y_ids[i], y_ids[i + 1], y_ids[i + 2]),
            (1, d // 2, d // 2),
        )

    # The edges so far are the gadgets and the ports; each bubble's grid is
    # stamped from the template, and the masks are seeded to match.
    g = Graph(next_id, edges)
    adj = g.adj
    rows = bub.rows
    for ids in stamps:
        # ids[a], not an offset sum: the adjacency sets keep the ints they
        # are given, and one shared int per cell keeps the reduction small.
        at = ids.__getitem__
        for v, row in zip(ids, rows):
            adj[v].update(map(at, row))
    g._masks = tuple(bit_masks(adj[:first_cell]) + cell_masks)
    meta = {
        "kind": "sd",
        "d": d,
        "t": t,
        "num_vars": nv,
        "num_clauses": m,
        "lit_pos": lit_pos,
        "lit_neg": lit_neg,
        "y_ids": y_ids,
        "vc": vc,
        "dc": dc,
        "bubbles": bubbles,
        "phi": phi,
    }
    return ReductionMap(g, roles, meta)


def validate_sd_reduction(r: ReductionMap, d: int) -> tuple[bool, list[str]]:
    """Structural checks: every bubble neatly attached (ports have exactly
    one outside neighbor, interiors none, at most one member straddles the
    top row and the column), bubble interiors are exact copies of
    :func:`build_bubble`, and the degree observations (clause vertices have
    exactly d/2 bubble neighbors; y_i at least d/2+1, and at least d once
    i >= 3).  Per bubble, issues come as wrong cell pairs, then ports and
    interiors in cell order, then straddling members.  A ``d`` other than
    ``meta["d"]`` gives one issue naming both.

    A vertex id in ``meta`` outside [0, n) (a cell, a member, a y or a
    clause vertex) is one issue naming it, in the place of that vertex's
    checks; a bubble with such a cell gets no cell checks, and such a
    member is left out of the straddle count."""
    meta = r.meta
    if meta.get("kind") != "sd":
        return False, ["not a diverse-subgraph reduction"]
    if d != meta["d"]:
        return False, [f"reduction was built at d = {meta['d']}, not d = {d}"]
    g = r.graph
    n, adj = g.n, g.adj
    masks = g.neighbor_masks()
    bub = _bubble(d)
    cells, rows = bub.cells, bub.rows
    size = len(cells)
    ports = set(bub.top) | set(bub.col)

    def outside_graph(what, v) -> str:
        return f"{what} is vertex {v}, out of range [0, {n})"

    issues = []
    bubble_mask = 0
    for b in meta["bubbles"]:
        bid = b["id"]
        vertices = list(map(b["cells"].__getitem__, cells))
        # On consecutive ids, cell k's neighbours inside the bubble must be
        # its template row shifted to the bubble's first id: one AND and one
        # compare per cell.  The sets are compared only to name wrong pairs.
        base = vertices[0]
        if vertices == list(range(base, base + size)) and 0 <= base <= n - size:
            own = ((1 << size) - 1) << base
        else:
            base, own, named = -1, 0, len(issues)
            for cell, v in zip(cells, vertices):
                if 0 <= v < n:
                    own |= 1 << v
                else:
                    issues.append(outside_graph(f"bubble {bid}: cell {cell}", v))
            if len(issues) > named:
                vertices = ()
        bubble_mask |= own
        members = [s for s in b["members"] if 0 <= s < n]
        if len(members) < len(b["members"]):
            issues.extend(
                outside_graph(f"bubble {bid}: member", s)
                for s in b["members"]
                if not 0 <= s < n
            )
        slot = None
        attach = []
        for k, v in enumerate(vertices):
            inside = masks[v] & own
            if base < 0 or inside != bub.masks[k] << base:
                if slot is None:
                    slot = {x: j for j, x in enumerate(vertices)}
                wrong = {slot[x] for x in adj[v] if x in slot}.symmetric_difference(rows[k])
                for j in sorted(wrong):
                    if j > k:
                        issues.append(f"bubble {bid}: cells {cells[k]} {cells[j]} wrong")
            outside = len(adj[v]) - inside.bit_count()
            if k in ports:
                if outside != 1:
                    attach.append(
                        f"bubble {bid}: port {cells[k]} has "
                        f"{outside} outside neighbors, wanted 1"
                    )
            elif outside:
                attach.append(f"bubble {bid}: interior {cells[k]} touches outside")
        issues.extend(attach)
        straddlers = [
            s
            for s in members
            if not adj[s].isdisjoint(b["top_ports"])
            and not adj[s].isdisjoint(b["col_ports"])
        ]
        if len(straddlers) > 1:
            issues.append(f"bubble {bid}: {len(straddlers)} members straddle")
    half = d // 2
    for j in range(meta["num_clauses"]):
        for tag in ("vc", "dc"):
            v = meta[tag][j]
            if not 0 <= v < n:
                issues.append(outside_graph(f"{tag}:{j + 1}", v))
                continue
            k = (masks[v] & bubble_mask).bit_count()
            if k != half:
                issues.append(f"{tag}:{j + 1} has {k} bubble neighbors, wanted {half}")
    for i, y in enumerate(meta["y_ids"], start=1):
        if not 0 <= y < n:
            issues.append(outside_graph(f"y:{i}", y))
            continue
        k = (masks[y] & bubble_mask).bit_count()
        if k < half + 1:
            issues.append(f"y:{i} has {k} bubble neighbors, wanted >= {half + 1}")
        if i >= 3 and k < d:
            issues.append(f"y:{i} has {k} bubble neighbors, wanted >= {d}")
    return (not issues, issues)


def sd_witness_from_assignment(r: ReductionMap, phi: CnfFormula, assignment) -> DiverseSet:
    """Keep everything except the false literal vertex of each variable.

    The assignment must satisfy every clause; the returned set induces a
    (d+1)-diverse subgraph of the reduction graph.
    """
    meta = r.meta
    if meta.get("kind") != "sd":
        raise ValueError("not a diverse-subgraph reduction")
    _check_formula(meta, phi)
    missed = unsat_clauses(phi, assignment)
    if missed:
        raise ValueError(f"assignment leaves clauses {missed} unsatisfied")
    drop = {
        (meta["lit_neg"][i] if assignment[i - 1] else meta["lit_pos"][i])
        for i in range(1, phi.num_vars + 1)
    }
    keep = frozenset(range(r.graph.n)) - drop
    return DiverseSet(keep, meta["d"])


# ---------------------------------------------------------------------------
# Elimination-order reduction
# ---------------------------------------------------------------------------


def _check_sdd_shape(phi: CnfFormula) -> None:
    for j, c in enumerate(phi.clauses):
        if len(c) != 3:
            raise ValueError(f"clause {j} has size {len(c)}, need exactly 3")
        if len({abs(l) for l in c}) != 3:
            raise ValueError(f"clause {j} repeats a variable")
    for v in range(1, phi.num_vars + 1):
        occ = phi.occurrences(v)
        if occ not in (2, 3):
            raise ValueError(f"variable {v} occurs in {occ} clauses, need 2 or 3")


def build_sdd_reduction(phi: CnfFormula) -> ReductionMap:
    """The elimination-order reduction graph.

    Per variable, an independent set v_0 (representative of the negated
    literal), transition vertices t_1..t_{2p-1}, v_1 (representative of
    the positive literal); per clause a 5-clique c_top, c_l1, c_l2, c_l3,
    c_bot; a hub gamma adjacent to every c_bot; an isolated vertex iota.
    Transition neighborhoods walk from N(v_0) to N(v_1) one vertex at a
    time, first adding v_1's neighbors (clause literal vertices before
    c_top vertices), then removing v_0's (c_top vertices before literal
    vertices); within a kind, clause order decides.
    """
    _check_sdd_shape(phi)
    nv, m = phi.num_vars, len(phi.clauses)
    roles: dict[int, str] = {}
    edges: list[tuple[int, int]] = []

    var_block = {}
    next_id = 0
    for i in range(1, nv + 1):
        p = phi.occurrences(i)
        v0 = next_id
        ts = tuple(range(next_id + 1, next_id + 2 * p))
        v1 = next_id + 2 * p
        next_id += 2 * p + 1
        var_block[i] = {"v0": v0, "v1": v1, "ts": ts, "p": p}
        roles[v0] = f"var:{i}:rep0"
        roles[v1] = f"var:{i}:rep1"
        for k, tv in enumerate(ts, start=1):
            roles[tv] = f"var:{i}:t{k}"

    clause_block = {}
    for j in range(m):
        top = next_id
        lits = (next_id + 1, next_id + 2, next_id + 3)
        bot = next_id + 4
        next_id += 5
        clause_block[j] = {"top": top, "lits": lits, "bot": bot}
        roles[top] = f"cl:{j + 1}:top"
        for k, lv in enumerate(lits, start=1):
            roles[lv] = f"cl:{j + 1}:lit{k}"
        roles[bot] = f"cl:{j + 1}:bot"
        five = (top, *lits, bot)
        for a in range(5):
            for b in range(a + 1, 5):
                edges.append((five[a], five[b]))

    gamma = next_id
    iota = next_id + 1
    next_id += 2
    roles[gamma] = "gamma"
    roles[iota] = "iota"

    # rule 1: clause literal vertices and c_top to the representatives
    for j, clause in enumerate(phi.clauses):
        cb = clause_block[j]
        for k, lit in enumerate(clause):
            blk = var_block[abs(lit)]
            rep = blk["v1"] if lit > 0 else blk["v0"]
            edges.append((cb["lits"][k], rep))
            edges.append((cb["top"], rep))
    # rule 2
    for j in range(m):
        edges.append((clause_block[j]["bot"], gamma))

    # rule 3: transition neighborhoods
    for i in range(1, nv + 1):
        blk = var_block[i]
        neg_clauses = [j for j, c in enumerate(phi.clauses) if -i in c]
        pos_clauses = [j for j, c in enumerate(phi.clauses) if i in c]
        a, b = len(neg_clauses), len(pos_clauses)
        blk["a"], blk["b"] = a, b
        xs = [clause_block[j]["top"] for j in neg_clauses]
        xs += [
            clause_block[j]["lits"][list(phi.clauses[j]).index(-i)]
            for j in neg_clauses
        ]
        ys = [
            clause_block[j]["lits"][list(phi.clauses[j]).index(i)]
            for j in pos_clauses
        ]
        ys += [clause_block[j]["top"] for j in pos_clauses]
        # Walk from N(v_0) to N(v_1), one vertex per transition: add the
        # y_i, then delete x_1..x_{2a-1}.  A variable with only one kind of
        # literal has 2p-1 transitions for a 2p-long difference, so the
        # last addition (or the first deletion) is absorbed by v_1 itself.
        hops = []
        cur = set(xs)
        if a == 0:
            for y in ys[:-1]:
                cur = cur | {y}
                hops.append(frozenset(cur))
        else:
            for y in ys:
                cur = cur | {y}
                hops.append(frozenset(cur))
            for x in xs[:-1]:
                cur = cur - {x}
                hops.append(frozenset(cur))
        assert len(hops) == 2 * blk["p"] - 1
        for tv, nb in zip(blk["ts"], hops):
            edges.extend((tv, w) for w in sorted(nb))

    g = Graph(next_id, edges)
    meta = {
        "kind": "sdd",
        "num_vars": nv,
        "num_clauses": m,
        "var_block": var_block,
        "clause_block": clause_block,
        "gamma": gamma,
        "iota": iota,
        "phi": phi,
    }
    return ReductionMap(g, roles, meta)


def sdd_witness_from_assignment(
    r: ReductionMap, phi: CnfFormula, assignment, allowed_unsat_clause=None
) -> SddWitness:
    """Elimination order at d = 1 from an almost-satisfying assignment.

    Variable gadgets collapse along their 1-twin paths onto the surviving
    representative; satisfied clause gadgets fall in the order c_top,
    c_l2, c_l3, c_l1, c_bot (l1 being the first satisfied literal); then
    gamma, then the one unsatisfied gadget, then the degree-<=1 cleanup
    against iota.
    """
    meta = r.meta
    if meta.get("kind") != "sdd":
        raise ValueError("not an elimination-order reduction")
    _check_formula(meta, phi)
    missed = unsat_clauses(phi, assignment)
    if allowed_unsat_clause is not None:
        if any(j != allowed_unsat_clause for j in missed):
            raise ValueError(
                f"clauses {missed} unsatisfied, only {allowed_unsat_clause} allowed"
            )
    elif len(missed) > 1:
        raise ValueError(f"assignment leaves {len(missed)} clauses unsatisfied")
    unsat = missed[0] if missed else None

    iota = meta["iota"]
    steps: list[tuple[int, int]] = []
    for i in range(1, phi.num_vars + 1):
        blk = meta["var_block"][i]
        path = (blk["v0"], *blk["ts"], blk["v1"])
        if assignment[i - 1]:  # keep v0, eliminate from the v1 end
            for k in range(len(path) - 1, 0, -1):
                steps.append((path[k], path[k - 1]))
        else:  # keep v1
            for k in range(len(path) - 1):
                steps.append((path[k], path[k + 1]))
    for j, clause in enumerate(phi.clauses):
        if j == unsat:
            continue
        cb = meta["clause_block"][j]
        sat_pos = next(
            k for k, lit in enumerate(clause)
            if assignment[abs(lit) - 1] == (lit > 0)
        )
        l1 = cb["lits"][sat_pos]
        l2, l3 = (cb["lits"][k] for k in range(3) if k != sat_pos)
        steps.append((cb["top"], l2))
        steps.append((l2, l1))
        steps.append((l3, l1))
        steps.append((l1, cb["bot"]))
        steps.append((cb["bot"], iota))
    steps.append((meta["gamma"], iota))
    if unsat is not None:
        cb = meta["clause_block"][unsat]
        for lv in cb["lits"]:
            steps.append((lv, cb["bot"]))
        steps.append((cb["bot"], iota))
    # cleanup: surviving representatives, then the last c_top
    survivors = [
        (meta["var_block"][i]["v0"] if assignment[i - 1] else meta["var_block"][i]["v1"])
        for i in range(1, phi.num_vars + 1)
    ]
    for v in sorted(survivors):
        steps.append((v, iota))
    if unsat is not None:
        steps.append((meta["clause_block"][unsat]["top"], iota))
    w = SddWitness(1, tuple(steps))
    if not check_witness(r.graph, w):
        raise AssertionError("constructed elimination order failed verification")
    return w


def extract_assignment(r: ReductionMap, order: SddWitness):
    """Assignment read off an elimination order.

    Per variable, the last gadget vertex to go (or the survivor) decides:
    x is true iff that vertex's original neighborhood contains N(v_0).
    Returns (assignment, number of clauses of ``meta["phi"]`` it leaves
    unsatisfied); the count is at most 1 for any valid order.
    """
    meta = r.meta
    if meta.get("kind") != "sdd":
        raise ValueError("not an elimination-order reduction")
    if order.d > 1 or not check_witness(r.graph, order):
        raise ValueError("order is not a valid d=1 elimination sequence")
    position = {e: k for k, (e, _) in enumerate(order.steps)}
    g = r.graph
    assignment = []
    for i in range(1, meta["num_vars"] + 1):
        blk = meta["var_block"][i]
        gadget = (blk["v0"], *blk["ts"], blk["v1"])
        last = max(gadget, key=lambda v: position.get(v, len(order.steps)))
        assignment.append(g.adj[last] >= g.adj[blk["v0"]])
    return assignment, len(unsat_clauses(meta["phi"], assignment))
