"""Pairwise symmetric difference, d-twins, and sd-degeneracy.

For distinct vertices u, v the pairwise symmetric difference sd(u, v) is
the number of vertices outside {u, v} adjacent to exactly one of them.
The symmetric difference of a graph is the maximum over induced subgraphs
of the minimum pairwise value; the sd-degeneracy is the least d admitting
an elimination order in which every eliminated vertex has a d-twin among
the survivors.

Both graph-level quantities are hard to compute, so the exact routines
here are desk-scale search oracles guarded by size limits; they exist to
validate the constructive machinery in the rest of the library.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, reject_non_integer

__all__ = [
    "SddWitness",
    "DiverseSet",
    "SUBSET_SEARCH_LIMIT",
    "SDD_SEARCH_LIMIT",
    "sd_pair",
    "d_twin_pairs",
    "is_diverse",
    "find_diverse_subgraph",
    "sd_exact",
    "sdd_exact",
    "sdd_greedy",
    "sdd_greedy_escalate",
    "check_witness",
    "embed_sdd1",
    "save_witness",
    "load_witness",
]

# Exhaustive-search guards.  Both problems are (co-)NP-hard, so the exact
# oracles are only meant for desk-scale instances; callers may pass a
# larger limit explicitly when they know the search is witness-guided.
SUBSET_SEARCH_LIMIT = 18
SDD_SEARCH_LIMIT = 20


@dataclass(frozen=True)
class SddWitness:
    """Elimination sequence certifying sd-degeneracy <= d.

    ``steps`` holds (eliminated, partner) pairs; at each step the pair must
    be d-twins in the graph induced by the not-yet-eliminated vertices.
    A single-vertex graph is witnessed by the empty sequence.
    """

    d: int
    steps: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DiverseSet:
    """Vertex set whose induced subgraph has no pair of d-twins."""

    vertices: frozenset[int]
    d: int


def _check_level(d) -> int:
    """``d`` as an int, or a one-line ValueError if it is no integer or < 0."""
    try:
        d = operator.index(d)
    except TypeError:
        raise ValueError(f"d must be an integer, got {d!r}") from None
    if d < 0:
        raise ValueError("d must be non-negative")
    return d


def sd_pair(g: Graph, u: int, v: int) -> int:
    """|(N(u) \\ {v}) symmetric-difference (N(v) \\ {u})|.

    Read off the graph's cached neighbour masks: the closed N[u] and the
    open N(v) differ in exactly one of the bits u, v, so the value is
    |N[u] ^ N(v)| - 1.
    """
    try:
        if u != v >= 0 <= u < g.n > v:  # distinct, both in [0, n)
            m = g._masks or g.neighbor_masks()
            return ((m[u] | 1 << u) ^ m[v]).bit_count() - 1
    except TypeError:
        reject_non_integer(u, v)
        raise
    g._check(u)
    g._check(v)
    raise ValueError(f"sd_pair needs distinct vertices, got {u} twice")


def d_twin_pairs(g: Graph, d: int) -> list[tuple[int, int]]:
    """All pairs u < v with sd_pair(g, u, v) <= d, lexicographically sorted."""
    d = _check_level(d)
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if sd_pair(g, u, v) <= d
    ]


def _has_twin_pair(masks, ids, d: int) -> bool:
    """True iff two of ``ids`` are d-twins in the subgraph S they induce.

    Inside S, sd(u, v) = |N[u] ^ N(v)| - 1: the closed N[u] and the open
    N(v) differ in exactly one of the bits u, v.  Each pair is cut to S on
    its own and the scan stops at the first twin pair, which suits the
    many small sets of the exhaustive oracles.  is_diverse instead cuts
    every mask to S once and tests only the pairs that can be twins, which
    pays for one large S; _greedy_steps keeps its cut masks up to date
    across eliminations, tests each vertex only against partners above it,
    and on a re-test only against those an elimination split from it.
    """
    smask = 0
    for u in ids:
        smask |= 1 << u
    limit = d + 1
    for i, u in enumerate(ids):
        closed = masks[u] | (1 << u)
        for v in ids[i + 1 :]:
            if ((closed ^ masks[v]) & smask).bit_count() <= limit:
                return True
    return False


def is_diverse(g: Graph, vertices, d: int) -> bool:
    """True iff |S| >= 2 and every pair inside G[S] has sd >= d+1.

    Polynomial time; no size limit.  Every neighbourhood is cut to S once.
    Only three kinds of pair can be d-twins inside S: adjacent pairs, pairs
    with a common neighbour in S, and pairs with deg_S(u) + deg_S(v) <= d.
    Any other pair has disjoint S-neighbourhoods that miss u and v, so its
    sd is exactly deg_S(u) + deg_S(v) > d.  A pair of the third kind is a
    d-twin pair outright, since sd never exceeds the degree sum: if the two
    least S-degrees sum to at most d the answer is False at once.  Else no
    pair is of the third kind, and each u is tested only against the
    vertices above it in N_S(u) and in the S-neighbourhoods of N_S(u).

    Gathering those candidates costs about sum(deg_S(v)**2) n-bit ORs over
    S, so on dense sets it is slower than testing all |S|**2 / 2 pairs
    would be.  Each u's candidates are walked on their mask shifted down
    past u, so a step works on an int that spans only from the current
    candidate to u's last one, not all n bits: a bubble cell's candidates
    lie a few dozen ids above it.
    """
    d = _check_level(d)
    s = sorted(set(vertices))
    if s and not (0 <= s[0] and s[-1] < g.n):
        g._check(next(u for u in s if not 0 <= u < g.n))
    if len(s) < 2:
        return False
    masks = g.neighbor_masks()
    smask = 0
    try:
        for u in s:
            smask |= 1 << u
    except TypeError:
        reject_non_integer(u)
        raise
    # cut[v] stays 0 for v outside S, so OR-ing in any neighbour's cut is safe
    cut = [0] * g.n
    for u in s:
        cut[u] = masks[u] & smask
    deg = [cut[u].bit_count() for u in s]
    if sum(heapq.nsmallest(2, deg)) <= d:
        return False
    # With both neighbourhoods cut to S, sd(u, v) = |N[u] ^ N(v)| - 1: the
    # closed N[u] and the open N(v) differ in exactly one of the bits u, v.
    limit = d + 1
    adj = g.adj
    for u in s:
        cand = cut[u]
        for w in adj[u]:
            cand |= cut[w]
        cand >>= u + 1  # partners above u only; bit i is vertex u + 1 + i
        closed = cut[u] | (1 << u)
        v = u
        while cand:
            k = (cand & -cand).bit_length()
            v += k
            if (closed ^ cut[v]).bit_count() <= limit:
                return False
            cand >>= k
    return True


def find_diverse_subgraph(g: Graph, d: int, limit: int = SUBSET_SEARCH_LIMIT):
    """Some maximal-by-inclusion (d+1)-diverse vertex set, or None.

    Subsets are scanned by decreasing size (lexicographic within a size),
    so the first hit has no diverse superset.  Deterministic.
    """
    if g.n > limit:
        raise ValueError(f"graph too large for exhaustive search ({g.n} > {limit})")
    d = _check_level(d)
    masks = g.neighbor_masks()
    verts = range(g.n)
    for size in range(g.n, 1, -1):
        for combo in combinations(verts, size):
            if not _has_twin_pair(masks, combo, d):
                return frozenset(combo)
    return None


def _pairs_beat(diff, chosen, mask: int, best: int) -> bool:
    """True iff every pair u, v of ``chosen`` has |diff[u][v] & mask| > best."""
    for k, u in enumerate(chosen):
        row = diff[u]
        for v in chosen[k + 1 :]:
            if (row[v] & mask).bit_count() <= best:
                return False
    return True


def sd_exact(g: Graph, limit: int = SUBSET_SEARCH_LIMIT) -> int:
    """Exact symmetric difference: max over induced subgraphs of min pair sd.

    Equals the smallest d such that no (d+1)-diverse induced subgraph
    exists.  A depth-first branch-and-bound decides vertices 0..n-1 in
    order, include before exclude, and keeps ``best``, the largest min pair
    sd found so far.  With ``diff[u][v]`` = (N(u) ^ N(v)) minus u and v,
    the pair sd inside S is |diff[u][v] & S|, which only grows with S.  A
    branch holds the chosen vertices and ``avail``, the chosen plus the
    undecided ones; every set it can reach lies between the two, so it is
    dropped once some chosen pair has |diff & avail| <= best, or once
    |avail| < best + 3 (min pair sd <= |S| - 2).  Each leaf reached thus
    beats ``best`` and replaces it.  The search keeps an explicit stack,
    so a raised ``limit`` never meets the interpreter's recursion limit;
    the worst case stays exponential.
    """
    n = g.n
    if n < 2:
        raise ValueError("symmetric difference needs at least two vertices")
    if n > limit:
        raise ValueError(f"graph too large for exhaustive search ({n} > {limit})")
    masks = g.neighbor_masks()
    diff = [
        [(masks[u] ^ masks[v]) & ~((1 << u) | (1 << v)) for v in range(n)]
        for u in range(n)
    ]
    best = 0  # any 2-subset has min pair sd exactly 0
    # Each entry is a branch whose pairs are rechecked on entry, since best
    # may have risen since it was pushed: (next vertex, chosen, avail).
    stack = [(0, (), (1 << n) - 1)]
    while stack:
        i, chosen, avail = stack.pop()
        if not _pairs_beat(diff, chosen, avail, best):
            continue
        # Descend through includes; each step leaves its exclude to the stack.
        while avail.bit_count() >= best + 3:
            if i == n:  # avail == chosen, and every pair beats best
                best = min(
                    (diff[u][v] & avail).bit_count()
                    for k, u in enumerate(chosen)
                    for v in chosen[k + 1 :]
                )
                break
            stack.append((i + 1, chosen, avail & ~(1 << i)))
            # Include i if every new pair (i, u) beats best; otherwise the
            # exclude entry just pushed is the next branch popped.
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


def check_witness(g: Graph, w: SddWitness) -> bool:
    """Replay an elimination sequence and verify every step.

    Accepts iff there are exactly n-1 steps over distinct vertices, each
    step's pair is alive, and the pair's sd in the remaining induced
    subgraph is at most w.d.
    """
    n = g.n
    if n < 1 or w.d < 0:
        return False
    if len(w.steps) != n - 1:
        return False
    masks = g.neighbor_masks()
    alive = (1 << n) - 1
    for e, p in w.steps:
        if e == p or not 0 <= e < n or not 0 <= p < n:
            return False
        if not (alive >> e) & 1 or not (alive >> p) & 1:
            return False
        # sd(e, p) = |N[e] ^ N(p)| - 1 inside the alive set
        if (((masks[e] | (1 << e)) ^ masks[p]) & alive).bit_count() > w.d + 1:
            return False
        alive &= ~(1 << e)
    return True


def sdd_greedy(g: Graph, d: int):
    """Greedy witness search: repeatedly eliminate the lowest-id vertex
    that has a d-twin, taking its lowest-id d-twin as partner.

    Returns an SddWitness accepted by check_witness, or None if the greedy
    rule gets stuck.  Absence is not proof that sdd(G) > d.

    Each step reuses what the earlier steps learned (see _greedy_steps).
    Over the alive set S, sd(u, v) never rises as vertices leave S, and
    removing x lowers it by exactly 1 when x is adjacent to exactly one of
    u, v.  So a vertex found twinless earlier can only gain a twin among
    the partners some later removal split from it, and only those are
    re-tested.  Each pair is tested from its lower end only, since the
    scan has just found every lower vertex twinless.  Before any test of
    u a lower bound may declare u twinless with no popcount: with
    floor[u] the least sd in G between u and a vertex above it, e[w] the
    number of eliminated neighbours of w and emax the largest e[w], every
    alive v > u has sd(u, v) >= floor[u] - e[u] - emax.  The floors are
    cached on the graph, next to its neighbour masks, and filled lazily.

    Cost: one popcount per alive vertex above u the first time u is
    tested, and again after a neighbour of u is eliminated, since that
    lowers u's sd with almost every alive vertex; one popcount per split
    partner above u per other re-test; none for a test the bound skips;
    and per elimination one big-int OR per vertex found twinless so far
    and one bit clear, plus one count while the bound is kept, per alive
    neighbour.  A vertex whose floor is not cached yet has its row of G
    scanned at most once per call, up to its first partner within reach
    of the bound; the test of u then starts at that partner, so a row
    that stops early costs one extra popcount.
    """
    d = _check_level(d)
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    steps = _greedy_steps(g.neighbor_masks(), n, d, _floors(g))
    return None if steps is None else SddWitness(d, tuple(steps))


def _floors(g: Graph) -> list:
    """The graph's cached sd floors: entry u is the least sd in G between u
    and a vertex above it (n for the last vertex), or None until known.

    Made on first use, so graphs no greedy search reaches never hold one;
    ``add_edge`` and ``remove_edge`` drop it with the neighbour masks.
    """
    floors = g._floors
    if floors is None:
        g._floors = floors = [None] * g.n
    return floors


def sdd_greedy_escalate(g: Graph) -> SddWitness:
    """The sdd_greedy witness at the least level the greedy reaches.

    The search starts at the graph's least pair sd, a lower bound on the
    sd-degeneracy, and goes up one level at a time; greedy success is not
    known to be monotone in d (sd-degeneracy is not hereditary), so the
    levels are not bisected.  The all-pairs pass that finds the least
    pair sd stores each row's minimum as that vertex's sd floor, so every
    level reuses the same neighbour masks and floors and scans no row.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    if n == 1:
        return SddWitness(0, ())
    masks = g.neighbor_masks()
    floors = _floors(g)
    # sd(u, v) = |N[u] ^ N(v)| - 1: the closed N[u] and the open N(v)
    # differ in exactly one of the bits u, v.
    for u in range(n - 1):
        if floors[u] is None:
            closed = masks[u] | (1 << u)
            floors[u] = min((closed ^ m).bit_count() for m in masks[u + 1 :]) - 1
    floors[-1] = n  # no vertex lies above the last one
    d = min(floors)
    while True:
        steps = _greedy_steps(masks, n, d, floors)
        if steps is not None:
            return SddWitness(d, tuple(steps))
        d += 1


def _greedy_steps(masks, n: int, d: int, floors=None):
    """The steps of sdd_greedy at level d, or None if the rule gets stuck.

    The scan visits the alive vertices in id order, so when it reaches u
    every alive w < u has just been found twinless, and none is a twin of
    u: u's lowest twin is its lowest twin above u.  ``split[u]`` is the set
    of partners u must test, as a bit mask.  Every twin u can have is in
    it, so the lowest set bit above u that passes is the lowest twin.  It
    is -1, every partner, until u is first found twinless, and again once a
    neighbour of u is eliminated, which lowers u's sd with almost every
    alive vertex; then u scans the alive list above it.  Otherwise it holds
    the partners whose sd with u fell since u was found twinless, and a
    re-test walks its bits above u.  OR-ing a mask into -1 leaves -1, so
    an elimination ORs N(x) into every u in ``checked`` with no test.

    ``floors`` (see _floors) is read and filled in place; without it no
    bound is used.  Inside the alive set S, sd(u, v) is its value in G
    minus the eliminated vertices in N(u) ^ N(v) outside {u, v}.  At most
    e[u] of those are neighbours of u and at most e[v] <= emax neighbours
    of v, so sd(u, v) >= floor[u] - e[u] - emax for every alive v > u.
    When that exceeds d, u is twinless now and is marked so with no test.
    An unknown floor[u] is sought the first time the scan reaches u: u's
    row of G above u is scanned up to the first v with sd_G(u, v) <=
    d + e[u] + emax.  A row scanned to its end gives the exact floor, and
    the bound then holds; otherwise no alive partner below v can be a twin
    (sd_G(u, w) > d + e[u] + e[w] for each), so u's test starts at v, and
    the row is not scanned again in this call.  emax never falls, so once
    no floor exceeds d + emax the bound can pass for no vertex: the call
    then drops it and stops counting e.
    """
    nbr = list(masks)  # neighbourhoods cut to the alive set
    alive = list(range(n))
    alive_mask = (1 << n) - 1
    split = [-1] * n
    checked = set()  # alive vertices found twinless at least once
    limit = d + 1  # sd(u, v) = |N[u] ^ N(v)| - 1 inside the alive set
    # lo[u]: floor[u] if known; ``unknown``, above every floor, until u's
    # row is scanned; 0, which the bound never passes, once that scan
    # stops early or u is eliminated
    unknown = n + 1
    e = [0] * n  # eliminated neighbours of each alive vertex
    emax = 0
    reach = d  # d + emax: the bound passes for u when lo[u] - e[u] > reach
    if floors is None:
        bounded = False
    else:
        lo = [unknown if f is None else f for f in floors]
        lo[-1] = 0  # the last vertex has no partner above it to test
        top = max(lo)  # no lo[u] rises, so none exceeds top
        bounded = top > reach
    steps = []
    while len(alive) > 1:
        pick = None
        for i, u in enumerate(alive):
            todo = split[u]
            if todo == 0:
                continue
            if bounded and lo[u] - e[u] > reach:
                if lo[u] == unknown:  # scan u's row of G, once per call
                    lo[u] = 0
                    closed = masks[u] | (1 << u)
                    cap = reach + e[u] + 1  # sd_G(u, v) <= d + e[u] + emax
                    best = n + 1
                    for v in range(u + 1, n):
                        c = (closed ^ masks[v]).bit_count()
                        if c < best:
                            if c <= cap:
                                # u's test starts at v: move i to just
                                # before the first alive vertex >= v
                                if i + 1 < len(alive) and alive[i + 1] < v:
                                    i = bisect_left(alive, v, i + 1) - 1
                                break
                            best = c
                    else:  # the exact floor, which passes the bound
                        floors[u] = lo[u] = best - 1
                if lo[u]:  # 0 only if the scan stopped at a partner in reach
                    split[u] = 0
                    checked.add(u)
                    continue
            closed = nbr[u] | (1 << u)
            if todo == -1:
                for v in alive[i + 1 :]:
                    if (closed ^ nbr[v]).bit_count() <= limit:
                        pick = (u, v)
                        break
            else:
                todo &= alive_mask & -(2 << u)  # alive partners above u
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
        rest = near & alive_mask
        if bounded:  # the same walk, also counting e
            lo[x] = 0
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                nbr[u] ^= bit
                split[u] = -1
                c = e[u] = e[u] + 1
                if c > emax:
                    emax = c
                rest ^= low
            if emax + d > reach:
                reach = emax + d
                # lo[u] - e[u] <= lo[u] and reach never falls, so once no
                # lo[u] exceeds reach the bound is dropped for this call
                if top <= reach:
                    top = max(lo)
                    bounded = top > reach
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            nbr[u] ^= bit
            split[u] = -1
            rest ^= low
        for u in checked:
            split[u] |= near
    return steps


def _witness_search(masks, n: int, d: int):
    """Depth-first search for an elimination order at level d.

    Branches on the eliminated vertex in increasing id order (the first
    descent is exactly the greedy rule) and memoizes dead states, so
    instances that admit a witness are found quickly while refutations
    degrade to the full reachable state space.
    """
    if d == 0:
        # Twin elimination is confluent: a graph reduces to one vertex by
        # removing 0-twins iff every maximal removal sequence does (this is
        # the cograph case), so a single greedy pass decides d = 0.
        return _greedy_steps(masks, n, 0)
    failed = set()
    steps = []
    limit = d + 1  # sd(u, v) = |N[u] ^ N(v)| - 1 inside the live set

    def go(mask: int) -> bool:
        if mask & (mask - 1) == 0:
            return True
        if mask in failed:
            return False
        live = [u for u in range(n) if (mask >> u) & 1]
        for u in live:
            partner = None
            closed = masks[u] | (1 << u)
            for v in live:
                if v != u and ((closed ^ masks[v]) & mask).bit_count() <= limit:
                    partner = v
                    break
            if partner is None:
                continue
            steps.append((u, partner))
            if go(mask & ~(1 << u)):
                return True
            steps.pop()
        failed.add(mask)
        return False

    return steps if go((1 << n) - 1) else None


def sdd_exact(g: Graph, limit: int = SDD_SEARCH_LIMIT) -> tuple[int, SddWitness]:
    """Exact sd-degeneracy with a witness, by binary search on d.

    Each level is decided by reachability over remaining-vertex-set states
    (see _witness_search).  The default limit keeps refutations desk-scale;
    raise it only for instances known to carry an easy witness.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    if n > limit:
        raise ValueError(f"graph too large for exhaustive search ({n} > {limit})")
    if n == 1:
        return 0, SddWitness(0, ())
    masks = g.neighbor_masks()
    hi = n - 2  # every pair is an (n-2)-twin, so level n-2 always succeeds
    best_steps = _witness_search(masks, n, hi)
    assert best_steps is not None
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        got = _witness_search(masks, n, mid)
        if got is not None:
            hi = mid
            best_steps = got
        else:
            lo = mid + 1
    return hi, SddWitness(hi, tuple(best_steps))


def embed_sdd1(g: Graph) -> tuple[Graph, SddWitness, tuple[int, ...]]:
    """Embed g into a graph of sd-degeneracy at most 1.

    Between consecutive vertices v_i, v_{i+1} (input id order) a chain of
    interpolator vertices morphs the neighborhood of v_i into that of
    v_{i+1}: first the private neighbors of v_i are dropped one by one,
    then those of v_{i+1} added one by one.  Interpolators attach only to
    original vertices that survive past v_i, and never to each other, so
    consecutive vertices of the elimination order are 1-twins when their
    turn comes.

    Output vertices are numbered in elimination order.  Returns the host
    graph, a d=1 witness eliminating 0, 1, 2, ..., and the injection
    mapping each original vertex to its host id.  The host has fewer than
    n**2 vertices for n >= 2.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    seq: list[tuple[str, object]] = []
    for i in range(n - 1):
        seq.append(("orig", i))
        future = set(range(i + 1, n))
        base = g.adj[i] & future
        target = g.adj[i + 1] & future
        drops = sorted((base - {i + 1}) - target)
        adds = sorted(target - base)
        hops = len(drops) + len(adds)
        if hops >= 2:
            cur = set(base)
            for k in range(hops - 1):
                if k < len(drops):
                    cur.remove(drops[k])
                else:
                    cur.add(adds[k - len(drops)])
                seq.append(("interp", frozenset(cur)))
    seq.append(("orig", n - 1))

    total = len(seq)
    inj = [-1] * n
    for pos, (kind, payload) in enumerate(seq):
        if kind == "orig":
            inj[payload] = pos
    edges = [(inj[u], inj[v]) for u, v in g.edges()]
    for pos, (kind, payload) in enumerate(seq):
        if kind == "interp":
            edges.extend((pos, inj[w]) for w in payload)
    host = Graph(total, edges)
    if n >= 2:
        assert total < n * n
    witness = SddWitness(1, tuple((k, k + 1) for k in range(total - 1)))
    return host, witness, tuple(inj)


def save_witness(w: SddWitness) -> str:
    """Serialize as the `w sdd` text format."""
    lines = [f"w sdd {w.d} {len(w.steps)}"]
    lines.extend(f"x {e} {p}" for e, p in w.steps)
    return "\n".join(lines) + "\n"


def load_witness(text: str) -> SddWitness:
    d = None
    declared = None
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "w":
            if d is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "sdd":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                d, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
        elif parts[0] == "x":
            if d is None:
                raise ValueError(f"line {lineno}: step before header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed step {line!r}")
            try:
                steps.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed step {line!r}") from None
        else:
            raise ValueError(f"line {lineno}: unknown record {line!r}")
    if d is None:
        raise ValueError("missing `w sdd` header")
    if declared != len(steps):
        raise ValueError(f"header declares {declared} steps, found {len(steps)}")
    return SddWitness(d, tuple(steps))
