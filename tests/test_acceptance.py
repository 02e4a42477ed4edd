"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from sdlabel import (
    Graph,
    check_witness,
    degeneracy,
    embed_sdd1,
    gen_gnp,
    gen_rook,
    gen_shift,
    is_diverse,
    sd_exact,
    sdd_exact,
)
from sdlabel.balance import complete_tree, interval_cover, shallowise, width_bound
from sdlabel.bench import bench_rows
from sdlabel.hardness import (
    CnfFormula,
    build_sd_reduction,
    build_sdd_reduction,
    extract_assignment,
    sat_oracle,
    sd_witness_from_assignment,
    sdd_witness_from_assignment,
    unsat_clauses,
    validate_sd_reduction,
)
from sdlabel.labeling import decode_matrix, label_graph, label_stats, layout_bound
from sdlabel.model import make_clean, realize, stm_from_witness, validate, width

from test_balance import min_cover_oracle
from test_graph import splitmix64


def report(k, ok, detail=""):
    print(f"ACCEPTANCE {k:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {k} failed: {detail}"


class _Rng:
    """Deterministic helper stream on top of splitmix64."""

    def __init__(self, seed):
        self.state = seed

    def next(self):
        self.state, z = splitmix64(self.state)
        return z

    def below(self, n):
        return self.next() % n

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def test_01_rook_symmetric_difference():
    t0 = time.monotonic()
    results = {}
    for a, b in [(3, 3), (3, 4), (3, 5), (4, 4)]:
        start = time.monotonic()
        got = sd_exact(gen_rook(a, b))
        took = time.monotonic() - start
        results[(a, b)] = (got, took)
        assert took < 60, f"rook({a},{b}) took {took:.1f}s"
    ok = all(got == 2 * (min(a, b) - 1) for (a, b), (got, _) in results.items())
    report(1, ok, f"{ {k: v[0] for k, v in results.items()} } in {time.monotonic()-t0:.1f}s")


def test_02_definitional_inequalities():
    violations = 0
    for seed in range(500):
        n = 4 + seed % 7
        p = 0.15 + 0.1 * (seed % 8)
        g = gen_gnp(n, p, seed)
        d, _ = sdd_exact(g)
        sd = sd_exact(g)
        if not (d <= sd <= 2 * degeneracy(g).d):
            violations += 1
    report(2, violations == 0, f"500 graphs, {violations} violations")


def test_03_embedding_into_sdd_one():
    violations = 0
    for seed in range(100):
        n = 2 + seed % 7
        g = gen_gnp(n, 0.2 + 0.1 * (seed % 7), seed)
        host, w, inj = embed_sdd1(g)
        ok = host.n < n * n
        ok = ok and check_witness(host, w)
        ok = ok and all(
            host.has_edge(inj[u], inj[v]) == g.has_edge(u, v)
            for u, v in combinations(range(n), 2)
        )
        d, _ = sdd_exact(host, limit=64)
        ok = ok and d <= 1
        if not ok:
            violations += 1
    report(3, violations == 0, f"100 graphs, {violations} violations")


def test_04_witness_models(corpus):
    violations = []
    for name, g, w in corpus:
        m = stm_from_witness(g, w)
        if realize(m) != g or width(m) > w.d + 1:
            violations.append(name)
    report(
        4,
        not violations and len(corpus) >= 200,
        f"{len(corpus)} instances, violations: {violations[:5]}",
    )


def test_05_shallowisation(corpus):
    violations = []
    for name, g, w in corpus:
        n = g.n
        d_sparse = w.d + 1
        m = stm_from_witness(g, w)
        b = shallowise(m, d_sparse)
        ok, _ = validate(b)
        log = 0.0 if n == 1 else math.log2(n)
        depth_want = 1 if n == 1 else math.ceil(log) + 1
        ok = ok and max(b.depth) + 1 == depth_want
        ok = ok and realize(b) == g
        ok = ok and len(b.green | b.blue) <= (2 * n - 1) * d_sparse * (2 * log) ** 2
        if not ok:
            violations.append(name)
    report(5, not violations, f"{len(corpus)} instances, violations: {violations[:5]}")


def test_06_end_to_end_labeling(corpus):
    violations = []
    for name, g, w in corpus:
        labels = label_graph(g, w)
        if decode_matrix(labels) != g:
            violations.append(name)
            continue
        st = label_stats(labels)
        if st.max_bits > st.bound_bits:
            violations.append(name)
    # scaling table: fixed-degeneracy family, exact sizes 32..256
    rows = bench_rows([("embed", n, 1, 3) for n in (32, 64, 128, 256)])
    print()
    for line in rows:
        print("   ", line)
    ratios = [float(line.split(",")[-1]) for line in rows[1:]]
    scaling_ok = ratios[2] <= 1.1 * ratios[1] and ratios[3] <= 1.1 * ratios[2]
    report(
        6,
        not violations and scaling_ok,
        f"{len(corpus)} exact reconstructions, ratios {['%.3f' % r for r in ratios]}",
    )


def test_07_interval_covers():
    bad = 0
    for n in range(1, 33):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                c = interval_cover(n, i, j)
                best, count = min_cover_oracle(n, i, j)
                if len(c) != best or count != 1:
                    bad += 1
    # 2 log2 n bound for every interval up to n = 1024, via the identity
    # cover_size[i, j] = sum over nodes of (+1 for a contained leaf, -1 for
    # a contained internal node); each node adds a constant on the
    # rectangle i <= lo(x), j >= hi(x), so a 2-D difference array gives
    # every cover size at once
    worst = {}
    for n in range(2, 1025):
        t = complete_tree(n)
        diff = np.zeros((n + 2, n + 2), dtype=np.int32)
        for node in range(t.n_nodes):
            lo, hi = t.node_intervals()[node]
            wgt = 1 if t.children[node] is None else -1
            diff[1, hi] += wgt
            diff[lo + 1, hi] -= wgt
            diff[1, n + 1] -= wgt
            diff[lo + 1, n + 1] += wgt
        sizes = diff.cumsum(axis=0).cumsum(axis=1)[1 : n + 1, 1 : n + 1]
        ii, jj = np.indices(sizes.shape)
        valid = ii <= jj
        mx = int(sizes[valid].max())
        worst[n] = mx
        if mx > 2 * math.log2(n):
            bad += 1
        if n <= 32:
            # cross-check the difference-array identity against real covers
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    if sizes[i - 1, j - 1] != len(interval_cover(n, i, j)):
                        bad += 1
    report(7, bad == 0, f"worst cover size at n=1024: {worst[1024]}")


def _gen_sd_formula(rng):
    """Random satisfiable bounded-occurrence instance: 3..8 clauses of size
    2 or 3, every variable in 1..3 clauses."""
    while True:
        m = 3 + rng.below(6)
        budget = {}
        clauses = []
        next_var = 1
        ok = True
        for _ in range(m):
            size = 2 + rng.below(2)
            avail = [v for v, left in budget.items() if left > 0]
            clause = []
            for _ in range(size):
                pool = [v for v in avail if v not in clause]
                if pool and rng.below(3):
                    v = pool[rng.below(len(pool))]
                else:
                    v = next_var
                    next_var += 1
                    budget[v] = 3
                    avail.append(v)
                budget[v] -= 1
                clause.append(v)
            clauses.append(tuple(v if rng.below(2) else -v for v in clause))
        phi = CnfFormula(next_var - 1, clauses)
        if phi.num_vars < 2 or phi.num_vars > 20:
            continue
        if any(not 1 <= phi.occurrences(v) <= 3 for v in range(1, phi.num_vars + 1)):
            continue
        a = sat_oracle(phi)
        if a is not None:
            return phi, a


def test_08_sd_reduction():
    d = 8
    rng = _Rng(2024)
    violations = []
    slow = []
    for k in range(20):
        t0 = time.monotonic()
        phi, assignment = _gen_sd_formula(rng)
        r = build_sd_reduction(phi, d)
        ok, issues = validate_sd_reduction(r, d)
        ds = sd_witness_from_assignment(r, phi, assignment)
        ok = ok and is_diverse(r.graph, ds.vertices, d)
        # mutation: force the first clause unsatisfied and keep by the
        # same one-literal-per-variable rule; the check must flip
        mutated = list(assignment)
        for lit in phi.clauses[0]:
            mutated[abs(lit) - 1] = lit < 0
        assert unsat_clauses(phi, mutated)
        drop = {
            (r.meta["lit_neg"][i] if mutated[i - 1] else r.meta["lit_pos"][i])
            for i in range(1, phi.num_vars + 1)
        }
        ok = ok and not is_diverse(r.graph, frozenset(range(r.graph.n)) - drop, d)
        took = time.monotonic() - t0
        if took >= 10:
            slow.append((k, round(took, 1)))
        if not ok:
            violations.append(k)
    report(
        8,
        not violations and not slow,
        f"20 instances, violations: {violations}, over-time: {slow}",
    )


def _gen_sdd_formula(rng):
    """Random instance where every clause has 3 distinct variables and
    every variable occurs in 2 or 3 clauses, admitting an assignment with
    at most one unsatisfied clause."""
    while True:
        nv = 3 + rng.below(5)
        slots = []
        for v in range(1, nv + 1):
            slots.extend([v] * (2 + rng.below(2)))
        while len(slots) % 3:
            slots.append(1 + rng.below(nv))
        counts = {v: slots.count(v) for v in set(slots)}
        if any(c not in (2, 3) for c in counts.values()):
            continue
        rng.shuffle(slots)
        clauses = [slots[i : i + 3] for i in range(0, len(slots), 3)]
        if any(len(set(c)) != 3 for c in clauses):
            continue
        phi = CnfFormula(
            nv,
            [tuple(v if rng.below(2) else -v for v in c) for c in clauses],
        )
        a = sat_oracle(phi, allow_one_unsat=True)
        if a is not None:
            return phi, a


def test_09_sdd_reduction_round_trip():
    rng = _Rng(777)
    violations = []
    for k in range(20):
        phi, assignment = _gen_sdd_formula(rng)
        r = build_sdd_reduction(phi)
        w = sdd_witness_from_assignment(r, phi, assignment)
        ok = w.d == 1 and check_witness(r.graph, w)
        got, unsat = extract_assignment(r, w)
        ok = ok and unsat <= 1 and unsat == len(unsat_clauses(phi, got))
        if not ok:
            violations.append(k)
    report(9, not violations, f"20 instances, violations: {violations}")


def test_10_shift_graphs():
    values = {n: sd_exact(gen_shift(n)) for n in (4, 5, 6)}
    sizes = {n: gen_shift(n).n for n in (4, 5, 6)}
    assert sizes == {4: 6, 5: 10, 6: 15}
    report(10, all(v <= 2 for v in values.values()), f"sd values: {values}")
