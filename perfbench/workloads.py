"""The four benchmark workloads.

Each workload builds its inputs from the run's seed in ``setup`` and then
serves ops in a closed loop: ``prepare(i)`` picks op i's input (untimed),
``run(lib, x)`` is the timed op, ``check(raw, x, out)`` returns the
problems found in its output (untimed).  ``lib`` holds the six library
modules, traced or not; ``raw`` always holds the untraced ones, so checks
never show up in the trace.

Op mixes are fixed blocks shuffled by the seed, not independent draws, so
each input class keeps its exact share of the ops and the p50 and p90
latencies fall inside one class instead of on the edge between two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Sizes for the committed benchmark and for the self-test's smoke runs.
FULL = {
    "label-sparse": {"n": 512, "pool": 160, "fixed": 32, "decode_samples": 32, "verify": 1},
    "witness-dense": {"n": 120, "pool": 120, "fixed": 60, "decode_samples": 32, "verify": 9},
    "decode-query": {"n": 512, "rook": 16},
    "oracle-reduce": {"cycles": 60, "fixed": 24, "gnp_n": 14},
}
SMOKE = {
    "label-sparse": {"n": 40, "pool": 4, "fixed": 2, "decode_samples": 8, "verify": 1},
    "witness-dense": {"n": 24, "pool": 6, "fixed": 3, "decode_samples": 8, "verify": 1},
    "decode-query": {"n": 40, "rook": 4},
    "oracle-reduce": {"cycles": 2, "fixed": 1, "gnp_n": 8},
}

WITNESS_DENSE_P = (0.04, 0.08, 0.12)
SD_REDUCTION_D = 8
# sd-reduction formulas: 3-4 clauses and 3-5 variables, which gives
# 605-995 vertices; the variable count cycles so sizes keep fixed shares.
SD_FORMULA_VARS = (3, 4, 5)
SDD_FORMULA_VARS = (3, 4, 5, 6, 7)
GNP_P = (0.2, 0.3, 0.4, 0.5)
# One oracle-reduce cycle.  The sd-reduction kind is a fifth of the ops,
# so p90 is the median sd-reduction op and p50 sits among the gnp ops.
ORACLE_CYCLE = ("sdd", "gnp", "sdd", "gnp", "sd")


@dataclass
class Labelled:
    """One run of the label pipeline: input, witness, models and labels."""

    graph: object
    witness: object
    model: object  # clean witness model
    balanced: object  # clean balanced model
    labels: dict


def label_stages(lib, g, w) -> Labelled:
    """The stages of ``label_graph``, each as its own public call."""
    m = lib.model.make_clean(lib.model.stm_from_witness(g, w))
    b = lib.model.make_clean(lib.balance.shallowise(m, w.d + 1))
    return Labelled(g, w, m, b, lib.labeling.encode(b))


def preamble(label) -> tuple[int, int, int]:
    """(n, id_bits, W) from a label's 48-bit public preamble."""
    word = int.from_bytes(label.data[:6], "big")
    return word >> 32, (word >> 16) & 0xFFFF, word & 0xFFFF


def check_labelled(raw, rec: Labelled, rng: random.Random, samples: int) -> list[str]:
    """realize(balanced) == g, sampled decodes agree, labels within layout_bound."""
    problems = []
    g, b, labels = rec.graph, rec.balanced, rec.labels
    if raw.model.realize(b) != g:
        problems.append("realize(balanced) differs from the input graph")
    if sorted(labels) != list(range(g.n)):
        problems.append("labels do not cover the vertices")
        return problems
    for _ in range(samples if g.n >= 2 else 0):
        u, v = rng.sample(range(g.n), 2)
        if raw.labeling.decode(labels[u], labels[v]) != g.has_edge(u, v):
            problems.append(f"decode({u}, {v}) disagrees with the graph")
    leaf_of = b.vertex_leaf()
    for v, lab in labels.items():
        n, id_bits, width = preamble(lab)
        h = len(b.root_path(leaf_of[v]))
        if lab.nbits > raw.labeling.layout_bound(n, id_bits, width, h):
            problems.append(f"label of {v} exceeds layout_bound")
    return problems


def padded_embed(lib, n: int, seed: int):
    """``embed_sdd1`` of G(k, 1/2) padded with isolated vertices to exactly
    n vertices, with a d = 1 witness (the ``sdlabel bench`` embed family)."""
    k = math.isqrt(n) + 2
    while True:
        host, w, _ = lib.twins.embed_sdd1(lib.graph.gen_gnp(k, 0.5, seed))
        if host.n <= n:
            break
        k -= 1
    g = lib.graph.Graph(n, host.edges())
    chain = range(host.n - 1, n)  # the host's survivor, then the padding
    steps = w.steps + tuple(zip(chain, chain[1:]))
    return g, lib.twins.SddWitness(1, steps)


def escalate(lib, g, counters: dict):
    """Witness search of ``sdlabel bench``: start at the least pair sd,
    then raise d until ``sdd_greedy`` does not get stuck."""
    d = min(lib.twins.sd_pair(g, u, v) for u in range(g.n) for v in range(u + 1, g.n))
    while True:
        counters["greedy_attempts"] += 1
        w = lib.twins.sdd_greedy(g, d)
        if w is not None:
            return w
        counters["greedy_stuck"] += 1
        d += 1


def block_schedule(rng: random.Random, values, blocks: int) -> list:
    """``blocks`` copies of ``values``, each block shuffled by ``rng``."""
    out = []
    for _ in range(blocks):
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out


class Workload:
    """Shared state: sizes, seed, counters and the fixed instance set."""

    name = ""

    def __init__(self, size: dict):
        self.size = size

    def setup(self, lib, seed: int) -> None:
        self.seed = seed
        self.counters = {"greedy_attempts": 0, "greedy_stuck": 0}
        self.records: list[Labelled] = []

    def check_rng(self, i: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + i)

    def keep(self, x, out) -> None:
        """Offer an op's output for the fixed instance set."""

    def verify_set(self) -> list[Labelled]:
        """Label sets that the verify pass rebuilds with decode_matrix."""
        return self.records

    def verify_ready(self) -> bool:
        return True

    def input_graphs(self, raw) -> list[tuple[object, int]]:
        """(graph, d) pairs whose properties describe the workload's input."""
        return [(r.graph, r.witness.d) for r in self.records]

    def reduction_vertices(self, input_graphs) -> int:
        """Vertices of the SAT-reduction graphs in the fixed set."""
        return 0


class PipelineWorkload(Workload):
    """Ops run the label pipeline on a pool of graphs; the first ``fixed``
    pool entries are the fixed instance set."""

    def prepare(self, i: int):
        return i % len(self.pool), self.pool[i % len(self.pool)]

    def keep(self, x, out) -> None:
        idx = x[0]
        if idx == len(self.records) and idx < self.size["fixed"]:
            self.records.append(out)

    def verify_set(self) -> list[Labelled]:
        return self.records[: self.size["verify"]]

    def verify_ready(self) -> bool:
        return len(self.records) >= self.size["verify"]


class LabelSparse(PipelineWorkload):
    name = "label-sparse"

    def setup(self, lib, seed: int) -> None:
        super().setup(lib, seed)
        rng = random.Random(seed)
        n = self.size["n"]
        self.pool = [padded_embed(lib, n, rng.getrandbits(63)) for _ in range(self.size["pool"])]

    def run(self, lib, x) -> Labelled:
        g, w = x[1]
        return label_stages(lib, g, w)

    def check(self, raw, x, out: Labelled) -> list[str]:
        return check_labelled(raw, out, self.check_rng(x[0]), self.size["decode_samples"])


class WitnessDense(PipelineWorkload):
    name = "witness-dense"

    def setup(self, lib, seed: int) -> None:
        super().setup(lib, seed)
        rng = random.Random(seed)
        n = self.size["n"]
        ps = block_schedule(rng, WITNESS_DENSE_P, self.size["pool"] // len(WITNESS_DENSE_P))
        self.pool = [lib.graph.gen_gnp(n, p, rng.getrandbits(63)) for p in ps]

    def run(self, lib, x) -> Labelled:
        g = x[1]
        return label_stages(lib, g, escalate(lib, g, self.counters))

    def check(self, raw, x, out: Labelled) -> list[str]:
        problems = []
        if not raw.twins.check_witness(out.graph, out.witness):
            problems.append("check_witness rejects the greedy witness")
        rng = self.check_rng(x[0])
        return problems + check_labelled(raw, out, rng, self.size["decode_samples"])


class DecodeQuery(Workload):
    name = "decode-query"
    # Two embed decodes for each rook decode: p50 lands among the embed
    # pairs and p90 among the rook pairs.
    SCHEDULE = (0, 0, 1)

    def setup(self, lib, seed: int) -> None:
        super().setup(lib, seed)
        rng = random.Random(seed)
        g, w = padded_embed(lib, self.size["n"], rng.getrandbits(63))
        a = self.size["rook"]
        rook = lib.graph.gen_rook(a, a)
        self.records = [
            label_stages(lib, g, w),
            label_stages(lib, rook, escalate(lib, rook, self.counters)),
        ]
        self.pairs = random.Random(seed ^ 0x5EED)

    def prepare(self, i: int):
        rec = self.records[self.SCHEDULE[i % len(self.SCHEDULE)]]
        u, v = self.pairs.sample(range(rec.graph.n), 2)
        return rec, u, v

    def run(self, lib, x) -> bool:
        rec, u, v = x
        return lib.labeling.decode(rec.labels[u], rec.labels[v])

    def check(self, raw, x, out: bool) -> list[str]:
        rec, u, v = x
        if out != rec.graph.has_edge(u, v):
            return [f"decode({u}, {v}) = {out} disagrees with the graph"]
        return []


@dataclass
class SdCase:
    phi: object
    assignment: list
    mutated: list  # the assignment with the first clause forced false


class OracleReduce(Workload):
    name = "oracle-reduce"

    def setup(self, lib, seed: int) -> None:
        super().setup(lib, seed)
        rng = random.Random(seed)
        cycles = self.size["cycles"]
        sd_vars = iter(block_schedule(rng, SD_FORMULA_VARS, -(-cycles // len(SD_FORMULA_VARS))))
        gnp_p = iter(block_schedule(rng, GNP_P, -(-cycles * 2 // len(GNP_P))))
        sdd_vars = iter(block_schedule(rng, SDD_FORMULA_VARS, -(-cycles * 2 // len(SDD_FORMULA_VARS))))
        self.pool = []
        for _ in range(cycles):
            for kind in ORACLE_CYCLE:
                if kind == "sd":
                    self.pool.append(("sd", self._sd_case(lib, rng, next(sd_vars))))
                elif kind == "sdd":
                    self.pool.append(("sdd", _sdd_formula(lib, rng, next(sdd_vars))))
                else:
                    g = lib.graph.gen_gnp(self.size["gnp_n"], next(gnp_p), rng.getrandbits(63))
                    self.pool.append(("gnp", g))
        # Label the first sdd-reduction graphs with their d = 1 witnesses, so
        # that label size and verify_s are defined here too.
        sdd_cases = [c for kind, c in self.pool if kind == "sdd"][: self.size["fixed"]]
        for phi, a in sdd_cases:
            r = lib.hardness.build_sdd_reduction(phi)
            w = lib.hardness.sdd_witness_from_assignment(r, phi, a)
            self.records.append(label_stages(lib, r.graph, w))

    def _sd_case(self, lib, rng: random.Random, num_vars: int) -> SdCase:
        while True:
            phi = _sd_formula(lib, rng)
            if phi.num_vars != num_vars:
                continue
            a = lib.hardness.sat_oracle(phi)
            if a is None:
                continue
            # As in the acceptance suite: force the first clause false and
            # keep one literal per variable by the same rule; the kept set
            # then must not be diverse.
            mutated = list(a)
            for lit in phi.clauses[0]:
                mutated[abs(lit) - 1] = lit < 0
            return SdCase(phi, a, mutated)

    def prepare(self, i: int):
        return self.pool[i % len(self.pool)]

    def run(self, lib, x):
        kind, case = x
        if kind == "sd":
            phi, d = case.phi, SD_REDUCTION_D
            r = lib.hardness.build_sd_reduction(phi, d)
            valid, _ = lib.hardness.validate_sd_reduction(r, d)
            kept = lib.hardness.sd_witness_from_assignment(r, phi, case.assignment)
            diverse = lib.twins.is_diverse(r.graph, kept.vertices, d)
            meta = r.meta
            drop = {
                meta["lit_neg"][v] if case.mutated[v - 1] else meta["lit_pos"][v]
                for v in range(1, phi.num_vars + 1)
            }
            broken = lib.twins.is_diverse(r.graph, frozenset(range(r.graph.n)) - drop, d)
            return valid, diverse, broken
        if kind == "sdd":
            phi, a = case
            r = lib.hardness.build_sdd_reduction(phi)
            w = lib.hardness.sdd_witness_from_assignment(r, phi, a)
            got, unsat = lib.hardness.extract_assignment(r, w)
            return r, w, got, unsat
        g = case
        sdd, _ = lib.twins.sdd_exact(g)
        return sdd, lib.twins.sd_exact(g), lib.graph.degeneracy(g).d

    def check(self, raw, x, out) -> list[str]:
        kind, case = x
        if kind == "sd":
            valid, diverse, broken = out
            problems = []
            if not raw.hardness.unsat_clauses(case.phi, case.mutated):
                problems.append("mutated assignment satisfies every clause")
            if (valid, diverse, broken) != (True, True, False):
                problems.append(f"sd verdicts {(valid, diverse, broken)}, want (True, True, False)")
            return problems
        if kind == "sdd":
            phi, _ = case
            r, w, got, unsat = out
            if w.d != 1 or not raw.twins.check_witness(r.graph, w):
                return ["sdd witness is not a valid d = 1 elimination"]
            if unsat > 1 or unsat != len(raw.hardness.unsat_clauses(phi, got)):
                return [f"extracted assignment leaves {unsat} clauses unsatisfied"]
            return []
        sdd, sd, dg = out
        if not sdd <= sd <= 2 * dg:
            return [f"sdd {sdd} <= sd {sd} <= 2*degeneracy {2 * dg} fails"]
        return []

    def input_graphs(self, raw) -> list[tuple[object, int]]:
        """The sd-reduction graphs of the fixed set, at the d of is_diverse."""
        cases = [c for kind, c in self.pool if kind == "sd"][: self.size["fixed"]]
        return [
            (raw.hardness.build_sd_reduction(c.phi, SD_REDUCTION_D).graph, SD_REDUCTION_D)
            for c in cases
        ]

    def reduction_vertices(self, input_graphs) -> int:
        return sum(g.n for g, _ in input_graphs) + sum(r.graph.n for r in self.records)


def _sd_formula(lib, rng: random.Random):
    """Bounded-occurrence formula with 3-4 clauses of size 2-3, every
    variable in 1-3 clauses (the acceptance suite's generator)."""
    while True:
        budget: dict[int, int] = {}
        clauses = []
        next_var = 1
        for _ in range(3 + rng.randrange(2)):
            avail = [v for v, left in budget.items() if left > 0]
            clause: list[int] = []
            for _ in range(2 + rng.randrange(2)):
                pool = [v for v in avail if v not in clause]
                if pool and rng.randrange(3):
                    v = pool[rng.randrange(len(pool))]
                else:
                    v = next_var
                    next_var += 1
                    budget[v] = 3
                    avail.append(v)
                budget[v] -= 1
                clause.append(v)
            clauses.append(tuple(v if rng.randrange(2) else -v for v in clause))
        phi = lib.hardness.CnfFormula(next_var - 1, clauses)
        if phi.num_vars >= 2 and all(
            1 <= phi.occurrences(v) <= 3 for v in range(1, phi.num_vars + 1)
        ):
            return phi


def _sdd_formula(lib, rng: random.Random, nv: int):
    """Formula with 3-literal clauses over nv variables, each in 2-3
    clauses, plus an assignment leaving at most one clause unsatisfied."""
    while True:
        slots = []
        for v in range(1, nv + 1):
            slots.extend([v] * (2 + rng.randrange(2)))
        while len(slots) % 3:
            slots.append(1 + rng.randrange(nv))
        if any(slots.count(v) not in (2, 3) for v in set(slots)):
            continue
        rng.shuffle(slots)
        clauses = [slots[i : i + 3] for i in range(0, len(slots), 3)]
        if any(len(set(c)) != 3 for c in clauses):
            continue
        phi = lib.hardness.CnfFormula(
            nv, [tuple(v if rng.randrange(2) else -v for v in c) for c in clauses]
        )
        a = lib.hardness.sat_oracle(phi, allow_one_unsat=True)
        if a is not None:
            return phi, a


WORKLOADS = {w.name: w for w in (LabelSparse, WitnessDense, DecodeQuery, OracleReduce)}
