"""Label-size benchmark: instance families and the rows of ``sdlabel bench``.

Each row builds one graph with a verified witness, runs the pipeline the
paper describes (signed tree model, clean, shallowise, encode) and reports
the label size against the paper's ``sqrt((d+1)n)·log2(n)^3`` bound.
"""

from __future__ import annotations

import math

from . import balance, graph, labeling, model, twins

BENCH_HEADER = "family,n,d,seed,model_width,balanced_width,max_label_bits,bound_bits,ratio"


def padded_embed(n: int, seed: int) -> tuple[graph.Graph, twins.SddWitness]:
    """``embed_sdd1`` of G(k, 1/2) padded with isolated vertices to exactly
    n vertices, with a d = 1 witness.

    k starts at isqrt(n) + 2 and drops until the host fits in n vertices.
    The host's own witness runs first; then its survivor and the padding
    are all isolated, and each is eliminated against the next.
    """
    if n < 1:
        raise ValueError(f"padded embed needs n >= 1, got {n}")
    k = math.isqrt(n) + 2
    while True:
        host, w, _ = twins.embed_sdd1(graph.gen_gnp(k, 0.5, seed))
        if host.n <= n:
            break
        k -= 1
    chain = range(host.n - 1, n)  # the host's survivor, then the padding
    steps = w.steps + tuple(zip(chain, chain[1:]))
    return graph.Graph(n, host.edges()), twins.SddWitness(1, steps)


def bench_instance(family: str, n: int, d: int, seed: int):
    """One benchmark instance: a graph with a verified witness.

    Families: ``embed`` ignores d and returns ``padded_embed(n, seed)``;
    ``rook`` needs square n; ``gnp`` reads d as a target mean degree;
    ``shift`` reads n as the shift parameter, so it has n(n-1)/2 vertices.
    Every family but ``embed`` takes its witness from
    ``twins.sdd_greedy_escalate``, so the witness level can differ from d.
    """
    if n < 2:
        raise ValueError(f"bench needs n >= 2, got {n}")
    if family == "embed":
        g, w = padded_embed(n, seed)
    else:
        if family == "rook":
            a = math.isqrt(n)
            if a * a != n:
                raise ValueError("rook family needs a square n")
            g = graph.gen_rook(a, a)
        elif family == "gnp":
            g = graph.gen_gnp(n, min(1.0, d / max(1, n - 1)), seed)
        elif family == "shift":
            if n < 3:
                raise ValueError(f"shift family needs n >= 3, got {n}")
            g = graph.gen_shift(n)
        else:
            raise ValueError(f"unknown family {family!r}")
        w = twins.sdd_greedy_escalate(g)
    if not twins.check_witness(g, w):
        raise AssertionError("bench witness failed verification")
    return g, w


def bench_row(family: str, n: int, d: int, seed: int) -> str:
    """The CSV line for one (family, n, d, seed) row.

    The ``d`` column is the level of the witness used, not the row's d.
    """
    g, w = bench_instance(family, n, d, seed)
    m = model.make_clean(model.stm_from_witness(g, w))
    b = model.make_clean(balance.shallowise(m, w.d + 1))
    st = labeling.label_stats(labeling.encode(b))
    ratio = st.max_bits / (math.sqrt((w.d + 1) * g.n) * math.log2(g.n) ** 3)
    return (
        f"{family},{g.n},{w.d},{seed},{model.width(m)},{model.width(b)},"
        f"{st.max_bits},{st.bound_bits},{ratio:.6f}"
    )


def bench_rows(rows) -> list[str]:
    """The CSV lines, header first, for (family, n, d, seed) rows."""
    return [BENCH_HEADER] + [bench_row(*row) for row in rows]
