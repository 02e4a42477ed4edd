"""Command-line front-end.

One verb per pipeline stage; all file formats are the text formats of the
owning modules.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import balance, graph, hardness, labeling, model, twins
from .bench import BENCH_HEADER, bench_row


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_witness_for(g: graph.Graph, path: str) -> twins.SddWitness:
    w = twins.load_witness(_read(path))
    if not twins.check_witness(g, w):
        raise ValueError("witness does not verify against the graph")
    return w


def cmd_gen(args) -> int:
    if args.kind == "rook":
        g = graph.gen_rook(args.a, args.b)
    elif args.kind == "shift":
        g = graph.gen_shift(args.n)
    elif args.kind == "gnp":
        g = graph.gen_gnp(args.n, args.p, args.seed)
    else:  # embed
        base = graph.gen_gnp(args.n, args.p, args.seed)
        g, _, _ = twins.embed_sdd1(base)
    _emit(graph.save_edge_list(g), args.output)
    return 0


def cmd_sd(args) -> int:
    g = graph.load_edge_list(_read(args.graph))
    print(twins.sd_exact(g, limit=args.limit))
    return 0


def cmd_sdd(args) -> int:
    g = graph.load_edge_list(_read(args.graph))
    d, _ = twins.sdd_exact(g, limit=args.limit)
    print(d)
    return 0


def cmd_order(args) -> int:
    g = graph.load_edge_list(_read(args.graph))
    if args.mode == "greedy":
        if args.d is None:
            raise ValueError("greedy mode needs --d")
        w = twins.sdd_greedy(g, args.d)
        if w is None:
            raise ValueError(f"greedy search found no witness at d={args.d}")
    else:
        d, w = twins.sdd_exact(g, limit=args.limit)
        if args.d is not None and d > args.d:
            raise ValueError(f"exact sd-degeneracy is {d}, above requested {args.d}")
    _emit(twins.save_witness(w), args.output)
    return 0


def cmd_model(args) -> int:
    g = graph.load_edge_list(_read(args.graph))
    w = _load_witness_for(g, args.witness)
    m = model.stm_from_witness(g, w)
    _emit(model.save_stm(m), args.output)
    return 0


def cmd_clean(args) -> int:
    m = model.load_stm(_read(args.model))
    _emit(model.save_stm(model.make_clean(m)), args.output)
    return 0


def cmd_balance(args) -> int:
    m = model.load_stm(_read(args.model))
    m = model.make_clean(m)
    pairs = len(m.green | m.blue)
    d_sparse = args.d if args.d is not None else -(-pairs // m.n_nodes)
    b = balance.shallowise(m, d_sparse)
    _emit(model.save_stm(b, complete=True), args.output)
    return 0


def cmd_label(args) -> int:
    g = graph.load_edge_list(_read(args.graph))
    w = _load_witness_for(g, args.witness)
    labels = labeling.label_graph(g, w)
    _emit(labeling.save_labels(labels), args.output)
    return 0


def cmd_decode(args) -> int:
    labels = labeling.load_labels(_read(args.labels))
    for v in (args.u, args.v):
        if v not in labels:
            raise ValueError(f"vertex {v} not in label file")
    print(1 if labeling.decode(labels[args.u], labels[args.v]) else 0)
    return 0


def cmd_verify(args) -> int:
    g = graph.load_edge_list(_read(args.graph))
    labels = labeling.load_labels(_read(args.labels))
    if g.n != len(labels):
        raise ValueError(f"graph has {g.n} vertices, label file has {len(labels)}")
    decoded = labeling.decode_matrix(labels)
    mism = sum(len(g.adj[u] ^ decoded.adj[u]) for u in range(g.n)) // 2
    if mism == 0:
        print("OK 0 mismatches")
        return 0
    print(f"FAIL {mism} mismatches")
    return 1


def cmd_reduce(args) -> int:
    phi = hardness.load_cnf(_read(args.cnf))
    if args.target == "sd":
        r = hardness.build_sd_reduction(phi, args.d)
    else:
        r = hardness.build_sdd_reduction(phi)
    _emit(graph.save_edge_list(r.graph), args.output)
    if args.roles:
        Path(args.roles).write_text(hardness.save_roles(r))
    return 0


def cmd_witness(args) -> int:
    phi = hardness.load_cnf(_read(args.cnf))
    if args.target == "sd":
        assignment = hardness.sat_oracle(phi)
        if assignment is None:
            raise ValueError("formula is unsatisfiable")
        r = hardness.build_sd_reduction(phi, args.d)
        ds = hardness.sd_witness_from_assignment(r, phi, assignment)
        lines = [f"p div {ds.d} {len(ds.vertices)}"]
        lines.extend(f"v {v}" for v in sorted(ds.vertices))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        assignment = hardness.sat_oracle(phi, allow_one_unsat=True)
        if assignment is None:
            raise ValueError("no assignment satisfies all clauses but one")
        r = hardness.build_sdd_reduction(phi)
        w = hardness.sdd_witness_from_assignment(r, phi, assignment)
        _emit(twins.save_witness(w), args.output)
    return 0


def cmd_bench(args) -> int:
    rows = []
    for lineno, raw in enumerate(_read(args.config).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            family, n, d, seed = line.split()
            rows.append((lineno, (family, int(n), int(d), int(seed))))
        except ValueError:
            raise ValueError(f"config line {lineno}: want `family n d seed`") from None
    out = [BENCH_HEADER]
    for lineno, row in rows:
        try:
            out.append(bench_row(*row))
        except ValueError as e:
            raise ValueError(f"config line {lineno}: {e}") from None
    _emit("\n".join(out) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdlabel")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("--kind", required=True, choices=["rook", "shift", "gnp", "embed"])
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--b", type=int, default=3)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sd", help="exact symmetric difference")
    p.add_argument("--exact", action="store_true", required=True)
    p.add_argument("--limit", type=int, default=twins.SUBSET_SEARCH_LIMIT)
    p.add_argument("graph")
    p.set_defaults(func=cmd_sd)

    p = sub.add_parser("sdd", help="exact sd-degeneracy")
    p.add_argument("--limit", type=int, default=twins.SDD_SEARCH_LIMIT)
    p.add_argument("graph")
    p.set_defaults(func=cmd_sdd)

    p = sub.add_parser("order", help="find an elimination witness")
    p.add_argument("--mode", required=True, choices=["greedy", "exact"])
    p.add_argument("--d", type=int)
    p.add_argument("--limit", type=int, default=twins.SDD_SEARCH_LIMIT)
    p.add_argument("graph")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("model", help="signed tree model from a witness")
    p.add_argument("graph")
    p.add_argument("witness")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("clean", help="make a model clean")
    p.add_argument("model")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("balance", help="shallowise a model onto the complete tree")
    p.add_argument("--d", type=int, help="declared sparsity (default: exact)")
    p.add_argument("model")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("label", help="graph + witness -> adjacency labels")
    p.add_argument("graph")
    p.add_argument("witness")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("decode", help="adjacency of two vertices from labels")
    p.add_argument("labels")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="full decode comparison against a graph")
    p.add_argument("graph")
    p.add_argument("labels")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="build a SAT reduction graph")
    p.add_argument("--target", required=True, choices=["sd", "sdd"])
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--roles", help="also write the role map here")
    p.add_argument("cnf")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("witness", help="assignment -> diverse set or elimination order")
    p.add_argument("--target", required=True, choices=["sd", "sdd"])
    p.add_argument("--d", type=int, default=8)
    p.add_argument("cnf")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bench", help="label-size benchmark over a config file")
    p.add_argument("config")
    p.add_argument("-o", dest="output")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
