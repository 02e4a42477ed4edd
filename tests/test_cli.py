"""Command-line pipelines and their file formats."""

import pytest

from sdlabel.bench import BENCH_HEADER
from sdlabel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPipelines:
    def test_gen_sd(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        assert main(["gen", "--kind", "rook", "--a", "3", "--b", "3", "-o", str(g)]) == 0
        code, out, _ = run(capsys, "sd", "--exact", str(g))
        assert code == 0 and out.strip() == "4"

    def test_order_exact_on_cograph(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        # C4 = K4 minus a matching: a cograph, exact witness at d = 0
        g.write_text("p el 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n")
        w = tmp_path / "w.ord"
        code, out, err = run(
            capsys, "order", "--d", "1", "--mode", "exact", str(g), "-o", str(w)
        )
        assert code == 0
        assert w.read_text().splitlines()[0] == "w sdd 0 3"

    def test_order_exact_respects_requested_level(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        g.write_text("p el 4 3\ne 0 1\ne 1 2\ne 2 3\n")  # P4: sdd = 1
        code, out, err = run(capsys, "order", "--d", "0", "--mode", "exact", str(g))
        assert code == 1 and "above requested" in err

    def test_order_greedy_needs_d(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        g.write_text("p el 2 1\ne 0 1\n")
        code, _, err = run(capsys, "order", "--mode", "greedy", str(g))
        assert code == 1 and "--d" in err

    def test_label_verify_decode(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        lf = tmp_path / "L.lbl"
        assert main(["gen", "--kind", "gnp", "--n", "10", "--p", "0.4",
                     "--seed", "5", "-o", str(g)]) == 0
        assert main(["order", "--mode", "exact", str(g), "-o", str(wf)]) == 0
        assert main(["label", str(g), str(wf), "-o", str(lf)]) == 0
        code, out, _ = run(capsys, "verify", str(g), str(lf))
        assert code == 0 and out.strip() == "OK 0 mismatches"
        code, out, _ = run(capsys, "decode", str(lf), "0", "1")
        from sdlabel import load_edge_list

        gg = load_edge_list(g.read_text())
        assert code == 0 and out.strip() == ("1" if gg.has_edge(0, 1) else "0")

    def test_decode_missing_vertex(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        lf = tmp_path / "L.lbl"
        main(["gen", "--kind", "rook", "--a", "3", "--b", "3", "-o", str(g)])
        main(["order", "--mode", "exact", str(g), "-o", str(wf)])
        main(["label", str(g), str(wf), "-o", str(lf)])
        capsys.readouterr()
        code, out, err = run(capsys, "decode", str(lf), "0", "999")
        assert code == 1 and out == ""
        assert err == "error: vertex 999 not in label file\n"

    def test_verify_reports_mismatches(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        lf = tmp_path / "L.lbl"
        main(["gen", "--kind", "gnp", "--n", "8", "--p", "0.5", "--seed", "2",
              "-o", str(g)])
        main(["order", "--mode", "exact", str(g), "-o", str(wf)])
        main(["label", str(g), str(wf), "-o", str(lf)])
        # tamper with the graph: flip one edge
        from sdlabel import load_edge_list, save_edge_list

        gg = load_edge_list(g.read_text())
        if gg.has_edge(0, 1):
            gg.remove_edge(0, 1)
        else:
            gg.add_edge(0, 1)
        g.write_text(save_edge_list(gg))
        code, out, _ = run(capsys, "verify", str(g), str(lf))
        assert code == 1 and out.strip() == "FAIL 1 mismatches"

    def test_trailing_byte_is_one_line_error(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        lf = tmp_path / "L.lbl"
        main(["gen", "--kind", "gnp", "--n", "12", "--p", "0.4", "--seed", "3",
              "-o", str(g)])
        main(["order", "--mode", "exact", str(g), "-o", str(wf)])
        main(["label", str(g), str(wf), "-o", str(lf)])
        lines = lf.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("l 0 "))
        lines[k] += "00"
        lf.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (("verify", str(g), str(lf)), ("decode", str(lf), "0", "1")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.count("\n") == 1 and "Traceback" not in err
            assert err.startswith(f"error: line {k + 1}: trailing byte after the ")

    def test_verify_rejects_flipped_shared_block(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        lf = tmp_path / "L.lbl"
        main(["gen", "--kind", "gnp", "--n", "12", "--p", "0.4", "--seed", "3",
              "-o", str(g)])
        main(["order", "--mode", "exact", str(g), "-o", str(wf)])
        main(["label", str(g), str(wf), "-o", str(lf)])
        from sdlabel.labeling import DEPTH_BITS, PREAMBLE_BITS, load_labels

        from conftest import reference_parse

        # flip the color bit of the first entry stored at a non-leaf node of
        # vertex 0's path: every label below that node carries the block
        label = load_labels(lf.read_text())[0]
        p = reference_parse(label)
        cb = p.width.bit_length()
        bit = PREAMBLE_BITS + DEPTH_BITS + len(p.path) * p.id_bits
        i = next(i for i, block in enumerate(p.entries[:-1]) if block)
        bit += sum(cb + len(block) * (p.id_bits + 1) for block in p.entries[:i])
        bit += cb + p.id_bits
        data = bytearray(label.data)
        data[bit // 8] ^= 1 << (7 - bit % 8)
        lines = lf.read_text().splitlines()
        lines = [f"l 0 {data.hex()}" if line.startswith("l 0 ") else line for line in lines]
        lf.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, out, err = run(capsys, "verify", str(g), str(lf))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: label of vertex ")
        assert f"disagrees with an earlier label on node {p.path[i]}" in err

    @pytest.mark.parametrize("n_graph", [8, 14])
    def test_verify_rejects_vertex_count_mismatch(self, tmp_path, capsys, n_graph):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        lf = tmp_path / "L.lbl"
        main(["gen", "--kind", "gnp", "--n", "12", "--p", "0.3", "--seed", "1",
              "-o", str(g)])
        main(["order", "--mode", "exact", str(g), "-o", str(wf)])
        main(["label", str(g), str(wf), "-o", str(lf)])
        # the labelled graph cut to its first 8 vertices, or padded to 14
        from sdlabel import Graph, load_edge_list, save_edge_list

        gg = load_edge_list(g.read_text())
        edges = [e for e in gg.edges() if max(e) < n_graph]
        g.write_text(save_edge_list(Graph(n_graph, edges)))
        capsys.readouterr()
        code, out, err = run(capsys, "verify", str(g), str(lf))
        assert code == 1 and out == ""
        assert err == f"error: graph has {n_graph} vertices, label file has 12\n"

    def test_model_clean_balance_round_trip(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        wf = tmp_path / "w.ord"
        m1 = tmp_path / "m.stm"
        m2 = tmp_path / "b.stm"
        main(["gen", "--kind", "gnp", "--n", "9", "--p", "0.3", "--seed", "4",
              "-o", str(g)])
        main(["order", "--mode", "exact", str(g), "-o", str(wf)])
        assert main(["model", str(g), str(wf), "-o", str(m1)]) == 0
        assert main(["clean", str(m1), "-o", str(m1)]) == 0
        assert main(["balance", str(m1), "-o", str(m2)]) == 0
        assert m2.read_text().splitlines()[0].endswith("complete 1")
        from sdlabel import load_edge_list
        from sdlabel.model import load_stm, realize

        assert realize(load_stm(m2.read_text())) == load_edge_list(g.read_text())

    def test_reduce_and_witness(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 3\n1 -3 4 0\n-2 3 -4 0\n-1 2 0\n")
        out_el = tmp_path / "r.el"
        roles = tmp_path / "r.roles"
        assert main(["reduce", "--target", "sd", "--d", "8", str(cnf),
                     "-o", str(out_el), "--roles", str(roles)]) == 0
        assert out_el.read_text().startswith("p el 782 ")
        assert roles.read_text().splitlines()[0] == "r 0 lit:+1"
        code, out, _ = run(capsys, "witness", "--target", "sd", "--d", "8", str(cnf))
        assert code == 0 and out.splitlines()[0] == "p div 8 778"

    def test_witness_sdd(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 3\n1 2 3 0\n-1 -2 4 0\n2 -3 -4 0\n")
        wfile = tmp_path / "w.ord"
        gfile = tmp_path / "g.el"
        assert main(["reduce", "--target", "sdd", str(cnf), "-o", str(gfile)]) == 0
        assert main(["witness", "--target", "sdd", str(cnf), "-o", str(wfile)]) == 0
        from sdlabel import check_witness, load_edge_list, load_witness

        g = load_edge_list(gfile.read_text())
        w = load_witness(wfile.read_text())
        assert w.d == 1 and check_witness(g, w)

    def test_witness_sd_unsat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        clauses = "\n".join(
            " ".join(str((v + 1) * s) for v, s in zip(range(2), signs)) + " 0"
            for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        )
        cnf.write_text(f"p cnf 2 4\n{clauses}\n")
        code, _, err = run(capsys, "witness", "--target", "sd", "--d", "8", str(cnf))
        assert code == 1 and "unsatisfiable" in err


class TestBench:
    def test_empty_config(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("# nothing\n")
        code, out, _ = run(capsys, "bench", str(cfg))
        assert code == 0 and out == BENCH_HEADER + "\n"

    def test_deterministic(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("embed 32 1 7\nrook 16 0 0\nshift 6 0 0\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["bench", str(cfg), "-o", str(out1)]) == 0
        assert main(["bench", str(cfg), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_row_shape(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("embed 32 1 3\n")
        code, out, _ = run(capsys, "bench", str(cfg))
        lines = out.splitlines()
        assert lines[0] == BENCH_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "embed" and fields[1] == "32" and fields[2] == "1"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("embed 1 1 0", "bench needs n >= 2, got 1"),
            ("gnp 1 0 0", "bench needs n >= 2, got 1"),
            ("rook 1 1 0", "bench needs n >= 2, got 1"),
            ("embed -5 1 0", "bench needs n >= 2, got -5"),
            ("shift 2 0 0", "shift family needs n >= 3, got 2"),
            ("rook 8 0 0", "rook family needs a square n"),
            ("grid 9 0 0", "unknown family 'grid'"),
            ("gnp 40 -3 0", "probability out of range: -0.07692307692307693"),
        ],
    )
    def test_rejects_bad_row(self, tmp_path, capsys, row, message):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"embed 32 1 3\n{row}\n")
        code, out, err = run(capsys, "bench", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: config line 2: {message}\n"

    @pytest.mark.parametrize("row", ["gnp 40 x 3", "gnp 40 4", "gnp 40 4 3 1", "rook 16 0 0.5"])
    def test_malformed_config_line(self, tmp_path, capsys, row):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"# header\nembed 32 1 3\n{row}\n")
        code, out, err = run(capsys, "bench", str(cfg))
        assert code == 1 and out == ""
        assert err == "error: config line 3: want `family n d seed`\n"


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["gen"]) == 2

    def test_domain_error_is_one(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        g.write_text("p el 2 1\ne 0 0\n")
        code, _, err = run(capsys, "sd", "--exact", str(g))
        assert code == 1 and "self-loop" in err

    def test_negative_witness_level_is_one_line(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        g.write_text("p el 1 0\n")
        w = tmp_path / "w.ord"
        w.write_text("w sdd -3 0\n")
        code, out, err = run(capsys, "model", str(g), str(w))
        assert code == 1 and out == ""
        assert err == "error: line 1: negative level in header 'w sdd -3 0'\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sd", "--exact", "/nonexistent/path.el")
        assert code == 1
