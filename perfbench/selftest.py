#!/usr/bin/env python3
"""Self-test of the benchmark runner.

    python3 perfbench/selftest.py

Smoke-runs every workload at tiny sizes, untraced and traced, and asserts
that every metric named in BENCHMARK.json is reported and that no op
failed.  Then it flips single bits of one decode-query label and asserts
that the run notices: a flip that makes ``decode`` answer wrongly without
raising must raise the failure share, and a flip that makes it raise must
show in ``labeling.decode.errors``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

OUT = run.RESULTS / "selftest"
SEED = 7


def smoke(workload, trace: bool) -> dict:
    return run.measure(workload, SEED, 0.2, trace, 6, OUT)


def flip(label, bit: int):
    data = bytearray(label.data)
    data[bit // 8] ^= 0x80 >> (bit % 8)
    return type(label)(bytes(data), label.nbits)


def find_flip(decode, rec, want_error: bool):
    """(vertex, bit, partner) such that decoding the pair with that bit
    flipped raises (want_error) or answers wrongly without raising."""
    g, labels = rec.graph, rec.labels
    for v in range(g.n):
        for bit in range(labels[v].nbits - 1, -1, -1):
            bad = flip(labels[v], bit)
            for u in range(g.n):
                if u == v:
                    continue
                try:
                    got = decode(bad, labels[u])
                except ValueError:
                    if want_error:
                        return v, bit, u
                    continue
                if not want_error and got != g.has_edge(u, v):
                    return v, bit, u
    raise AssertionError("no label bit flip of the wanted kind found")


class FlippedLabel(workloads.DecodeQuery):
    """decode-query with one bit of one embed label flipped after set-up;
    every op decodes the pair that the flip affects."""

    want_error = False

    def setup(self, lib, seed: int) -> None:
        super().setup(lib, seed)
        rec = self.records[0]
        # The untraced decode, so that the search leaves no spans behind.
        decode = sys.modules["sdlabel.labeling"].decode
        v, bit, u = find_flip(decode, rec, self.want_error)
        rec.labels[v] = flip(rec.labels[v], bit)
        self.pair = (rec, v, u)

    def prepare(self, i: int):
        return self.pair


class FlippedLabelRaises(FlippedLabel):
    want_error = True


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for name, cls in workloads.WORKLOADS.items():
        for trace, want in ((False, e2e), (True, layer)):
            res = smoke(cls(workloads.SMOKE[name]), trace)
            got = set(res["metrics"])
            assert got == want, (name, trace, sorted(got ^ want))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            assert res["failed"] == 0 and res["info"]["fail_share"] == 0, res["info"]["failures"]
            assert res["correct"] and res["attempted"] >= 6
        print(f"ok   smoke {name}")

    res = smoke(FlippedLabel(workloads.SMOKE["decode-query"]), False)
    assert res["info"]["fail_share"] > 0 and not res["correct"], res["info"]
    print(f"ok   silent wrong decode caught: fail_share {res['info']['fail_share']:.3f}")

    res = smoke(FlippedLabelRaises(workloads.SMOKE["decode-query"]), True)
    errors = res["metrics"]["labeling.decode.errors"]["value"]
    assert errors > 0 and res["info"]["fail_share"] > 0, res["info"]
    print(f"ok   raising decode counted: labeling.decode.errors {errors}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
