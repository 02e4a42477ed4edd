#!/usr/bin/env python3
"""sdlabel benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process against the library
source in ``src/`` next to this directory.  The run sets up several times
(a fresh import each time), serves ops in a closed loop with one caller
until both ``--seconds`` of op time and a minimum op count are reached,
rebuilds the emitted labels with ``decode_matrix``, checks every output,
and prints one ``name value unit`` line per metric and, last, one JSON
object.  Timings are scaled to a fixed machine speed (see ``REF_LOOP_S``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` records a span
per public library call and reports the per-layer metrics.
``all`` runs each workload in its own fresh process and prints one table.

Result files (metrics, input properties, fingerprints, machine facts) and,
for traced runs, the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import array
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ("graph", "twins", "model", "balance", "labeling", "hardness")
# Extra set-ups and verify passes, spread evenly over the op phase; one
# more verify pass follows the loop.  On a shared machine the speed drifts
# over seconds, so repetitions taken far apart give steadier medians than
# repetitions taken back to back.  Few of them leave more of the run's
# time budget to the op phase.
SIDE_POINTS = 2
# The host is shared, and its speed for all Python code moves by up to 1.5x
# for seconds to minutes at a time, longer than a run.  A fixed reference
# loop is timed between the timed intervals (at least every PROBE_EVERY_S of
# wall time, around every set-up and before every verify call), and
# each interval is scaled by REF_LOOP_S over the median loop time within
# SMOOTH_S of it.  The reported timings are thus those of a machine on which
# the reference loop takes REF_LOOP_S; the raw timings go to the result file.
REF_LOOP_S = 0.4e-3
PROBE_EVERY_S = 0.05
SMOOTH_S = 0.5
# p90 must leave at least ten samples above it.
MIN_OPS = 110
MIN_TRACED_OPS = 40

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "verify_s": "s",
    "label_bits_max": "bits",
    "label_bits_mean": "bits",
    "peak_rss_mb": "MiB",
}

# Every public library function the runner calls (set-up, ops, verify).
LAYER_FUNCTIONS = (
    "graph.gen_gnp",
    "graph.gen_rook",
    "graph.degeneracy",
    "twins.embed_sdd1",
    "twins.sd_pair",
    "twins.sdd_greedy",
    "twins.is_diverse",
    "twins.sd_exact",
    "twins.sdd_exact",
    "model.stm_from_witness",
    "model.make_clean",
    "balance.shallowise",
    "labeling.encode",
    "labeling.decode",
    "labeling.decode_matrix",
    "hardness.sat_oracle",
    "hardness.build_sd_reduction",
    "hardness.validate_sd_reduction",
    "hardness.sd_witness_from_assignment",
    "hardness.build_sdd_reduction",
    "hardness.sdd_witness_from_assignment",
    "hardness.extract_assignment",
)
COUNTER_UNITS = {
    "twins.sdd_greedy.stuck_ratio": "ratio",
    "model.pairs": "count",
    "balance.pairs_out": "count",
    "balance.blowup": "ratio",
    "labeling.width": "count",
    "labeling.depth": "count",
    "labeling.bits_over_layout_bound": "ratio",
    "labeling.bits_over_paper_bound": "ratio",
    "hardness.reduction_vertices": "count",
    "input.degree_min": "count",
    "input.degree_max": "count",
    "input.degree_stdev": "count",
    "input.degree_window_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.runner_share": "ratio",
}
LAYER_UNITS = {}
for _f in LAYER_FUNCTIONS:
    LAYER_UNITS.update({f"{_f}.calls": "count", f"{_f}.s": "s", f"{_f}.errors": "count"})
LAYER_UNITS.update(COUNTER_UNITS)


def fresh_library():
    """Import the six library modules anew, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sdlabel" or n.startswith("sdlabel.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"sdlabel.{m}") for m in MODULES}


def namespace(mods, tracer=None):
    if tracer is None:
        return types.SimpleNamespace(**mods)
    return types.SimpleNamespace(**{m: spans.TracedModule(mod, m, tracer) for m, mod in mods.items()})


class Failures:
    """Attempted ops and the problems found; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems[:3])}")


def error_text(exc: Exception) -> list[str]:
    """The exception and the innermost frame that raised it."""
    last = traceback.format_exception_only(type(exc), exc)[-1].strip()
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return [f"raised {last} in {frame.name} ({Path(frame.filename).name}:{frame.lineno})"]


def reference_loop() -> int:
    """Fixed interpreter-bound work: dict updates and integer arithmetic."""
    d: dict[int, int] = {}
    s = 0
    for i in range(1500):
        k = i % 997
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    return s


class MachineSpeed:
    """Times of the reference loop, each the median of five, with the
    moment each was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        times = []
        gc.disable()  # a collection of the caller's heap is not machine speed
        for _ in range(5):
            t0 = perf_counter()
            reference_loop()
            times.append(perf_counter() - t0)
        gc.enable()
        self.at.append(perf_counter())
        self.took.append(statistics.median(times))

    def due(self) -> bool:
        return perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def scaled(self, intervals) -> array.array:
        """Each (start, end, seconds) interval's seconds times REF_LOOP_S
        over the median loop time from the last sample before
        ``start - SMOOTH_S`` to the first after ``end + SMOOTH_S``."""
        factor = {}
        out = array.array("d")
        for start, end, secs in intervals:
            lo = max(bisect.bisect_right(self.at, start - SMOOTH_S) - 1, 0)
            hi = min(bisect.bisect_left(self.at, end + SMOOTH_S), len(self.at) - 1)
            if (lo, hi) not in factor:
                factor[lo, hi] = REF_LOOP_S / statistics.median(self.took[lo : hi + 1])
            out.append(secs * factor[lo, hi])
        return out


def timed_op(workload, lib, x, tracer, i):
    """Run one op; returns (seconds, output or None, problems)."""
    t0 = perf_counter()
    if tracer is not None:
        tracer.op_id = i
        tracer.open(tracer.intern("op"))
    try:
        out = workload.run(lib, x)
        problems = []
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        out, problems = None, error_text(exc)
    if tracer is not None:
        tracer.close(failed=bool(problems))
    return perf_counter() - t0, out, problems


class Run:
    """One run of a workload: set-ups, the op loop and the verify passes."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.tracer = spans.Tracer() if trace else None
        self.failures = Failures()
        self.speed = MachineSpeed()
        # (start, end, seconds) of each set-up and of each verify pass's
        # decode_matrix calls, unscaled
        self.setups: list[tuple[float, float, float]] = []
        self.verifies: list[list[tuple[float, float, float]]] = []
        # end and seconds of each untraced op, unscaled; arrays, so that a
        # run of many short ops adds little to peak_rss_mb
        self.op_end = array.array("d")
        self.op_secs = array.array("d")
        self.traced: list[float] = []  # traced op latencies (traced runs)

    def set_up(self, workload):
        """Fresh import plus ``workload.setup``, timed; returns (lib, raw)."""
        tracer = self.tracer
        self.speed.sample()
        t0 = perf_counter()
        if tracer is not None:
            tracer.op_id = spans.SETUP_OP
            tracer.open(tracer.intern("setup"))
        mods = fresh_library()
        lib = namespace(mods, tracer)
        workload.setup(lib, self.seed)
        if tracer is not None:
            tracer.close()
        t1 = perf_counter()
        self.speed.sample()
        self.setups.append((t0, t1, t1 - t0))
        return lib, namespace(mods)

    def verify_pass(self, lib) -> None:
        """decode_matrix over the workload's label sets, timed and checked."""
        if self.tracer is not None:
            self.tracer.op_id = spans.VERIFY_OP
        calls = []
        for k, rec in enumerate(self.workload.verify_set()):
            self.speed.sample()
            t0 = perf_counter()
            try:
                rebuilt = lib.labeling.decode_matrix(rec.labels)
            except Exception as exc:  # a corrupt label set is a failed verify
                rebuilt, problems = None, error_text(exc)
            t1 = perf_counter()
            calls.append((t0, t1, t1 - t0))
            if rebuilt is not None:
                problems = [] if rebuilt == rec.graph else ["decode_matrix differs from the graph"]
            self.failures.add(f"verify {k}", problems)
        self.speed.sample()
        self.verifies.append(calls)

    def ops(self):
        """(start, end, seconds) of each untraced op, unscaled."""
        return ((end - secs, end, secs) for end, secs in zip(self.op_end, self.op_secs))

    def op_loop(self, lib, raw, seconds: float, min_ops: int) -> None:
        """Closed loop with one caller, until ``seconds`` of op time and
        ``min_ops`` ops.  Traced runs time every op twice, traced and not,
        alternating which goes first, to measure the tracing overhead."""
        workload, tracer = self.workload, self.tracer
        side_at = [seconds * k / (SIDE_POINTS + 1) for k in range(1, SIDE_POINTS + 1)]
        verifies_due = 0
        busy = 0.0
        i = 0
        while busy < seconds or i < min_ops:
            x = workload.prepare(i)
            if self.speed.due():
                self.speed.sample()
            if tracer is None:
                dt, out, problems = timed_op(workload, lib, x, None, i)
                self.op_end.append(perf_counter())
                self.op_secs.append(dt)
                busy += dt
            else:
                problems = []
                for use_trace in (False, True) if i % 2 == 0 else (True, False):
                    if use_trace:
                        dt, out, errs = timed_op(workload, lib, x, tracer, i)
                        self.traced.append(dt)
                    else:
                        dt, _, errs = timed_op(workload, raw, x, None, i)
                        self.op_end.append(perf_counter())
                        self.op_secs.append(dt)
                    busy += dt
                    problems += errs
            if not problems:
                try:
                    problems = workload.check(raw, x, out)
                except Exception as exc:  # a check that raises marks the op failed
                    problems = error_text(exc)
                if not problems:
                    workload.keep(x, out)
            self.failures.add(f"op {i}", problems)
            i += 1
            while side_at and busy >= side_at[0]:
                side_at.pop(0)
                self.set_up(type(workload)(workload.size))
                verifies_due += 1
            if verifies_due and workload.verify_ready():
                self.verify_pass(lib)
                verifies_due -= 1
        self.speed.sample()
        for _ in range(verifies_due + 1):
            self.verify_pass(lib)


def label_metrics(raw, records) -> dict:
    sizes = [lab.nbits for r in records for lab in r.labels.values()]
    pairs = sum(len(r.model.green | r.model.blue) for r in records)
    pairs_out = sum(len(r.balanced.green | r.balanced.blue) for r in records)
    width = depth = 0
    over_layout = over_paper = 0.0
    for r in records:
        n, id_bits, w = workloads.preamble(next(iter(r.labels.values())))
        h = max(r.balanced.depth) + 1
        width, depth = max(width, w), max(depth, h)
        top = max(lab.nbits for lab in r.labels.values())
        over_layout = max(over_layout, top / raw.labeling.layout_bound(n, id_bits, w, h))
        if n >= 2:
            paper = math.sqrt((r.witness.d + 1) * n) * math.log2(n) ** 3
            over_paper = max(over_paper, top / paper)
    return {
        "label_bits_max": max(sizes, default=0),
        "label_bits_mean": statistics.fmean(sizes) if sizes else 0.0,
        "model.pairs": pairs,
        "balance.pairs_out": pairs_out,
        "balance.blowup": pairs_out / pairs if pairs else 0.0,
        "labeling.width": width,
        "labeling.depth": depth,
        "labeling.bits_over_layout_bound": over_layout,
        "labeling.bits_over_paper_bound": over_paper,
    }


def input_metrics(graphs) -> dict:
    """Degree spread, and the share of vertex pairs whose degree gap
    exceeds d (pairs a degree-window test could skip)."""
    degrees = []
    wide = total = 0
    stdevs = []
    for g, d in graphs:
        deg = sorted(len(a) for a in g.adj)
        degrees.extend(deg)
        stdevs.append(statistics.pstdev(deg))
        lo = 0
        for k, x in enumerate(deg):  # pairs (j, k), j < k, with deg[k] - deg[j] > d
            while deg[lo] < x - d:
                lo += 1
            wide += lo
        total += len(deg) * (len(deg) - 1) // 2
    return {
        "input.degree_min": min(degrees, default=0),
        "input.degree_max": max(degrees, default=0),
        "input.degree_stdev": statistics.fmean(stdevs) if stdevs else 0.0,
        "input.degree_window_share": wide / total if total else 0.0,
    }


def fingerprints(raw, records) -> dict:
    """sha256 of the saved witness, balanced model and labels per instance."""
    rows = []
    for r in records:
        rows.append(
            {
                "witness": hashlib.sha256(raw.twins.save_witness(r.witness).encode()).hexdigest(),
                "stm": hashlib.sha256(
                    raw.model.save_stm(r.balanced, complete=True).encode()
                ).hexdigest(),
                "labels": hashlib.sha256(raw.labeling.save_labels(r.labels).encode()).hexdigest(),
            }
        )
    combined = {
        kind: hashlib.sha256("".join(row[kind] for row in rows).encode()).hexdigest()
        for kind in ("witness", "stm", "labels")
    }
    return {"combined": combined, "per_instance": rows}


def quantile_above(samples, q: float) -> tuple[float, int]:
    """The q-quantile (exclusive method) and how many samples exceed it."""
    cut = statistics.quantiles(samples, n=100)[round(q * 100) - 1]
    return cut, sum(1 for s in samples if s > cut)


def timings(setups, ops, verifies) -> tuple[dict, int]:
    """The timing metrics from set-up, op and verify seconds, and how many
    ops lie above p90."""
    p90, above = quantile_above(ops, 0.9)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": statistics.median(ops) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "verify_s": statistics.median(verifies),
    }, above


def measure(workload, seed: int, seconds: float, trace: bool, min_ops: int, out_dir: Path) -> dict:
    """One full run of a workload; returns the result record."""
    t_origin = perf_counter()
    run = Run(workload, seed, trace)
    lib, raw = run.set_up(workload)
    # The fixed instance set comes from the first ops, so they all must run.
    run.op_loop(lib, raw, seconds, max(min_ops, workload.size.get("fixed", 0)))
    tracer, failures, traced = run.tracer, run.failures, run.traced
    plain = run.op_secs

    records = workload.records
    values = label_metrics(raw, records)
    graphs = workload.input_graphs(raw)
    values.update(input_metrics(graphs))
    values["hardness.reduction_vertices"] = workload.reduction_vertices(graphs)
    c = workload.counters
    values["twins.sdd_greedy.stuck_ratio"] = (
        c["greedy_stuck"] / c["greedy_attempts"] if c["greedy_attempts"] else 0.0
    )
    raw_timings, _ = timings(
        [secs for _, _, secs in run.setups],
        plain,
        [sum(secs for _, _, secs in calls) for calls in run.verifies],
    )
    setups = list(run.speed.scaled(run.setups))
    verifies = [sum(run.speed.scaled(calls)) for calls in run.verifies]
    scaled_timings, above = timings(setups, run.speed.scaled(run.ops()), verifies)
    values.update(scaled_timings)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_ms = [t * 1e3 for t in run.speed.took]

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        per = tracer.per_name()
        for f in LAYER_FUNCTIONS:
            calls, secs, errs = per.get(f, (0, 0.0, 0))
            values.update({f"{f}.calls": calls, f"{f}.s": secs, f"{f}.errors": errs})
        op_total, op_own = tracer.op_coverage("op")
        values["trace.runner_share"] = op_own / op_total
        values["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0
        untraced_names = sorted(set(per) - set(LAYER_FUNCTIONS) - {"setup", "op"})
        if untraced_names:
            raise RuntimeError(f"calls missing from LAYER_FUNCTIONS: {untraced_names}")
        tracer.write_jsonl_gz(out_dir / f"{stem}.spans.jsonl.gz", t_origin)
        units = LAYER_UNITS
    else:
        units = E2E_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "load": "closed loop, one caller, one op at a time",
        "op_samples": len(plain),
        "samples_above_p90": above,
        "setup_runs_s": setups,
        "verify_runs_s": verifies,
        "raw_timings": raw_timings,
        "reference_loop_ms": {
            "scaled_to": REF_LOOP_S * 1e3,
            "samples": len(loop_ms),
            "min": min(loop_ms),
            "median": statistics.median(loop_ms),
            "max": max(loop_ms),
        },
        "fail_share": failures.failed / failures.attempted,
        "failures": failures.messages,
        "all_values": values,
        "fingerprints": fingerprints(raw, records),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    return {**result, "info": info}


def print_result(res: dict) -> None:
    info = res["info"]
    print(
        f"# {info['workload']} seed={info['seed']} trace={info['trace']} "
        f"nproc={info['machine']['nproc']} python={info['machine']['python']}"
    )
    for name, m in res["metrics"].items():
        extra = ""
        if name.startswith("op_ms_"):
            extra = f"  (n={info['op_samples']})"
        print(f"{name} {m['value']} {m['unit']}{extra}")
    print(f"fail_share {info['fail_share']} ratio  ({res['failed']}/{res['attempted']})")
    for msg in info["failures"]:
        print(f"# failure: {msg}")
    summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def run_all(args) -> int:
    """Each workload in its own fresh process; one table at the end."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in rows.items():
        for metric, m in res["metrics"].items():
            print(f"{name:14s} {metric:40s} {m['value']:.6g} {m['unit']}")
        print(f"{name:14s} {'fail_share':40s} {res['failed'] / res['attempted']:.6g} ratio")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sdlabel" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'sdlabel'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload](workloads.FULL[args.workload])
    min_ops = MIN_TRACED_OPS if args.trace else MIN_OPS
    res = measure(workload, args.seed, args.seconds, bool(args.trace), min_ops, RESULTS)
    print_result(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
