"""In-memory span recorder for the benchmark's traced runs.

A span covers one public library call made by the runner, or one phase of
the runner itself (a set-up repetition, one op, the verify pass).  Spans
are kept in flat arrays while the run lasts and written out as gzip'd JSON
lines when it ends.  Calls the library makes internally are not seen: only
the module attributes the runner looks up through :class:`TracedModule`
are wrapped.
"""

from __future__ import annotations

import functools
import gzip
import types
from array import array
from time import perf_counter

# Op ids of the runner's phase spans; ops themselves are numbered from 0.
SETUP_OP = -1
VERIFY_OP = -2


class Tracer:
    """Collects spans: name, start, end, parent span, op id, self time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.error = array("b")
        self._stack: list[list] = []  # [span index, seconds spent in children]
        self.op_id = SETUP_OP

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> None:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.error.append(0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def close(self, failed: bool = False) -> None:
        end = perf_counter()
        idx, child = self._stack.pop()
        dur = end - self.start[idx]
        self.end[idx] = end
        self.self_time[idx] = dur - child
        self.error[idx] = failed
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, qualname: str, fn):
        nid = self.intern(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(failed=True)
                raise
            tracer.close()
            return out

        return traced

    def per_name(self) -> dict[str, tuple[int, float, int]]:
        """name -> (calls, summed self seconds, calls that raised)."""
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        errs = [0] * len(self.names)
        for nid, st, err in zip(self.name, self.self_time, self.error):
            calls[nid] += 1
            secs[nid] += st
            errs[nid] += err
        return {n: (calls[i], secs[i], errs[i]) for i, n in enumerate(self.names)}

    def op_coverage(self, op_name: str) -> tuple[float, float]:
        """(summed duration of the op spans, their summed self time).

        The self time of an op span is the runner's own code inside the
        op; the rest is covered by traced public calls.
        """
        nid = self._ids.get(op_name)
        total = own = 0.0
        for i, name in enumerate(self.name):
            if name == nid:
                total += self.end[i] - self.start[i]
                own += self.self_time[i]
        return total, own

    def write_jsonl_gz(self, path, t0: float) -> None:
        """One JSON object per span; times in seconds since ``t0``."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"id":{i},"name":"{names[self.name[i]]}",'
                    f'"start":{self.start[i] - t0:.9f},"end":{self.end[i] - t0:.9f},'
                    f'"parent":{self.parent[i]},"op":{self.op[i]},'
                    f'"self":{self.self_time[i]:.9f},"error":{self.error[i]}}}\n'
                )


class TracedModule:
    """Module proxy whose functions record a span per call.

    Classes and constants pass through unchanged, so ``Graph(...)`` and
    ``SddWitness(...)`` are not traced.
    """

    def __init__(self, module: types.ModuleType, short: str, tracer: Tracer):
        self._module = module
        self._short = short
        self._tracer = tracer
        self._cache: dict[str, object] = {}

    def __getattr__(self, attr: str):
        got = self._cache.get(attr)
        if got is None:
            got = getattr(self._module, attr)
            if isinstance(got, types.FunctionType):
                got = self._tracer.wrap(f"{self._short}.{attr}", got)
            self._cache[attr] = got
        return got
