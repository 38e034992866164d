"""Traced pass of one workload, run as a child process.

Spans are recorded from outside the program: every public function of the
modules in ``MODULES`` is replaced by a timing wrapper on its module
attribute, and every other ``orthocusp`` module attribute (or module-level
dict value) bound to the same function object, such as the names ``enum3``
and ``cli`` import with ``from ... import``, is rebound to the same
wrapper.  ``Polyhedron3.edges`` is wrapped as a property.  Nothing under
``src/`` is edited.

A span has a name, start, end, parent span and workload operation id (one
``cli.main`` call, or one corpus item).  Spans are kept in memory in flat
arrays and written when the pass ends to ``SPANS_PREFIX.json`` (header) and
``SPANS_PREFIX.bin`` (arrays: name, parent, op as int32, start and end as
int64 nanoseconds).  The aggregates written to WORKDIR/trace.json are
computed from them: self time is a span's duration minus that of its
direct child spans, a module's self time is the sum over its spans, so
nesting inside one module (``require_valid -> validate``) is merged.

Usage: python3 perfbench/tracer.py WORKDIR SPANS_PREFIX, where
WORKDIR/trace_spec.json names the workload and either ``cli`` (a list of
argv lists) or ``corpus`` (a corpus file in WORKDIR); the result goes to
WORKDIR/trace.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from math import comb
from pathlib import Path

MODULES = ("cli", "enum3", "maps", "core", "andreev", "nikulin", "cusplink", "bounds")


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = [0]
        self.levels: list[tuple[int, int, tuple]] = []   # (span, n, triangulations)
        self.emitted: list[int] = []

    def wrap(self, fn, label: str, after=None):
        nid = len(self.names)
        self.names.append(label)
        name_of, parent, op, start, end = self.name_of, self.parent, self.op, self.start, self.end
        stack, current_op, clock = self.stack, self.current_op, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(current_op[0])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"orthocusp.{m}") for m in MODULES}
        after = {
            "enum3.triangulations": lambda idx, args, res: self.levels.append((idx, args[0], res)),
            "enum3.enumerate_types": lambda idx, args, res: self.emitted.append(len(res.types)),
        }
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    label = f"{short}.{name}"
                    wrapped[obj] = self.wrap(obj, label, after.get(label))
        for name, mod in list(sys.modules.items()):
            if name != "orthocusp" and not name.startswith("orthocusp."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        poly = mods["core"].Polyhedron3
        poly.edges = property(self.wrap(poly.edges.fget, "core.Polyhedron3.edges"))

    def write(self, prefix: Path, workload: str) -> None:
        header = {"workload": workload, "names": self.names, "spans": len(self.start),
                  "fields": ["name:int32", "parent:int32", "op:int32",
                             "start_ns:int64", "end_ns:int64"]}
        prefix.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(prefix.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_of, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)

    def aggregate(self) -> dict:
        """Per-function and per-module calls, inclusive and self seconds,
        and the per-level growth counters."""
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        split_id = self.names.index("maps.split_vertex")
        tri_id = self.names.index("enum3.triangulations")
        splits_under = array("q", bytes(8 * n))
        nested_levels = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.name_of[i] == split_id:
                    splits_under[p] += 1
                elif self.name_of[i] == tri_id:
                    nested_levels[p] += dur[i]
        funcs = {name: {"calls": 0, "s": 0, "self_s": 0} for name in self.names}
        for i in range(n):
            rec = funcs[self.names[self.name_of[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        modules = {m: 0 for m in MODULES}
        for name, rec in funcs.items():
            modules[name.split(".", 1)[0]] += rec["self_s"]
            rec["s"] /= 1e9
            rec["self_s"] /= 1e9
        # The span that built a level is the one with split children; later
        # calls hit the cache.
        levels = {}
        for idx, size, tris in self.levels:
            if size not in levels or splits_under[idx] > levels[size]["splits"]:
                levels[size] = {
                    "s": (dur[idx] - nested_levels[idx]) / 1e9,
                    "splits": splits_under[idx],
                    "classes": len(tris),
                    "child_splits": sum(comb(len(nbrs), 2) for rot in tris for nbrs in rot),
                }
        return {"functions": funcs,
                "modules": {m: ns / 1e9 for m, ns in modules.items()},
                "levels": {str(k): v for k, v in sorted(levels.items())},
                "emitted": sum(self.emitted),
                "spans": n}


def _cli(argv: list[str]) -> dict:
    from orthocusp import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def run_workload(spec: dict, workdir: Path, recorder: Recorder) -> dict:
    """Run the operations the spec names: ``cli`` argv lists through
    ``cli.main`` in this process, or every item of a corpus file."""
    if "cli" in spec:
        out = []
        for op, argv in enumerate(spec["cli"]):
            recorder.current_op[0] = op
            out.append(_cli(argv))
        return {"cli": out}
    import audit_child
    items = json.loads((workdir / spec["corpus"]).read_text(encoding="utf-8"))
    results = []
    for op, item in enumerate(items):
        recorder.current_op[0] = op
        results.append(audit_child.timed_item(item))
    return {"items": results}


def main() -> int:
    workdir, prefix = Path(sys.argv[1]), Path(sys.argv[2])
    spec = json.loads((workdir / "trace_spec.json").read_text(encoding="utf-8"))
    recorder = Recorder()
    recorder.install()
    t0 = time.perf_counter()
    outputs = run_workload(spec, workdir, recorder)
    t1 = time.perf_counter()
    recorder.write(prefix, spec["workload"])
    result = {"outputs": outputs, "trace": recorder.aggregate()}
    result["trace"]["workload_s"] = t1 - t0
    result["trace"]["post_s"] = time.perf_counter() - t1
    (workdir / "trace.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
