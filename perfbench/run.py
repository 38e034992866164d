"""The orthocusp benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one program process at a time,
``--workers`` 1; see README.md in this directory for why each exists):

  verify-all    cold ``orthocusp --machine verify all``
  census-2cusp  cold ``orthocusp --machine enumerate --faces 10 --cusps 2
                --out DIR``, then cold ``... --check-cache`` on DIR
  audit-corpus  a seeded corpus of POLY3 texts through the per-file audit
                chain, in one child process per pass

With ``--trace 0`` the run measures set-up time, then repeats workload
passes while one more still fits in ``--seconds`` (at least one), and
reports the end-to-end metrics, scaled to a fixed host speed (see
``HostSpeed``).  With ``--trace 1`` it repeats pairs of one untraced
and one traced pass (see tracer.py) and reports the per-layer metrics.
Every pass checks the program's outputs.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Only files inside the checkout
are read or written: scratch files go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import inf
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))

#: what the installed ``orthocusp`` console script runs
ENTRY = "import sys; from orthocusp.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SAMPLES = 11
#: reference slices timed together for one host-speed sample
REFERENCE_SLICES = 60
#: end-to-end times are scaled to a host on which one slice takes this long
REFERENCE_NOMINAL_S = 0.7e-3
#: a measured program process is paused for a host-speed sample this often
PAUSE_EVERY_S = 0.5
#: a run must end within 180 s; no child may outlive this share of it
RUN_LIMIT_S = 170.0

VERIFY_ARGV = ["--machine", "verify", "all"]
#: OEIS A000109, sphere triangulations with n = 4..12 vertices
A000109 = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}


def census_argv(out_dir: Path) -> list[list[str]]:
    base = ["--machine", "enumerate", "--faces", "10", "--cusps", "2", "--out", str(out_dir)]
    return [base, base + ["--check-cache"]]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class HostSpeed:
    """Measures how fast the host runs at the moment.

    The shared host's speed changes by up to 1.5x, for seconds or minutes
    at a time, and process CPU time changes with it (the slowdown is not
    steal time).  End-to-end times are therefore scaled to a fixed host
    speed: a program process is run between two host-speed samples and
    stopped (SIGSTOP) every ``PAUSE_EVERY_S`` for one more, so that each
    stretch it runs lies between two samples, and the stretch's time is
    multiplied by ``REFERENCE_NOMINAL_S`` over the mean slice time of the
    two.  The samples run in this process, which imports nothing from the
    program, so that no change to the program changes them.  The run and
    its children are pinned to one CPU (``pin``), so that the samples
    measure the CPU the program runs on.
    """

    @staticmethod
    def pin() -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    @staticmethod
    def sample() -> float:
        """Mean seconds per reference slice over one sample."""
        t0 = time.perf_counter()
        for _ in range(REFERENCE_SLICES):
            corpus.reference_slice()
        return (time.perf_counter() - t0) / REFERENCE_SLICES

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2 * REFERENCE_NOMINAL_S / (before + after)


@dataclass
class Proc:
    exit: int
    #: wall time from spawn to exit, with the pauses for host-speed samples taken out
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    #: (start, end, scale) of each stretch the process ran between two samples
    segments: list[tuple[float, float, float]] = field(default_factory=list)

    def scaled(self, start: float = -inf, end: float = inf) -> float:
        """Host-scaled time the process ran between ``start`` and ``end``
        (``time.perf_counter`` readings, which are the same clock in every
        process)."""
        return sum(max(0.0, min(b, end) - max(a, start)) * scale
                   for a, b, scale in self.segments)


class Runner:
    """Starts one program process at a time and measures it from outside.
    With ``scaled`` on, each process is paused for host-speed samples."""

    def __init__(self, workdir: Path, started: float, scaled: bool):
        self.workdir = workdir
        self.started = started
        self.scaled = scaled
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, args: list[str]) -> Proc:
        scaled = self.scaled
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        deadline = self.started + RUN_LIMIT_S
        samples = [HostSpeed.sample()] if scaled else []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            marks = [time.perf_counter()]
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    wait = min(PAUSE_EVERY_S if scaled else inf, deadline - time.perf_counter())
                    if select.select([pidfd], [], [], max(0.0, wait))[0]:
                        break                                   # it exited
                    if time.perf_counter() >= deadline:
                        proc.kill()
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    stopped = time.perf_counter()
                    info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    if info.si_code != os.CLD_STOPPED:
                        break                                   # it exited first
                    samples.append(HostSpeed.sample())
                    marks += [stopped, time.perf_counter()]
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
            marks.append(time.perf_counter())
            _, status, usage = os.wait4(proc.pid, 0)
        spans = list(zip(marks[::2], marks[1::2]))
        segments = []
        if scaled:
            samples.append(HostSpeed.sample())
            segments = [(a, b, HostSpeed.scale(samples[k], samples[k + 1]))
                        for k, (a, b) in enumerate(spans)]
        return Proc(exit=os.waitstatus_to_exitcode(status),
                    wall=sum(b - a for a, b in spans), rss_mb=usage.ru_maxrss / 1024,
                    stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                    stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                    segments=segments)

    def cli(self, argv: list[str]) -> Proc:
        return self.run(["-c", ENTRY, *argv])


# ---------------------------------------------------------------------------
# workload passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One workload pass: its wall time as measured and host-scaled, the
    peak RSS of its children, the host-scaled latencies of its items, and
    the operations attempted and failed.  An item is one program process
    of a CLI workload, or one corpus item.  Without host-speed samples
    (in a traced run) the scaled times are 0."""

    wall: float
    scaled_wall: float
    rss_mb: float
    item_s: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)


def _proc_problems(proc: Proc, what: str, want_stdout: str) -> list[str]:
    problems = []
    if proc.exit != 0:
        problems.append(f"{what}: exit {proc.exit}: {proc.stderr.strip()[-300:]}")
    if proc.stdout != want_stdout:
        problems.append(f"{what}: stdout differs from the golden output")
    return problems


def _sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Workload:
    name = ""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner

    def untraced(self) -> Pass:
        raise NotImplementedError

    def trace_spec(self) -> dict:
        raise NotImplementedError

    def traced_problems(self, result: dict, reference: Pass) -> list[str]:
        """Checks of a traced pass against the untraced pass of the pair."""
        raise NotImplementedError

    def items(self, trace: dict) -> int:
        """The items ``calls_per_item`` divides by: the types emitted."""
        return trace["emitted"]


class VerifyAll(Workload):
    name = "verify-all"

    def untraced(self) -> Pass:
        proc = self.runner.cli(VERIFY_ARGV)
        problems = _proc_problems(proc, "verify all", GOLDEN["verify-all"]["stdout"])
        return Pass(wall=proc.wall, scaled_wall=proc.scaled(), rss_mb=proc.rss_mb,
                    item_s=[proc.scaled()], attempted=1,
                    failed=1 if problems else 0, problems=problems,
                    outputs=[proc.exit, proc.stdout])

    def trace_spec(self) -> dict:
        return {"cli": [VERIFY_ARGV]}

    def traced_problems(self, result: dict, reference: Pass) -> list[str]:
        (run,) = result["outputs"]["cli"]
        problems = []
        if [run["exit"], run["stdout"]] != reference.outputs:
            problems.append("traced verify all: output differs from the untraced pass")
        # --machine verify all prints no type counts, so the golden count stands in
        emitted = result["trace"]["emitted"]
        if emitted != GOLDEN[self.name]["emitted"]:
            problems.append(f"traced verify all: {emitted} types emitted, "
                            f"want {GOLDEN[self.name]['emitted']}")
        return problems


class Census(Workload):
    name = "census-2cusp"

    def __init__(self, runner: Runner, seed: int):
        super().__init__(runner, seed)
        # DIR is kept across passes and runs and overwritten in place: on
        # ext4, deleting the 4,498 files costs the next pass that creates
        # them about 2 s more system time, which would land in the timing.
        # A DIR that does not hold this census is removed once.
        self.out_dir = WORK / "census"
        golden = GOLDEN[self.name]
        self.expected = next(int(line.split("=")[1])
                             for line in golden["enumerate_stdout"].splitlines()
                             if line.startswith("total="))
        self.marker = runner.workdir / "census.start"
        if self.out_dir.exists() and (
                _sha256_file(self.out_dir / "index.txt") != golden["index_sha256"]
                or len(list(self.out_dir.glob("*.poly3"))) != self.expected):
            shutil.rmtree(self.out_dir)

    def start_write(self) -> None:
        """Remove the index and mark the time, so that a stale index or
        type file left by an earlier pass cannot pass for this pass's."""
        (self.out_dir / "index.txt").unlink(missing_ok=True)
        self.marker.write_bytes(b"")

    def stale_problems(self, what: str) -> list[str]:
        """The DIR must hold exactly the census's type files, each written
        after ``start_write`` (both times come from the file system's clock)."""
        since = self.marker.stat().st_mtime_ns
        count = stale = 0
        with os.scandir(self.out_dir) as entries:
            for entry in entries:
                if entry.name.endswith(".poly3"):
                    count += 1
                    stale += entry.stat().st_mtime_ns < since
        problems = []
        if count != self.expected:
            problems.append(f"{what}: {count} type files, want {self.expected}")
        if stale:
            problems.append(f"{what}: {stale} type files not written by this pass")
        return problems

    def untraced(self) -> Pass:
        golden = GOLDEN[self.name]
        self.start_write()
        write_argv, check_argv = census_argv(self.out_dir)
        write = self.runner.cli(write_argv)
        index = _sha256_file(self.out_dir / "index.txt")
        write_problems = _proc_problems(write, "enumerate", golden["enumerate_stdout"])
        if index != golden["index_sha256"]:
            write_problems.append(f"enumerate: index.txt digest {index}")
        write_problems += self.stale_problems("enumerate")
        check = self.runner.cli(check_argv)
        check_problems = _proc_problems(check, "check-cache", golden["check_cache_stdout"])
        return Pass(wall=write.wall + check.wall, scaled_wall=write.scaled() + check.scaled(),
                    rss_mb=max(write.rss_mb, check.rss_mb),
                    item_s=[write.scaled(), check.scaled()], attempted=2,
                    failed=bool(write_problems) + bool(check_problems),
                    problems=write_problems + check_problems,
                    outputs=[write.exit, write.stdout, index, check.exit, check.stdout])

    def trace_spec(self) -> dict:
        self.start_write()
        return {"cli": census_argv(self.out_dir)}

    def traced_problems(self, result: dict, reference: Pass) -> list[str]:
        write, check = result["outputs"]["cli"]
        index = _sha256_file(self.out_dir / "index.txt")
        problems = []
        got = [write["exit"], write["stdout"], index, check["exit"], check["stdout"]]
        if got != reference.outputs:
            problems.append("traced census: output differs from the untraced pass")
        problems += self.stale_problems("traced enumerate")
        total = [line for line in reference.outputs[1].splitlines() if line.startswith("total=")]
        emitted = result["trace"]["emitted"]
        if total != [f"total={emitted}"]:
            problems.append(f"traced census: {emitted} types emitted, untraced output {total}")
        return problems


class AuditCorpus(Workload):
    name = "audit-corpus"

    def __init__(self, runner: Runner, seed: int):
        super().__init__(runner, seed)
        self.corpus_items = corpus.generate(seed)
        self.corpus_path = runner.workdir / "corpus.json"
        self.corpus_path.write_text(json.dumps(
            [{"name": it.name, "text": it.text, "variant": it.variant} for it in self.corpus_items]),
            encoding="utf-8")

    def item_problems(self, item: corpus.Item, rec: dict | None) -> list[str]:
        if rec is None or rec.get("name") != item.name:
            return [f"{item.name}: no result"]
        if "error" in rec:
            return [f"{item.name}: {rec['error']}"]
        problems = []
        if not rec["clean"]:
            problems.append(f"{item.name}: does not validate clean")
        # check_right_angled is the all-right acute check plus the face-size
        # floor (tests/test_andreev.py pins this relation)
        right, acute = rec["right_angled"], rec["andreev"]
        if acute == "outside-scope":
            expected = "outside-scope"
        else:
            expected = "pass" if acute == "pass" and not item.small_face else "fail"
        if right != expected:
            problems.append(f"{item.name}: right-angled {right}, all-right acute {acute}")
        if rec["code"] != rec["variant_code"]:
            problems.append(f"{item.name}: canonical code changes under relabelling")
        if item.must_pass and (right, acute) != ("pass", "pass"):
            problems.append(f"{item.name}: Löbell item does not pass")
        return problems

    def check(self, results: list[dict]) -> tuple[int, list[str], list]:
        failed, problems, outputs = 0, [], []
        for k, item in enumerate(self.corpus_items):
            rec = results[k] if k < len(results) else None
            item_problems = self.item_problems(item, rec)
            failed += bool(item_problems)
            problems += item_problems
            outputs.append({key: v for key, v in (rec or {}).items()
                            if key not in ("start", "seconds")})
        return failed, problems, outputs

    def untraced(self) -> Pass:
        result_path = self.runner.workdir / "audit.json"
        result_path.unlink(missing_ok=True)
        proc = self.runner.run([str(BENCH / "audit_child.py"), str(self.corpus_path),
                                str(result_path)])
        results = []
        problems = []
        if proc.exit != 0:
            problems.append(f"audit child: exit {proc.exit}: {proc.stderr.strip()[-300:]}")
        else:
            results = json.loads(result_path.read_text(encoding="utf-8"))
        failed, item_problems, outputs = self.check(results)
        return Pass(wall=proc.wall, scaled_wall=proc.scaled(), rss_mb=proc.rss_mb,
                    item_s=[proc.scaled(rec["start"], rec["start"] + rec["seconds"])
                            for rec in results],
                    attempted=len(self.corpus_items), failed=failed,
                    problems=problems + item_problems, outputs=outputs)

    def trace_spec(self) -> dict:
        return {"corpus": self.corpus_path.name}

    def traced_problems(self, result: dict, reference: Pass) -> list[str]:
        _, problems, got = self.check(result["outputs"]["items"])
        if got != reference.outputs:
            problems.append("traced audit: output differs from the untraced pass")
        return problems

    def items(self, trace: dict) -> int:
        return len(self.corpus_items)


WORKLOADS = {w.name: w for w in (VerifyAll, Census, AuditCorpus)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    label; the maximum when there are fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:g}"


def end_to_end(passes: list[Pass], setup: list[float], audit: bool) -> tuple[dict, list[str]]:
    """End-to-end metrics of a ``--trace 0`` run, from host-scaled times.
    The item percentiles are taken per pass and their median over the
    passes is reported, so that they do not depend on how many passes
    fit."""
    walls = [p.scaled_wall for p in passes]
    p50s, tails = [], []
    for p in passes:
        items = p.item_s or [p.scaled_wall]   # a failed audit child reports no items
        value, label = tail(items)
        p50s.append(statistics.median(items))
        tails.append(value)
    item_count = sum(len(p.item_s) for p in passes)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "items_per_s": (item_count / sum(walls), "1/s"),
        "item_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
        "item_tail_ms": (statistics.median(tails) * 1e3, "ms"),
    }
    notes = [f"passes={len(passes)}", f"items={item_count}",
             "pass_walls_s=" + ",".join(f"{p.wall:.3f}" for p in passes),
             "scaled_pass_walls_s=" + ",".join(f"{w:.3f}" for w in walls),
             f"item={'corpus_item' if audit else 'program_process'}",
             f"item_samples_per_pass={len(passes[0].item_s)}",
             f"item_tail_ms={label}_per_pass", f"setup_samples={len(setup)}"]
    return metrics, notes


MAPS_FUNCS = ("canonical_form", "split_vertex", "is_three_connected",
              "rotation_from_faces", "faces_of_rotation")
CORE_FUNCS = ("dual", "canonical_code", "parse_poly3", "to_poly3", "to_face_lattice")
ANDREEV_FUNCS = ("check_right_angled", "check_andreev", "prismatic_circuits", "adjacency")


def per_layer(trace: dict, items: int) -> dict:
    """Per-layer metrics of one traced pass."""
    funcs, levels = trace["functions"], trace["levels"]

    def fn(name: str) -> dict:
        return funcs.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    m = {}
    for n in (10, 11, 12):
        lv = levels.get(str(n), {"s": 0.0, "splits": 0, "classes": 0})
        m[f"enum3.level{n}.s"] = (lv["s"], "s")
        m[f"enum3.level{n}.splits"] = (lv["splits"], "count")
        m[f"enum3.level{n}.classes"] = (lv["classes"], "count")
    lv12 = levels.get("12", {"splits": 0, "classes": 0})
    m["enum3.growth.keep_ratio"] = (lv12["classes"] / lv12["splits"] if lv12["splits"] else 0.0,
                                    "ratio")
    m["enum3.enumerate_types.self_s"] = (fn("enum3.enumerate_types")["self_s"], "s")
    m["enum3.emitted"] = (trace["emitted"], "count")
    m["enum3.verify_lemma31.s"] = (fn("enum3.verify_lemma31")["s"], "s")
    m["enum3.two_cusp_minima.s"] = (fn("enum3.two_cusp_minima")["s"], "s")
    for name in MAPS_FUNCS:
        rec = fn(f"maps.{name}")
        m[f"maps.{name}.calls"] = (rec["calls"], "count")
        m[f"maps.{name}.self_s"] = (rec["self_s"], "s")
    rec = fn("maps.canonical_form")
    m["maps.canonical_form.us_per_call"] = (rec["s"] / rec["calls"] * 1e6 if rec["calls"] else 0.0,
                                            "us")
    rec = fn("core.validate")
    m["core.validate.calls"] = (rec["calls"], "count")
    m["core.validate.calls_per_item"] = (rec["calls"] / items if items else 0.0, "1/item")
    m["core.validate.self_s"] = (rec["self_s"], "s")
    for name in CORE_FUNCS:
        rec = fn(f"core.{name}")
        m[f"core.{name}.calls"] = (rec["calls"], "count")
        m[f"core.{name}.self_s"] = (rec["self_s"], "s")
    m["core.Polyhedron3.edges.calls"] = (fn("core.Polyhedron3.edges")["calls"], "count")
    for name in ANDREEV_FUNCS:
        rec = fn(f"andreev.{name}")
        m[f"andreev.{name}.calls"] = (rec["calls"], "count")
        m[f"andreev.{name}.self_s"] = (rec["self_s"], "s")
    for name in ("audit", "check_small"):
        m[f"nikulin.{name}.self_s"] = (fn(f"nikulin.{name}")["self_s"], "s")
    m["cusplink.verify_builtin.s"] = (fn("cusplink.verify_builtin")["s"], "s")
    m["bounds.n7_certificate.s"] = (fn("bounds.n7_certificate")["s"], "s")
    m["bounds.main_bounds.s"] = (fn("bounds.main_bounds")["s"], "s")
    for module, seconds in trace["modules"].items():
        m[f"{module}.self_s"] = (seconds, "s")
    m["trace.spans"] = (trace["spans"], "count")
    return m


def growth_problems(trace: dict, workload: str) -> list[str]:
    """Cross-checks of the growth counters: classes per level against
    A000109, and splits per level against sum C(deg, 2) over the parent
    level, which the tracer computes from the parent level's rotations."""
    problems = []
    levels = {int(k): v for k, v in trace["levels"].items()}
    for n, lv in sorted(levels.items()):
        if lv["classes"] != A000109.get(n):
            problems.append(f"level {n}: {lv['classes']} classes, A000109 gives {A000109.get(n)}")
        if n - 1 in levels and lv["splits"] != levels[n - 1]["child_splits"]:
            problems.append(f"level {n}: {lv['splits']} splits, parent level gives "
                            f"{levels[n - 1]['child_splits']}")
    want = GOLDEN.get(workload, {})
    if "top_level" in want:
        top = levels.get(want["top_level"])
        if top is None or top["splits"] != want["top_level_splits"]:
            problems.append(f"level {want['top_level']}: splits "
                            f"{top and top['splits']}, want {want['top_level_splits']}")
    return problems


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    # a benchmark checkout is no git repository; src_sha256 identifies the code
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text(encoding="utf-8").strip()
        commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "orthocusp").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".poly3"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest(), "cpu": cpu, "seed": seed}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(runner: Runner, samples: int) -> list[float]:
    """Host-scaled times of cold interpreter starts that import the CLI."""
    return [runner.run(["-c", "import orthocusp.cli"]).scaled() for _ in range(samples)]


def measure(workload: Workload, runner: Runner, seconds: float, trace: bool):
    """Run passes while one more fits in ``seconds``; return the metrics,
    the notes, the operations attempted and failed, the problems and the
    output digest."""
    # set-up is sampled before and after the passes, so that the median
    # spans the run rather than one moment of the host's load
    setup: list[float] = []
    if not trace:
        setup += measure_setup(runner, SETUP_SAMPLES // 2 + 1)
    passes: list[Pass] = []
    layers: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    # a further pass (or untraced/traced pair) starts only when one more of
    # median length still ends within ``seconds``; the first always runs
    start = time.perf_counter()
    lengths: list[float] = []
    while not lengths or (time.perf_counter() - start
                          + statistics.median(lengths) <= seconds):
        began = time.perf_counter()
        p = workload.untraced()
        passes.append(p)
        attempted += p.attempted
        failed += p.failed
        problems += p.problems
        if not trace:
            lengths.append(time.perf_counter() - began)
            continue
        (runner.workdir / "trace_spec.json").write_text(
            json.dumps({"workload": workload.name, **workload.trace_spec()}), encoding="utf-8")
        (runner.workdir / "trace.json").unlink(missing_ok=True)
        proc = runner.run([str(BENCH / "tracer.py"), str(runner.workdir),
                           str(WORK / f"spans-{workload.name}")])
        attempted += p.attempted
        if proc.exit != 0:
            failed += p.attempted
            problems.append(f"tracer: exit {proc.exit}: {proc.stderr.strip()[-300:]}")
            lengths.append(time.perf_counter() - began)
            continue
        result = json.loads((runner.workdir / "trace.json").read_text(encoding="utf-8"))
        t = result["trace"]
        traced_problems = (workload.traced_problems(result, p)
                           + growth_problems(t, workload.name))
        failed += min(p.attempted, len(traced_problems))
        problems += traced_problems
        layer = per_layer(t, workload.items(t))
        layer["trace.overhead_ratio"] = ((proc.wall - t["post_s"]) / p.wall, "ratio")
        layers.append(layer)
        lengths.append(time.perf_counter() - began)
    if not trace:
        setup += measure_setup(runner, SETUP_SAMPLES // 2)
    for k, p in enumerate(passes[1:], start=2):
        if p.outputs != passes[0].outputs:
            failed += p.attempted
            problems.append(f"pass {k}: outputs differ from pass 1")
    digest = hashlib.sha256(json.dumps(passes[0].outputs).encode()).hexdigest()
    if trace:
        metrics = {name: (statistics.median(layer[name][0] for layer in layers), layers[0][name][1])
                   for name in (layers[0] if layers else {})}
        notes = [f"pairs={len(passes)}"]
    else:
        metrics, notes = end_to_end(passes, setup, isinstance(workload, AuditCorpus))
    return metrics, notes, attempted, failed, problems, digest


def main() -> int:
    parser = argparse.ArgumentParser(description="orthocusp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "orthocusp" / "cli.py").is_file():
        print(f"benchmark: no program source at {SRC / 'orthocusp'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    HostSpeed.pin()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        runner = Runner(workdir, started, scaled=not args.trace)
        runner.run(["-c", "import orthocusp.cli"])   # compile bytecode before timing
        workload = WORKLOADS[args.workload](runner, args.seed)
        metrics, notes, attempted, failed, problems, digest = measure(
            workload, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " + " ".join(notes))
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        marker = "" if name in declared else "  (not in BENCHMARK.json)"
        print(f"metric {name} = {value:.6g} {unit}{marker}")
    print(f"metric fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(f"outputs_sha256={digest}")
    for problem in problems[:50]:
        print(f"FAILED {problem}")
    for name, unit in declared.items():
        if name not in metrics or metrics[name][1] != unit:
            raise SystemExit(f"benchmark: metric {name} [{unit}] not measured as declared")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
