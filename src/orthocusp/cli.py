"""Command-line front end.

Subcommands: ``validate``, ``andreev``, ``right-angled``, ``nikulin``,
``enumerate``, ``verify {lemma31|tables|minima|n7|all}``, ``bounds``.
Exit codes: 0 all checks pass, 1 a check failed or an internal error, 2
usage error, 3 I/O error.  Output is deterministic; ``--machine``
switches to line-oriented ``key=value`` records.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

from . import andreev, bounds, enum3, nikulin
from .core import (Poly3Error, RIGHT_ANGLED_PROFILE, canonical_code,
                   parse_poly3, to_face_lattice, validate)
from .data import FIXTURES, load_fixture

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class _Out:
    """Collects plain-text or machine-readable lines."""

    def __init__(self, machine: bool):
        self.machine = machine

    def text(self, line: str):
        if not self.machine:
            print(line)

    def kv(self, key: str, value):
        if self.machine:
            print(f"{key}={value}")

    def both(self, key: str, value, line: str):
        if self.machine:
            print(f"{key}={value}")
        else:
            print(line)


class _UnreadableInput(Exception):
    """An input file that cannot be read; ``main`` returns the I/O code."""


def _read_text(path) -> str:
    """The UTF-8 text of an input file.  A file that cannot be read raises
    ``_UnreadableInput``; text that does not decode is a ``Poly3Error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UnreadableInput(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise Poly3Error(f"{path} is not UTF-8 text: {exc}") from None


def _read_poly(path):
    return parse_poly3(_read_text(path))


def _cache_dir(explicit: str | None) -> Path | None:
    if explicit:
        return Path(explicit)
    env = os.environ.get("ORTHOCUSP_CACHE")
    return Path(env) if env else None


def _poly3_names(cache: Path) -> list[str]:
    """The sorted names ``cache.glob("*.poly3")`` gives, dot-files,
    directories and dangling symlinks included, from one listing; a
    ``cache`` that cannot be listed is ``_UnreadableInput``."""
    try:
        with os.scandir(cache) as entries:
            return sorted(e.name for e in entries if e.name.endswith(".poly3"))
    except OSError as exc:
        raise _UnreadableInput(f"cannot read {cache}: {exc}") from None


def _write_in_place(path: Path, parts) -> None:
    """Write the strings ``parts`` to ``path`` in turn, as UTF-8, without
    ``O_TRUNC``: a rewrite overwrites the file's blocks, not freeing and
    allocating them again, and then cuts the file at the end of the text."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for part in parts:
            f.write(part.encode("utf-8"))
        f.truncate()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, out: _Out) -> int:
    p = _read_poly(args.file)
    profile = RIGHT_ANGLED_PROFILE if args.right_angled_profile else None
    report = validate(p, profile)
    out.kv("valid", "yes" if report.valid else "no")
    out.kv("clean", "yes" if report.clean else "no")
    out.text(f"vertices={p.vertex_count} edges={p.edge_count} faces={p.face_count}"
             f" cusps={len(p.ideal_vertices)}")
    for line in report.lines():
        out.both("issue", line, line)
    if report.clean:
        out.text("ok")
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_andreev(args, out: _Out) -> int:
    p = _read_poly(args.file)
    if args.right_angled:
        angles = andreev.right_angles(p)
    else:
        angles = andreev.parse_angles(_read_text(args.angles))
    report = andreev.check_andreev(p, angles)
    for line in report.lines():
        out.text(line)
    out.kv("verdict", report.verdict)
    return EXIT_OK if report.verdict == "pass" else EXIT_CHECK_FAILED


def cmd_right_angled(args, out: _Out) -> int:
    p = _read_poly(args.file)
    report = andreev.check_right_angled(p)
    for line in report.lines():
        out.text(line)
    out.kv("verdict", report.verdict)
    return EXIT_OK if report.verdict == "pass" else EXIT_CHECK_FAILED


def cmd_nikulin(args, out: _Out) -> int:
    if args.file is None:
        if args.n is None or args.k is None or args.l is None:
            print("need --n/--k/--l or a POLY3 file", file=sys.stderr)
            return EXIT_USAGE
        try:
            value = nikulin.nikulin_rhs(args.n, args.k, args.l)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(value)
        return EXIT_OK
    if (args.n, args.k, args.l) != (None, None, None):
        print("give either --n/--k/--l or a POLY3 file, not both", file=sys.stderr)
        return EXIT_USAGE
    p = _read_poly(args.file)
    lattice = to_face_lattice(p)
    audit = nikulin.audit(lattice)
    out.text(f"a-vector: {[lattice.a(k) for k in range(3)]}, cusps: {lattice.cusp_count()}")
    for rec in audit.records:
        out.both(f"audit.k{rec.k}l{rec.l}",
                 f"{rec.average}<{rec.bound}:{'ok' if rec.strict_ok else 'boundary-or-violated'}",
                 f"average a_{rec.k}^{rec.l} = {rec.average}, strict bound {rec.bound}: "
                 + ("ok" if rec.strict_ok else "not strictly below"))
    small = nikulin.check_small(lattice)
    for line in small.lines():
        out.both("small", line, line)
    return EXIT_OK if small.passed else EXIT_CHECK_FAILED


def cmd_enumerate(args, out: _Out) -> int:
    filt = enum3.FILTER_RIGHT_ANGLED if args.realizable else enum3.FILTER_ALL
    spec = enum3.EnumSpec(args.faces, args.cusps, filt)
    cache = _cache_dir(args.out)
    if args.check_cache:
        if cache is None:
            print("--check-cache needs --out or ORTHOCUSP_CACHE", file=sys.stderr)
            return EXIT_USAGE
        return _check_cache(spec, cache, out)
    report = enum3.enumerate_types(spec)
    for line in report.lines():
        out.text(line)
    for n in sorted(report.counts_by_faces):
        out.kv(f"count.faces{n}", report.counts_by_faces[n])
    out.kv("total", len(report.types))
    if cache is not None:
        try:
            cache.mkdir(parents=True, exist_ok=True)
            written = set()
            for t in report.types:
                name = hashlib.sha256(t.code).hexdigest()[:12] + ".poly3"
                written.add(name)
                _write_in_place(cache / name,
                                (f"# faces={t.faces} code={t.code.hex()}\n", t.poly3))
            # hex keeps the order of the codes as bytes
            _write_in_place(cache / "index.txt",
                            (code.hex() + "\n" for code in sorted(report.codes)))
            # type files of an earlier census in DIR would fail --check-cache
            for name in _poly3_names(cache):
                if name not in written:
                    (cache / name).unlink()
        except OSError as exc:
            print(f"cannot write cache: {exc}", file=sys.stderr)
            return EXIT_IO
        out.text(f"wrote {len(report.types)} types to {cache}")
    return EXIT_OK


def _check_cache(spec, cache: Path, out: _Out) -> int:
    """Re-code every cached POLY3 file against ``index.txt``; the cache
    also fails when a file has more than ``spec.max_faces`` faces, other
    than ``spec.num_cusps`` ideal vertices or, under the right-angled
    filter, fails ``check_right_angled``."""
    stored = [line.strip() for line in _read_text(cache / "index.txt").splitlines()
              if line.strip()]
    recomputed = []
    in_spec = True
    for name in _poly3_names(cache):
        p = _read_poly(cache / name)
        recomputed.append(canonical_code(p).hex())
        in_spec = (in_spec and p.face_count <= spec.max_faces
                   and len(p.ideal_vertices) == spec.num_cusps
                   and (spec.filter != enum3.FILTER_RIGHT_ANGLED
                        or andreev.check_right_angled(p).verdict == "pass"))
    ok = (in_spec and sorted(stored) == sorted(recomputed)
          and len(stored) == len(set(stored)))
    out.both("cache", "ok" if ok else "MISMATCH",
             f"cache of {len(stored)} codes: {'verified' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bounds(args, out: _Out) -> int:
    cert = bounds.main_bounds()
    if not cert.complete:
        print(cert.refusal(), file=sys.stderr)
        return EXIT_CHECK_FAILED
    for line in cert.lines(expand=args.certificate and not out.machine):
        out.text(line)
    for n in sorted(cert.table):
        out.kv(f"bound.n{n}", cert.table[n])
    return EXIT_OK


def _stage(out: _Out, key: str, ok: bool, lines) -> int:
    """Print a verification stage: its lines as text, or ``key=ok|fail``
    in machine mode.  Returns 1 if the stage failed, else 0."""
    for line in lines:
        out.text(line)
    out.kv(key, "ok" if ok else "fail")
    return 0 if ok else 1


def cmd_verify(args, out: _Out) -> int:
    stage = args.stage
    failures = 0
    cert = bounds.main_bounds() if stage in ("tables", "n7", "all") else None
    if stage in ("tables", "all"):
        for name, rep in cert.n6.tables.items():
            line = f"{name}: {rep.rows} rows {'OK' if rep.ok else 'FAILED'}"
            failures += _stage(out, f"tables.{name}", rep.ok,
                               [line, *("  " + prob for prob in rep.problems)])
    if stage in ("lemma31", "all"):
        lemma31 = enum3.verify_lemma31()
        failures += _stage(out, "lemma31", lemma31.ok, lemma31.lines())
    if stage in ("minima", "all"):
        minima = enum3.two_cusp_minima()
        failures += _stage(out, "minima", minima.ok, minima.lines())
    if stage in ("n7", "all"):
        failures += _stage(out, "n7", cert.n7.complete, cert.n7.lines())
    if stage == "all":
        for name in FIXTURES:
            ok = validate(load_fixture(name)).valid
            failures += _stage(out, f"fixture.{name}", ok,
                               [f"fixture {name}: {'valid' if ok else 'INVALID'}"])
        ok = nikulin.nikulin_rhs(6, 3, 2) == 12 and nikulin.nikulin_rhs(7, 3, 2) == 9
        failures += _stage(out, "nikulin.pins", ok,
                           [f"face-average bound pins (12 and 9): {'ok' if ok else 'FAILED'}"])
        if not cert.complete:
            print(cert.refusal(), file=sys.stderr)
        ok = cert.complete and lemma31.ok and minima.ok  # the floors the table reads
        failures += _stage(out, "bounds.table", ok,
                           [f"lower-bound table: {'ok' if ok else 'FAILED'}"])
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthocusp",
        description="Exact combinatorial checks for right-angled hyperbolic polyhedra.")
    parser.add_argument("--machine", action="store_true",
                        help="emit line-oriented key=value records")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="structural validation of a POLY3 file")
    sp.set_defaults(handler=cmd_validate)
    sp.add_argument("file")
    sp.add_argument("--right-angled-profile", action="store_true",
                    help="also check degrees (finite 3, ideal 4)")

    sp = sub.add_parser("andreev", help="acute-angled realizability conditions")
    sp.set_defaults(handler=cmd_andreev)
    sp.add_argument("file")
    given = sp.add_mutually_exclusive_group(required=True)
    given.add_argument("--angles", help="angle file: lines 'angle: u v p q'")
    given.add_argument("--right-angled", action="store_true",
                       help="use the all-right assignment (every angle pi/2)")

    sp = sub.add_parser("right-angled", help="right-angled realizability conditions")
    sp.set_defaults(handler=cmd_right_angled)
    sp.add_argument("file")

    sp = sub.add_parser("nikulin", help="face-average bound or lattice audit")
    sp.set_defaults(handler=cmd_nikulin)
    sp.add_argument("file", nargs="?")
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--l", type=int)

    sp = sub.add_parser("enumerate", help="exhaustive enumeration of combinatorial types")
    sp.set_defaults(handler=cmd_enumerate)
    sp.add_argument("--faces", type=int, required=True)
    sp.add_argument("--cusps", type=int, default=0)
    sp.add_argument("--realizable", action="store_true",
                    help="keep only types passing the right-angled conditions")
    sp.add_argument("--out", help="directory for POLY3 files and index.txt; other"
                                  " *.poly3 files there are deleted"
                                  " (default: $ORTHOCUSP_CACHE if set)")
    sp.add_argument("--check-cache", action="store_true",
                    help="verify a previously written cache instead of regenerating")

    sp = sub.add_parser("verify", help="named verification pipelines")
    sp.set_defaults(handler=cmd_verify)
    sp.add_argument("stage", choices=("lemma31", "tables", "minima", "n7", "all"))

    sp = sub.add_parser("bounds", help="certified cusp-count lower bounds")
    sp.set_defaults(handler=cmd_bounds)
    sp.add_argument("--certificate", action="store_true",
                    help="expand the full arithmetic trail")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; the rendered report goes to stdout."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _Out(machine=args.machine))
    except _UnreadableInput as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except Poly3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except enum3.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # not caused by the arguments, e.g. a maps.MapError
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
