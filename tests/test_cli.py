from __future__ import annotations

import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from orthocusp import (bounds, canonical_code, cli, contract_edge, cusplink, enum3, maps,
                       to_poly3)
from orthocusp.cli import main
from orthocusp.data import FIXTURES, load_fixture

FIXTURE_DIR = resources.files("orthocusp.data")


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.poly3")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


BOUNDS_GOLDEN = ("n=6 c>=3\nn=7 c>=17\nn=8 c>=36\nn=9 c>=91\n"
                 "n=10 c>=254\nn=11 c>=741\nn=12 c>=2200\n")


def test_bounds_golden_output(capsys):
    code, out, _ = run(capsys, "bounds")
    assert code == 0
    assert out == BOUNDS_GOLDEN


CERTIFICATE_GOLDEN = BOUNDS_GOLDEN + (
    "\n"
    "dimension 6:\n"
    "  no cusp: every 2-face needs >= 5 edges, average must stay < 5: contradiction\n"
    "  one cusp: every 3-face needs >= 12 2-faces, average must stay < 12: contradiction\n"
    "  two cusps, case41: surplus 4 vs deficit 4 against strict average bound 12: contradiction\n"
    "  two cusps, table1: surplus 12 vs deficit 12 against strict average bound 12: contradiction\n"
    "  two cusps, table2: surplus 20 vs deficit 20 against strict average bound 12: contradiction\n"
    "dimension 7:\n"
    "  m=3: one-cusp 3-faces >= 210 > 0, polynomial 2374 >= 0 -> impossible\n"
    "  m=4: one-cusp 3-faces >= 195 > 0, polynomial 3274 >= 0 -> impossible\n"
    "  m=5: one-cusp 3-faces >= 180 > 0, polynomial 3994 >= 0 -> impossible\n"
    "  m=6: one-cusp 3-faces >= 165 > 0, polynomial 4534 >= 0 -> impossible\n"
    "  m=7: one-cusp 3-faces >= 150 > 0, polynomial 4894 >= 0 -> impossible\n"
    "  m=8: one-cusp 3-faces >= 135 > 0, polynomial 5074 >= 0 -> impossible\n"
    "  m=9: one-cusp 3-faces >= 120 > 0, polynomial 5074 >= 0 -> impossible\n"
    "  m=10: one-cusp 3-faces >= 105 > 0, polynomial 4894 >= 0 -> impossible\n"
    "  m=11: one-cusp 3-faces >= 90 > 0, polynomial 4534 >= 0 -> impossible\n"
    "  m=12: one-cusp 3-faces >= 75 > 0, polynomial 3994 >= 0 -> impossible\n"
    "  m=13: one-cusp 3-faces >= 60 > 0, polynomial 3274 >= 0 -> impossible\n"
    "  m=14: one-cusp 3-faces >= 45 > 0, polynomial 2374 >= 0 -> impossible\n"
    "  m=15: one-cusp 3-faces >= 30 > 0, polynomial 1294 >= 0 -> impossible\n"
    "  m=16: one-cusp 3-faces >= 15 > 0, polynomial 34 >= 0 -> impossible\n"
    "  cusp count >= 17\n"
    "dimensions 8..12:\n"
    "  n=8: 3*17 - 16 + 1 = 36\n"
    "  n=9: 3*36 - 18 + 1 = 91\n"
    "  n=10: 3*91 - 20 + 1 = 254\n"
    "  n=11: 3*254 - 22 + 1 = 741\n"
    "  n=12: 3*741 - 24 + 1 = 2200\n"
)


def test_bounds_certificate_expands(capsys):
    code, out, _ = run(capsys, "bounds", "--certificate")
    assert code == 0
    assert out == CERTIFICATE_GOLDEN


def test_bounds_machine_mode(capsys):
    code, out, _ = run(capsys, "--machine", "bounds")
    assert code == 0
    assert "bound.n12=2200" in out.splitlines()


def test_nikulin_pins(capsys):
    code, out, _ = run(capsys, "nikulin", "--n", "6", "--k", "3", "--l", "2")
    assert code == 0 and out == "12\n"
    code, out, _ = run(capsys, "nikulin", "--n", "7", "--k", "3", "--l", "2")
    assert code == 0 and out == "9\n"
    code, out, _ = run(capsys, "nikulin", "--n", "7", "--k", "2", "--l", "1")
    assert code == 0 and out == "14/3\n"


def test_nikulin_refuses_dimension_above_limit(capsys):
    """A dimension above 1000 exits 2 naming the limit, before computing a
    value too long to print; at 1000 the value still prints."""
    code, out, err = run(capsys, "nikulin", "--n", "20000", "--k", "10000", "--l", "1")
    assert code == 2 and out == ""
    assert err == "error: need n <= 1000, got n=20000\n"
    code, out, _ = run(capsys, "nikulin", "--n", "1000", "--k", "500", "--l", "1")
    assert code == 0 and out.strip().isdigit()


def test_nikulin_usage_error(capsys):
    code, _, err = run(capsys, "nikulin")
    assert code == 2
    assert "need" in err


def test_nikulin_refuses_file_with_numbers(capsys):
    for flag in ("--n", "--k", "--l"):
        code, out, err = run(capsys, "nikulin", fixture_path("cube"), flag, "6")
        assert code == 2
        assert out == ""
        assert "not both" in err


def test_nikulin_file_audit(capsys):
    code, out, _ = run(capsys, "nikulin", fixture_path("dodecahedron"))
    assert code == 0
    assert "a-vector: [20, 30, 12]" in out


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("cube"),
                       "--right-angled-profile")
    assert code == 0
    assert "ok" in out


def test_validate_degree_failure(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("square_pyramid"),
                       "--right-angled-profile")
    assert code == 1
    assert "degree vertex 4" in out


def test_validate_rejects_vertices_on_no_face(capsys, tmp_path):
    path = tmp_path / "sparse.poly3"
    path.write_text("poly3 v1\nvertices: 1000000\nideal:\n"
                    "face: 0 1 2\nface: 0 2 3\nface: 0 3 1\nface: 1 3 2\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert "line 2:" in err and "lies on no face" in err


def test_right_angled_cube_fails_listing_faces(capsys):
    code, out, _ = run(capsys, "right-angled", fixture_path("cube"))
    assert code == 1
    assert "face_size: 6 witness(es)" in out


def test_right_angled_dodecahedron(capsys):
    code, out, _ = run(capsys, "right-angled", fixture_path("dodecahedron"))
    assert code == 0
    assert out.startswith("verdict: pass")


def test_andreev_right_angled_flag(capsys):
    code, out, _ = run(capsys, "andreev", fixture_path("dodecahedron"),
                       "--right-angled")
    assert code == 0


def test_andreev_outside_scope(capsys):
    code, out, _ = run(capsys, "andreev", fixture_path("triangular_prism"),
                       "--right-angled")
    assert code == 1
    assert "outside-scope" in out


FILE_COMMANDS = {
    "validate": ("validate", "{path}", "--right-angled-profile"),
    "right-angled": ("right-angled", "{path}"),
    "andreev": ("andreev", "{path}", "--right-angled"),
    "nikulin": ("nikulin", "{path}"),
}
FILE_GOLDEN = json.loads((Path(__file__).parent / "cli_file_golden.json").read_text())


#: Parseable files that fail validation, by the ``_malformed`` entry each
#: is written from.
MALFORMED_FILES = {"reversed_tetrahedron": "edge-pairing", "torus": "euler",
                   "pinched": "embedding"}


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["contracted_dodecahedron"]
                         + sorted(MALFORMED_FILES) + ["subdivided_cube"])
@pytest.mark.parametrize("machine", [False, True], ids=["plain", "machine"])
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_file_command_goldens(capsys, tmp_path, cube, dodecahedron, subdivided_cube,
                              name, machine, command):
    """The whole stdout, stderr and exit code of each per-file check on each
    fixture, on the contracted dodecahedron, on three files that fail
    validation and on the subdivided cube (a warning and a degree-2
    vertex), as ``cli_file_golden.json`` pins them."""
    from test_core import _malformed

    if name in FIXTURES:
        path = fixture_path(name)
    else:
        written = {"contracted_dodecahedron": contract_edge(dodecahedron, dodecahedron.edges[0]),
                   "subdivided_cube": subdivided_cube}
        written.update((n, _malformed(cube)[code]) for n, code in MALFORMED_FILES.items())
        path = tmp_path / f"{name}.poly3"
        path.write_text(to_poly3(written[name]))
    argv = [arg.format(path=path) for arg in FILE_COMMANDS[command]]
    code, out, err = run(capsys, *(["--machine"] if machine else []), *argv)
    want = FILE_GOLDEN[f"{name} {'--machine ' if machine else ''}{command}"]
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


def test_andreev_angle_file(capsys, tmp_path, cube):
    angle_file = tmp_path / "angles.txt"
    angle_file.write_text("".join(f"angle: {u} {v} 1 2\n" for u, v in cube.edges))
    code, out, _ = run(capsys, "andreev", fixture_path("cube"),
                       "--angles", str(angle_file))
    assert code == 1
    assert "condition e: 3 witness(es)" in out


def test_andreev_angle_file_zero_denominator(capsys, tmp_path):
    angle_file = tmp_path / "angles.txt"
    angle_file.write_text("angle: 0 1 1 2\nangle: 0 1 1 0\n")
    code, out, err = run(capsys, "andreev", fixture_path("cube"),
                         "--angles", str(angle_file))
    assert code == 1
    assert out == ""
    assert err == "error: line 2: angle has a zero denominator\n"


def test_andreev_angle_file_repeated_edge(capsys, tmp_path, cube):
    """A second angle for one edge exits 1 naming its line; it is not
    evaluated as an override."""
    angle_file = tmp_path / "angles.txt"
    lines = [f"angle: {u} {v} 1 2\n" for u, v in cube.edges]
    u, v = cube.edges[0]
    angle_file.write_text("".join(lines) + f"angle: {v} {u} 1 3\n")
    code, out, err = run(capsys, "andreev", fixture_path("cube"),
                         "--angles", str(angle_file))
    assert code == 1
    assert out == ""
    assert err == (f"error: line {len(lines) + 1}: edge {(u, v)} "
                   "already has an angle on line 1\n")


def test_andreev_flags_are_exclusive(capsys, tmp_path, cube):
    """An angle file and ``--right-angled`` together are a usage error, not
    a run that drops the file."""
    angle_file = tmp_path / "angles.txt"
    angle_file.write_text("".join(f"angle: {u} {v} 1 3\n" for u, v in cube.edges))
    with pytest.raises(SystemExit) as exc:
        main(["andreev", fixture_path("cube"), "--angles", str(angle_file), "--right-angled"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_andreev_needs_angles_or_right_angled(capsys):
    """With neither an angle file nor ``--right-angled`` there is nothing to
    check: a usage error from the parser, before the file is read."""
    with pytest.raises(SystemExit) as exc:
        main(["andreev", fixture_path("cube")])
    assert exc.value.code == 2
    assert "one of the arguments --angles --right-angled is required" in capsys.readouterr().err


def test_andreev_angle_file_stray_edge(capsys, tmp_path, cube):
    """An angle on a vertex pair that is no edge exits 1 naming the first
    such pair, here a diagonal of the bottom face."""
    angle_file = tmp_path / "angles.txt"
    angle_file.write_text("".join(f"angle: {u} {v} 1 2\n" for u, v in cube.edges)
                          + "angle: 2 0 1 2\nangle: 0 999 1 2\n")
    code, out, err = run(capsys, "andreev", fixture_path("cube"),
                         "--angles", str(angle_file))
    assert code == 1
    assert out == ""
    assert err == "error: angle given for (0, 2), which is not an edge\n"


#: A triangular prism with vertex 0 truncated (new triangle 6 0 7): the
#: side faces 2, 3, 4 and the faces 0, 2, 3 around the cut are prismatic
#: 3-circuits.
TRUNCATED_PRISM = """poly3 v1
vertices: 8
ideal:
face: 0 6 2 1
face: 3 4 5
face: 7 0 1 4 3
face: 2 6 7 3 5
face: 1 2 5 4
face: 6 0 7
"""

#: Circuit 2, 3, 4 sums to exactly 1 and circuit 0, 2, 3 to 59/60; vertices
#: 0, 3, 4 and 5 fall short of 1.
TRUNCATED_PRISM_ANGLES = {(0, 1): "1 4", (0, 6): "1 3", (0, 7): "1 3", (1, 2): "3 7",
                          (1, 4): "1 3", (2, 5): "1 3", (2, 6): "2 5", (3, 4): "1 4",
                          (3, 5): "1 4", (3, 7): "1 3", (4, 5): "1 4", (6, 7): "1 2"}

ANDREEV_WITNESS_GOLDENS = {
    "truncated-prism": (1, "verdict: fail\n"
                           "condition a: 4 witness(es)\n"
                           "  (0, Fraction(11, 12))\n"
                           "  (3, Fraction(5, 6))\n"
                           "  (4, Fraction(5, 6))\n"
                           "  (5, Fraction(5, 6))\n"
                           "condition b: ok\n"
                           "condition c: 1 witness(es)\n"
                           "  ((2, 3, 4), Fraction(1, 1))\n"
                           "condition d: ok\n"
                           "condition e: ok\n"),
    "dodecahedron-short": (1, "verdict: fail\n"
                              "condition a: 20 witness(es)\n"
                              "  (0, Fraction(11, 12))\n"
                              "  (1, Fraction(5, 6))\n"
                              "  (2, Fraction(1, 1))\n"
                              "  (3, Fraction(1, 1))\n"
                              "  (4, Fraction(1, 1))\n"
                              "  (5, Fraction(1, 1))\n"
                              "  (6, Fraction(1, 1))\n"
                              "  (7, Fraction(1, 1))\n"
                              "  (8, Fraction(11, 12))\n"
                              "  (9, Fraction(5, 6))\n"
                              "  (10, Fraction(1, 1))\n"
                              "  (11, Fraction(1, 1))\n"
                              "  (12, Fraction(1, 1))\n"
                              "  (13, Fraction(1, 1))\n"
                              "  (14, Fraction(1, 1))\n"
                              "  (15, Fraction(1, 1))\n"
                              "  (16, Fraction(1, 1))\n"
                              "  (17, Fraction(1, 1))\n"
                              "  (18, Fraction(1, 1))\n"
                              "  (19, Fraction(1, 1))\n"
                              "condition b: ok\n"
                              "condition c: ok\n"
                              "condition d: ok\n"
                              "condition e: ok\n"),
    "dodecahedron-third": (1, "verdict: fail\n"
                              "condition a: 20 witness(es)\n"
                              "  (0, Fraction(1, 1))\n"
                              "  (1, Fraction(1, 1))\n"
                              "  (2, Fraction(1, 1))\n"
                              "  (3, Fraction(1, 1))\n"
                              "  (4, Fraction(1, 1))\n"
                              "  (5, Fraction(1, 1))\n"
                              "  (6, Fraction(1, 1))\n"
                              "  (7, Fraction(1, 1))\n"
                              "  (8, Fraction(1, 1))\n"
                              "  (9, Fraction(1, 1))\n"
                              "  (10, Fraction(1, 1))\n"
                              "  (11, Fraction(1, 1))\n"
                              "  (12, Fraction(1, 1))\n"
                              "  (13, Fraction(1, 1))\n"
                              "  (14, Fraction(1, 1))\n"
                              "  (15, Fraction(1, 1))\n"
                              "  (16, Fraction(1, 1))\n"
                              "  (17, Fraction(1, 1))\n"
                              "  (18, Fraction(1, 1))\n"
                              "  (19, Fraction(1, 1))\n"
                              "condition b: ok\n"
                              "condition c: ok\n"
                              "condition d: ok\n"
                              "condition e: ok\n"),
}


@pytest.mark.parametrize("machine", [False, True])
@pytest.mark.parametrize("case", sorted(ANDREEV_WITNESS_GOLDENS))
def test_andreev_angle_file_goldens(capsys, tmp_path, dodecahedron, case, machine):
    """Non-right angle files with (a) and (c) witnesses, the dodecahedron
    ones with finite vertices summing to exactly 1, which (a) flags since
    a finite vertex needs a sum above 1: pinned stdout and exit code, in
    plain and ``--machine`` mode."""
    if case == "truncated-prism":
        poly = tmp_path / "truncated_prism.poly3"
        poly.write_text(TRUNCATED_PRISM)
        angles = TRUNCATED_PRISM_ANGLES
    else:
        poly = fixture_path("dodecahedron")
        short = {(0, 8): "1 4", (1, 9): "1 6"} if case == "dodecahedron-short" else {}
        angles = {e: short.get(e, "1 3") for e in dodecahedron.edges}
    angle_file = tmp_path / "angles.txt"
    angle_file.write_text("".join(f"angle: {u} {v} {pq}\n" for (u, v), pq in angles.items()))
    argv = ["andreev", str(poly), "--angles", str(angle_file)]
    code, out, err = run(capsys, *(["--machine"] + argv if machine else argv))
    want_code, want_out = ANDREEV_WITNESS_GOLDENS[case]
    verdict = want_out.split("\n", 1)[0].split(": ")[1]
    assert (code, out, err) == (want_code, f"verdict={verdict}\n" if machine else want_out, "")


def test_missing_file_io_error(capsys):
    """An unreadable input file returns the I/O code, as every other
    outcome returns its code, with one line on stderr."""
    code, out, err = run(capsys, "validate", "/no/such/file.poly3")
    assert code == 3
    assert out == ""
    assert err.startswith("cannot read /no/such/file.poly3: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", [None, "--angles"])
def test_undecodable_input_is_an_input_error(capsys, tmp_path, flag):
    """A POLY3 or angle file that is not UTF-8 exits 1 with ``error:``."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff")
    argv = ["andreev", fixture_path("cube"), "--angles", str(bad)] if flag else ["validate", str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")


def test_cache_check_input_errors(capsys, tmp_path):
    """A cached file that is not UTF-8 exits 1 with ``error:``; one that
    cannot be read, here a directory, exits 3 with ``cannot read``, and
    ``enumerate --out`` cannot delete it and exits 3 too."""
    out_dir = tmp_path / "types"
    run(capsys, "enumerate", "--faces", "6", "--cusps", "0", "--out", str(out_dir))
    check = ["enumerate", "--faces", "6", "--cusps", "0", "--out", str(out_dir), "--check-cache"]
    bad = out_dir / "zz.poly3"
    bad.write_bytes(b"poly3 v1\n\xff\n")
    code, _, err = run(capsys, *check)
    assert code == 1
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")
    bad.unlink()
    bad.mkdir()
    eisdir = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{bad}'"
    code, out, err = run(capsys, *check)
    assert (code, out, err) == (3, "", f"cannot read {bad}: {eisdir}\n")
    code, _, err = run(capsys, *check[:-1])
    assert (code, err) == (3, f"cannot write cache: {eisdir}\n")


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    assert "table1: 12 rows OK" in out
    assert "table2: 20 rows OK" in out
    assert "case41: 4 rows OK" in out


def test_verify_n7(capsys):
    code, out, _ = run(capsys, "verify", "n7")
    assert code == 0
    assert "cusp count >= 17" in out


VERIFY_ALL_GOLDEN = (
    "table1: 12 rows OK\n"
    "table2: 20 rows OK\n"
    "case41: 4 rows OK\n"
    "0 types @ <=11; 1 type @ 12\n"
    "face sizes: [4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]\n"
    "cusp-incident face sizes around the cusp: (5, 4, 5, 4)\n"
    "the two quadrilaterals are not adjacent\n"
    "canonical code matches the contracted dodecahedron: yes\n"
    "class t=0: floor 8, first accepted type at 8\n"
    "class t=1: floor 9, first accepted type at 9\n"
    "class t=2: floor 10, first accepted type at 10\n"
    "m=3: one-cusp 3-faces >= 210 > 0, polynomial 2374 >= 0 -> impossible\n"
    "m=4: one-cusp 3-faces >= 195 > 0, polynomial 3274 >= 0 -> impossible\n"
    "m=5: one-cusp 3-faces >= 180 > 0, polynomial 3994 >= 0 -> impossible\n"
    "m=6: one-cusp 3-faces >= 165 > 0, polynomial 4534 >= 0 -> impossible\n"
    "m=7: one-cusp 3-faces >= 150 > 0, polynomial 4894 >= 0 -> impossible\n"
    "m=8: one-cusp 3-faces >= 135 > 0, polynomial 5074 >= 0 -> impossible\n"
    "m=9: one-cusp 3-faces >= 120 > 0, polynomial 5074 >= 0 -> impossible\n"
    "m=10: one-cusp 3-faces >= 105 > 0, polynomial 4894 >= 0 -> impossible\n"
    "m=11: one-cusp 3-faces >= 90 > 0, polynomial 4534 >= 0 -> impossible\n"
    "m=12: one-cusp 3-faces >= 75 > 0, polynomial 3994 >= 0 -> impossible\n"
    "m=13: one-cusp 3-faces >= 60 > 0, polynomial 3274 >= 0 -> impossible\n"
    "m=14: one-cusp 3-faces >= 45 > 0, polynomial 2374 >= 0 -> impossible\n"
    "m=15: one-cusp 3-faces >= 30 > 0, polynomial 1294 >= 0 -> impossible\n"
    "m=16: one-cusp 3-faces >= 15 > 0, polynomial 34 >= 0 -> impossible\n"
    "cusp count >= 17\n"
    "fixture tetrahedron: valid\n"
    "fixture cube: valid\n"
    "fixture square_pyramid: valid\n"
    "fixture triangular_prism: valid\n"
    "fixture dodecahedron: valid\n"
    "face-average bound pins (12 and 9): ok\n"
    "lower-bound table: ok\n"
)


def test_verify_all(capsys):
    # full pipeline; reuses the process-wide triangulation cache, so this is
    # cheap when the enumeration fixtures have already run
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert out == VERIFY_ALL_GOLDEN


VERIFY_ALL_MACHINE_GOLDEN = (
    "tables.table1=ok\n"
    "tables.table2=ok\n"
    "tables.case41=ok\n"
    "lemma31=ok\n"
    "minima=ok\n"
    "n7=ok\n"
    "fixture.tetrahedron=ok\n"
    "fixture.cube=ok\n"
    "fixture.square_pyramid=ok\n"
    "fixture.triangular_prism=ok\n"
    "fixture.dodecahedron=ok\n"
    "nikulin.pins=ok\n"
    "bounds.table=ok\n"
)


def test_verify_all_machine_golden(capsys):
    code, out, _ = run(capsys, "--machine", "verify", "all")
    assert code == 0
    assert out == VERIFY_ALL_MACHINE_GOLDEN


def test_verify_all_reports_a_lowered_floor(capsys, monkeypatch):
    """A t=2 floor of 9 is never reached by the census and leaves table2
    short, so both stages fail and ``verify all`` still prints every line."""
    monkeypatch.setitem(enum3.TWO_CUSP_FLOORS, 2, 9)
    code, out, err = run(capsys, "--machine", "verify", "all")
    assert code == 1
    assert out == VERIFY_ALL_MACHINE_GOLDEN.replace(
        "minima=ok", "minima=fail").replace("bounds.table=ok", "bounds.table=fail")
    assert "table2: surplus 20 vs deficit 30" in err


def test_verify_all_builds_the_certificate_once(capsys, monkeypatch):
    """``verify all`` derives each case's rows once, and builds the
    dimension-7 certificate and the whole certificate once."""
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(cusplink, "derive_rows")
    counted(bounds, "n7_certificate")
    counted(bounds, "main_bounds")
    assert run(capsys, "--machine", "verify", "all")[:2] == (0, VERIFY_ALL_MACHINE_GOLDEN)
    assert sorted(calls) == ["derive_rows"] * 3 + ["main_bounds", "n7_certificate"]


def test_verify_all_table_rests_on_the_census_reports(capsys, monkeypatch):
    """A census report that fails, here a two-cusp type below its floor or
    a failing one-cusp check, fails ``bounds.table`` as well."""
    minima = enum3.two_cusp_minima()
    lemma31 = enum3.verify_lemma31()
    for name, stage, report in (
            ("two_cusp_minima", "minima", replace(minima, violations=[(2, 9)])),
            ("verify_lemma31", "lemma31", replace(lemma31, face_sizes=[]))):
        assert not report.ok
        with monkeypatch.context() as mp:
            mp.setattr(enum3, name, lambda: report)
            code, out, err = run(capsys, "--machine", "verify", "all")
        assert code == 1
        assert out == VERIFY_ALL_MACHINE_GOLDEN.replace(
            f"{stage}=ok", f"{stage}=fail").replace("bounds.table=ok", "bounds.table=fail")
        assert err == ""


def test_a_row_outside_the_lemma_is_refused(capsys, monkeypatch):
    """A derived row whose members share one hyperface fails table2's
    check; ``bounds`` refuses naming the case, and ``verify all`` fails
    both the case and the table."""
    derive_rows = cusplink.derive_rows
    bad = (frozenset({1, 6, 8}), frozenset({1, 6, 9}), frozenset({1, 8, 9}))

    def with_bad_row(t, count):
        return derive_rows(t, count) + ([bad] if t == 2 else [])

    monkeypatch.setattr(cusplink, "derive_rows", with_bad_row)
    code, out, err = run(capsys, "bounds")
    assert (code, out) == (1, "")
    assert "table2: row 20: members share [1], not two hyperfaces\n" in err
    code, out, err2 = run(capsys, "--machine", "verify", "all")
    assert code == 1 and err2 == err
    assert out == VERIFY_ALL_MACHINE_GOLDEN.replace(
        "tables.table2=ok", "tables.table2=fail").replace("bounds.table=ok", "bounds.table=fail")


def test_bounds_refusal_words_a_lowered_one_cusp_floor(capsys, monkeypatch):
    monkeypatch.setattr(enum3, "ONE_CUSP_FLOOR", 11)
    code, out, err = run(capsys, "bounds")
    assert (code, out) == (1, "")
    assert "needs >= 11 2-faces, average must stay < 12: no contradiction\n" in err


def test_verify_n7_fails_on_a_negative_polynomial(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "n7_preform", lambda l, m: -1)
    code, out, _ = run(capsys, "verify", "n7")
    assert code == 1
    assert "impossible" not in out
    assert out.startswith("m=3: one-cusp 3-faces >= 210 > 0, polynomial -2 < 0 -> not excluded\n")
    assert out.endswith("\ncusp count >= 17 not shown\n")


@pytest.mark.parametrize("argv", [["bounds"], ["bounds", "--certificate"]])
def test_bounds_reports_a_refused_certificate(capsys, monkeypatch, argv):
    """With the t=2 floor lowered to 9, table2 refuses: ``bounds`` prints
    the refusal on stderr and no table, and exits 1 without a traceback."""
    monkeypatch.setitem(enum3.TWO_CUSP_FLOORS, 2, 9)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "table2: surplus 20 vs deficit 30" in err


def test_cli_import_loads_no_process_pool():
    """Enumeration runs in one process and no module imports
    ``concurrent.futures``, so loading the CLI does not pull it in."""
    import orthocusp

    env = dict(os.environ, PYTHONPATH=str(Path(orthocusp.__file__).parents[1]))
    probe = "import sys, orthocusp.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_verify_has_no_budget_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--budget", "7"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_verify_lemma31_output(capsys):
    code, out, _ = run(capsys, "verify", "lemma31")
    assert code == 0
    assert out.startswith("0 types @ <=11; 1 type @ 12")


def test_enumerate_and_cache_roundtrip(capsys, tmp_path):
    out_dir = tmp_path / "types"
    code, out, _ = run(capsys, "enumerate", "--faces", "8", "--cusps", "2",
                       "--realizable", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "index.txt").exists()
    poly_files = list(out_dir.glob("*.poly3"))
    index = [l for l in (out_dir / "index.txt").read_text().splitlines() if l]
    assert len(poly_files) == len(index) == 1

    code, out, _ = run(capsys, "enumerate", "--faces", "8", "--cusps", "2",
                       "--realizable", "--out", str(out_dir), "--check-cache")
    assert code == 0
    assert "verified" in out


CENSUS_8_2 = ["enumerate", "--faces", "8", "--cusps", "2", "--out"]
CENSUS_8_2_SHA256 = "313d348ff8f4e4c16571dd7fce6bc3dbeb41ea450ad24f8bd66df3934cbbd6ab"


def census_digest(out_dir: Path) -> str:
    """SHA-256 over the sorted file names in ``out_dir``, each followed by
    a newline and the file's bytes."""
    names = sorted(path.name for path in out_dir.iterdir())
    assert len(names) == 75
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\n" + (out_dir / name).read_bytes())
    return digest.hexdigest()


def test_census_files_pinned(capsys, tmp_path):
    """The files of the 8-face two-cusp census are pinned byte for byte.
    The face cycles written come from the dual cycles, so this pins their
    starting faces too."""
    out_dir = tmp_path / "types"
    code, _, _ = run(capsys, *CENSUS_8_2, str(out_dir))
    assert code == 0
    assert census_digest(out_dir) == CENSUS_8_2_SHA256


def test_census_rewrite_overwrites_in_place(capsys, tmp_path):
    """Writing a census over its own damaged files restores their exact
    bytes: a padded file is cut back, a cut one and a junk ``index.txt``
    are filled in again.  A rewritten file keeps its permission bits and a
    missing one gets the mode ``Path.write_text`` gives."""
    out_dir = tmp_path / "types"
    assert run(capsys, *CENSUS_8_2, str(out_dir))[0] == 0
    padded, cut, kept, gone = sorted(out_dir.glob("*.poly3"))[:4]
    padded.write_bytes(padded.read_bytes() + b"# trailing junk\n" * 50)
    cut.write_bytes(cut.read_bytes()[:20])
    (out_dir / "index.txt").write_text("not a code\n")
    kept.chmod(0o604)
    gone.unlink()
    umask = os.umask(0o027)
    try:
        (tmp_path / "reference").write_text("x")
        code, out, err = run(capsys, *CENSUS_8_2, str(out_dir))
    finally:
        os.umask(umask)
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote 74 types to {out_dir}\n")
    assert census_digest(out_dir) == CENSUS_8_2_SHA256
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert gone.stat().st_mode == (tmp_path / "reference").stat().st_mode
    assert run(capsys, "--machine", *CENSUS_8_2, str(out_dir), "--check-cache")[:2] == (
        0, "cache=ok\n")


def test_poly3_names_match_the_glob(tmp_path, monkeypatch):
    """The listing of cached type files gives the names and order of
    ``DIR.glob("*.poly3")``, dot-files, directories and dangling symlinks
    included; a directory that may not be listed has none."""
    for name in (".h.poly3", "B.POLY3", "c.poly3.bak", "c.poly3", "Z.poly3"):
        (tmp_path / name).write_text("")
    (tmp_path / "d.poly3").mkdir()
    (tmp_path / "m.poly3").symlink_to(tmp_path / "nowhere")
    names = cli._poly3_names(tmp_path)
    assert names == sorted(path.name for path in tmp_path.glob("*.poly3"))
    assert names == [".h.poly3", "Z.poly3", "c.poly3", "d.poly3", "m.poly3"]

    def refuse(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(os, "scandir", refuse)
    with pytest.raises(cli._UnreadableInput, match=f"cannot read {tmp_path}: "):
        cli._poly3_names(tmp_path)


@pytest.mark.parametrize("check", [False, True])
def test_unlistable_cache_is_an_io_error(capsys, tmp_path, monkeypatch, check):
    """A census directory that cannot be listed exits 3 with ``cannot read
    DIR``: ``--check-cache`` does not report a mismatch, and ``--out``
    does not pass over the stale files it could not find."""
    out_dir = tmp_path / "types"
    argv = ["enumerate", "--faces", "7", "--cusps", "0", "--out", str(out_dir)]
    assert run(capsys, *argv)[0] == 0
    scandir = os.scandir

    def refuse(path="."):
        if Path(path) == out_dir:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refuse)
    code, _, err = run(capsys, *argv, *(["--check-cache"] if check else []))
    eacces = f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{out_dir}'"
    assert (code, err) == (3, f"cannot read {out_dir}: {eacces}\n")


def test_cache_check_detects_tampering(capsys, tmp_path):
    """The check fails a forged index, two type files whose contents are
    swapped, and a forged ``code=`` in a file's first line; with the
    files put back it passes."""
    out_dir = tmp_path / "types"
    census = ["--machine", "enumerate", "--faces", "7", "--cusps", "0", "--out", str(out_dir)]
    run(capsys, *census)
    check = [*census, "--check-cache"]
    index = (out_dir / "index.txt").read_text()
    (out_dir / "index.txt").write_text("deadbeef\n")
    assert run(capsys, *check)[:2] == (1, "cache=MISMATCH\n")
    (out_dir / "index.txt").write_text(index)
    first, second = sorted(out_dir.glob("*.poly3"))[:2]
    texts = first.read_text(), second.read_text()
    first.write_text(texts[1])
    second.write_text(texts[0])
    assert run(capsys, *check)[:2] == (1, "cache=MISMATCH\n")
    first.write_text(texts[0])
    second.write_text(texts[1])
    assert run(capsys, *check)[:2] == (0, "cache=ok\n")
    header, rest = texts[0].split("\n", 1)
    first.write_text(header.split("code=")[0] + "code=00\n" + rest)
    assert run(capsys, *check)[:2] == (1, "cache=MISMATCH\n")


def test_cache_check_refuses_oversized_polyhedron(capsys, tmp_path, k_gonal_prism):
    out_dir = tmp_path / "types"
    out_dir.mkdir()
    (out_dir / "big.poly3").write_text(to_poly3(k_gonal_prism(129)))
    (out_dir / "index.txt").write_text("00\n")
    code, _, err = run(capsys, "enumerate", "--faces", "7", "--cusps", "0",
                       "--out", str(out_dir), "--check-cache")
    assert code == 1
    assert "at most 252 vertices, got 258" in err


@pytest.mark.parametrize("faces, cusps", [("6", "1"), ("7", "0")])
def test_cache_check_refuses_other_spec(capsys, tmp_path, faces, cusps):
    """A cache of the 1-cusp types up to 7 faces fails a check for fewer
    faces or another cusp count, though its codes match its index."""
    out_dir = tmp_path / "types"
    run(capsys, "enumerate", "--faces", "7", "--cusps", "1", "--out", str(out_dir))
    code, out, _ = run(capsys, "enumerate", "--faces", "7", "--cusps", "1",
                       "--out", str(out_dir), "--check-cache")
    assert code == 0 and out == "cache of 11 codes: verified\n"
    code, out, _ = run(capsys, "--machine", "enumerate", "--faces", faces, "--cusps", cusps,
                       "--out", str(out_dir), "--check-cache")
    assert code == 1
    assert out == "cache=MISMATCH\n"


@pytest.mark.parametrize("faces, cusps, realizable, verdict", [
    ("7", "1", False, "MISMATCH"), ("8", "2", True, "ok")])
def test_cache_check_under_realizable(capsys, tmp_path, faces, cusps, realizable, verdict):
    """With --realizable the check fails a cache holding a type that fails
    the right-angled conditions, here the 11 unfiltered 1-cusp types up to
    7 faces (the realizable census there is empty), and passes the cache
    of a realizable census."""
    out_dir = tmp_path / "types"
    flags = ["--realizable"] if realizable else []
    run(capsys, "enumerate", "--faces", faces, "--cusps", cusps, *flags, "--out", str(out_dir))
    code, out, _ = run(capsys, "--machine", "enumerate", "--faces", faces, "--cusps", cusps,
                       "--realizable", "--out", str(out_dir), "--check-cache")
    assert out == f"cache={verdict}\n"
    assert code == (0 if verdict == "ok" else 1)


def _not_three_connected_one_cusp_type():
    """The dual of the first 1-cusp candidate that the pick verdict calls
    not 3-connected: two faces opposite at its cusp share a second
    vertex."""
    for n in range(4, 9):
        enum3.triangulations(n)
        for rot, group in enum3._LEVELS[n]:
            for _, canon, three_connected in enum3._candidates(rot, group, 1, False):
                if not three_connected:
                    return enum3._dualize(canon, *maps.faces_of_rotation(canon))


@pytest.mark.parametrize("faces, cusps, forged", [
    ("6", "0", lambda: load_fixture("square_pyramid")),
    ("8", "1", _not_three_connected_one_cusp_type)], ids=["square-pyramid", "not-3-connected"])
def test_cache_check_refuses_a_type_no_census_holds(capsys, tmp_path, faces, cusps, forged):
    """A census with one more file, named and headed for its code and
    listed in ``index.txt``, within the face budget and with the requested
    cusps, fails the check when the census cannot hold its type: the
    square pyramid, whose apex of degree 4 is not a cusp, or a type whose
    dual map is not 3-connected."""
    out_dir = tmp_path / "types"
    census = ["--machine", "enumerate", "--faces", faces, "--cusps", cusps, "--out", str(out_dir)]
    run(capsys, *census)
    assert run(capsys, *census, "--check-cache")[:2] == (0, "cache=ok\n")
    p = forged()
    assert p.face_count <= int(faces) and len(p.ideal_vertices) == int(cusps)
    code = canonical_code(p)
    name, header = cli._type_file(code, p.face_count)
    assert not (out_dir / name).exists()
    (out_dir / name).write_text(header + to_poly3(p))
    with open(out_dir / "index.txt", "a") as index:
        index.write(code.hex() + "\n")
    assert run(capsys, *census, "--check-cache")[:2] == (1, "cache=MISMATCH\n")


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    """``ORTHOCUSP_CACHE`` names no census directory: plain ``enumerate``
    only counts, leaving that directory as it was, and ``--check-cache``
    still needs ``--out``."""
    env_dir = tmp_path / "envcache"
    env_dir.mkdir()
    (env_dir / "mine.poly3").write_text("kept\n")
    monkeypatch.setenv("ORTHOCUSP_CACHE", str(env_dir))
    code, out, _ = run(capsys, "enumerate", "--faces", "6", "--cusps", "0")
    assert code == 0 and out.splitlines()[-1] == "total: 4"
    assert [path.name for path in env_dir.iterdir()] == ["mine.poly3"]
    assert (env_dir / "mine.poly3").read_text() == "kept\n"
    code, _, err = run(capsys, "enumerate", "--faces", "6", "--cusps", "0", "--check-cache")
    assert (code, err) == (2, "--check-cache needs --out\n")


def test_enumerate_out_removes_stale_type_files(capsys, tmp_path):
    """A census written over a larger one in the same DIR deletes the type
    files it did not write, so its cache check passes; writing the same
    census again deletes nothing.  The check still runs at 13 faces, where
    the two-cusp census itself is refused."""
    out_dir = tmp_path / "types"
    census = ["--machine", "enumerate", "--cusps", "2", "--out", str(out_dir)]
    written = []
    for faces in ("8", "7", "7"):
        code, out, _ = run(capsys, *census, "--faces", faces)
        assert code == 0
        written.append(sorted(path.name for path in out_dir.glob("*.poly3")))
        assert f"total={len(written[-1])}" in out.splitlines()
    assert len(written[0]) == 74
    assert written[1] == written[2] and set(written[1]) < set(written[0])
    code, out, _ = run(capsys, *census, "--faces", "7", "--check-cache")
    assert (code, out) == (0, "cache=ok\n")
    code, out, _ = run(capsys, *census, "--faces", "13", "--check-cache")
    assert (code, out) == (0, "cache=ok\n")


def test_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--faces", "12", "--cap", "10"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_enumerate_over_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--faces", "16", "--cusps", "0")
    assert code == 2
    assert "cap" in err


def test_enumerate_tallies_nonpolyhedral(capsys):
    """Plain ``enumerate`` of the 8-face two-cusp census prints the types
    per face count, the 43 complexes that are not 3-connected and the
    total, and writes no census."""
    code, out, _ = run(capsys, "enumerate", "--faces", "8", "--cusps", "2")
    assert code == 0
    assert out.splitlines() == [
        "faces=6: 1 type(s)", "faces=7: 9 type(s)", "faces=8: 64 type(s)",
        "non-polyhedral complexes (not 3-connected): 43", "total: 74"]


def test_machine_mode_enumerate(capsys):
    code, out, _ = run(capsys, "--machine", "enumerate", "--faces", "7", "--cusps", "0")
    assert code == 0
    lines = out.splitlines()
    assert "count.faces7=5" in lines
    assert "total=9" in lines


def test_byte_identical_reports(capsys):
    _, first, _ = run(capsys, "verify", "tables")
    _, second, _ = run(capsys, "verify", "tables")
    assert first == second


def test_no_workers_option(capsys):
    for argv in (["enumerate", "--faces", "6", "--cusps", "0", "--workers", "2"],
                 ["verify", "all", "--workers", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--workers" in capsys.readouterr().err, argv
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    """A map error inside the enumeration exits 1 as an internal error;
    arguments outside what the enumeration covers still exit 2."""
    from orthocusp import maps

    def broken(*args, **kwargs):
        raise maps.MapError("rotation at vertex 0 is not a single cycle")

    monkeypatch.setattr(maps, "canonical_form", broken)
    code, _, err = run(capsys, "enumerate", "--faces", "6", "--cusps", "0")
    assert code == 1
    assert err.startswith("internal error: rotation at vertex 0")
    for argv, word in ((["--faces", "3"], "4 faces"),
                       (["--faces", "6", "--cusps", "3"], "cusp count"),
                       (["--faces", "14"], "above cap 13"),
                       (["--faces", "13", "--cusps", "2"], "above cap 12")):
        code, _, err = run(capsys, "enumerate", *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and word in err, argv
