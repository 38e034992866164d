from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from orthocusp import enum3, to_poly3
from orthocusp.cli import main

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


def test_nikulin_usage_error(capsys):
    code, _, err = run(capsys, "nikulin")
    assert code == 2
    assert "need" in err


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
    cannot be read, here a directory, exits 3 with ``cannot read``."""
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
    code, _, err = run(capsys, *check)
    assert code == 3
    assert err.startswith(f"cannot read {bad}: ")


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


def test_verify_all(capsys):
    # full pipeline; reuses the process-wide triangulation cache, so this is
    # cheap when the enumeration fixtures have already run
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert "0 types @ <=11; 1 type @ 12" in out
    assert "table2: 20 rows OK" in out
    assert "fixture dodecahedron: valid" in out


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


def test_census_files_pinned(capsys, tmp_path):
    """The files of the 8-face two-cusp census are pinned byte for byte:
    SHA-256 over the sorted file names, each followed by a newline and the
    file's bytes.  The face cycles written come from the dual cycles, so
    this pins their starting faces too."""
    out_dir = tmp_path / "types"
    code, _, _ = run(capsys, "enumerate", "--faces", "8", "--cusps", "2", "--out", str(out_dir))
    assert code == 0
    names = sorted(path.name for path in out_dir.iterdir())
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\n" + (out_dir / name).read_bytes())
    assert len(names) == 75
    assert digest.hexdigest() == (
        "313d348ff8f4e4c16571dd7fce6bc3dbeb41ea450ad24f8bd66df3934cbbd6ab")


def test_cache_check_detects_tampering(capsys, tmp_path):
    out_dir = tmp_path / "types"
    run(capsys, "enumerate", "--faces", "7", "--cusps", "0", "--realizable",
        "--out", str(out_dir))
    (out_dir / "index.txt").write_text("deadbeef\n")
    code, out, _ = run(capsys, "enumerate", "--faces", "7", "--cusps", "0",
                       "--realizable", "--out", str(out_dir), "--check-cache")
    assert code == 1
    assert "MISMATCH" in out


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


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOCUSP_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run(capsys, "enumerate", "--faces", "6", "--cusps", "0")
    assert code == 0
    assert (tmp_path / "envcache" / "index.txt").exists()


def test_enumerate_out_removes_stale_type_files(capsys, tmp_path):
    """A census written over a larger one in the same DIR deletes the type
    files it did not write, so its cache check passes; writing the same
    census again deletes nothing."""
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


def test_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--faces", "12", "--cap", "10"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_enumerate_over_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--faces", "16", "--cusps", "0")
    assert code == 2
    assert "cap" in err


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
                       (["--faces", "14"], "above cap 13")):
        code, _, err = run(capsys, "enumerate", *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and word in err, argv
