from __future__ import annotations

from importlib import resources

import pytest

from orthocusp import to_poly3
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


def test_bounds_certificate_expands(capsys):
    code, out, _ = run(capsys, "bounds", "--certificate")
    assert code == 0
    assert out.startswith(BOUNDS_GOLDEN)
    assert "dimension 7" in out


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


def test_missing_file_io_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "/no/such/file.poly3"])
    assert exc.value.code == 3


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


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOCUSP_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run(capsys, "enumerate", "--faces", "6", "--cusps", "0")
    assert code == 0
    assert (tmp_path / "envcache" / "index.txt").exists()


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


def test_worker_count_validated(capsys):
    code, _, err = run(capsys, "enumerate", "--faces", "6", "--cusps", "0",
                       "--workers", "0")
    assert code == 2
    assert "worker count" in err


def test_run_config_api(capsys):
    from orthocusp.cli import RunConfig, run as run_config
    code = run_config(RunConfig(command="bounds",
                                options={"certificate": False}))
    assert code == 0
    assert capsys.readouterr().out == BOUNDS_GOLDEN
    assert run_config(RunConfig(command="nope")) == 2
    capsys.readouterr()
