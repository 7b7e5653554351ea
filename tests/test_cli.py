import json
import math

import numpy as np
import pytest

from dtnlab import geometry
from dtnlab.cli import main, parse_domain


def run_cli(*args):
    return main(list(args))


def test_parse_domain_variants():
    assert parse_domain("disk:R=2") == geometry.DiskSpec(2.0)
    assert parse_domain("ellipse:a=1,b=0.5") == geometry.EllipseSpec(1.0, 0.5)
    assert parse_domain("rect:b1=1,b2=2") == geometry.RectangleSpec(1.0, 2.0)
    assert parse_domain("ngon:N=5") == geometry.RegularPolygonSpec(5, 1.0)
    assert parse_domain("koch:g=1") == geometry.KochSpec(1, 2.0)
    assert parse_domain("deformed:gamma=0.02,m=5") == geometry.DeformedDiskSpec(0.02, 5)
    tri = parse_domain("triangle:side=2,a1=0.2618,a2=1.0472")
    assert isinstance(tri, geometry.TriangleSpec)
    octa = parse_domain("octagon")
    assert isinstance(octa, geometry.PolygonSpec)


def test_mesh_command(tmp_path):
    rc = run_cli("mesh", "--domain", "disk:R=1", "--h", "0.15", "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "mesh.txt").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mesh_valid"] is True
    assert report["n_boundary"] >= 16
    assert report["config"]["command"] == "mesh"
    assert "tolerances" in report and "timings_s" in report


def test_solve_command_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = run_cli("solve", "--domain", "disk:R=1", "--h", "0.1", "--p", "1",
                     "--count", "5", "--out", str(out))
        assert rc == 0
    b1 = (out1 / "eigenvalues.csv").read_bytes()
    b2 = (out2 / "eigenvalues.csv").read_bytes()
    assert b1 == b2
    mu0 = float(b1.decode().splitlines()[1].split(",")[1])
    assert abs(mu0 - 0.4464) < 5e-3


def test_validate_rect_command(tmp_path):
    rc = run_cli("validate-rect", "--b1", "1", "--b2", "2", "--p", "1",
                 "--h", "0.05", "--count", "5", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_abs_err"] <= 5e-3
    assert report["max_root_residual"] <= 1e-10


def test_validate_disk_command(tmp_path):
    rc = run_cli("validate-disk", "--R", "1", "--p", "1", "--h", "0.1",
                 "--count", "5", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_abs_err"] < 2e-2
    assert report["max_rmse"] < 5e-3


def test_sweep_and_plots(tmp_path):
    rc = run_cli("sweep", "--domain", "disk:R=1", "--h", "0.15", "--count", "3",
                 "--p-min", "0.01", "--p-max", "10", "--n-p", "4", "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "sweep.csv").exists()
    rc = run_cli("emit-plots", "--artifacts", str(tmp_path), "--out", str(tmp_path))
    assert rc == 0
    script = (tmp_path / "plot_sweep.py").read_text()
    compile(script, "plot_sweep.py", "exec")  # syntactically valid, standalone
    assert "matplotlib" in script


def test_localize_and_plots(tmp_path):
    rc = run_cli("localize", "--domain", "disk:R=1", "--h", "0.1", "--p", "0",
                 "--k", "4", "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "bkmap.csv").exists()
    assert (tmp_path / "profile.csv").exists()
    rc = run_cli("emit-plots", "--artifacts", str(tmp_path), "--out", str(tmp_path))
    assert rc == 0
    for name in ("plot_profile.py", "plot_bkmap.py"):
        compile((tmp_path / name).read_text(), name, "exec")


def test_norms_command(tmp_path):
    rc = run_cli("norms", "--domain", "disk:R=1", "--h", "0.1", "--p", "1",
                 "--count", "3", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_energy_residual_rel"] <= 1e-8


def test_green_solve_command(tmp_path):
    rc = run_cli("green-solve", "--domain", "disk:R=1", "--h", "0.1", "--p", "1",
                 "--q", "1", "--m", "60", "--count", "4", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "green"
    assert abs(report["eigenvalues"][0] - 0.4464) < 1e-2


def test_ck_command(tmp_path):
    rc = run_cli("ck", "--domain", "ngon:N=4,R=1", "--h", "0.05", "--p", "100",
                 "--count", "2", "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "ck.csv").read_text().splitlines()
    assert lines[0] == "k,c_conjecture,c_numeric,abs_diff"
    c_conj = float(lines[1].split(",")[1])
    assert abs(c_conj - math.sin(math.pi / 4)) < 1e-12


def test_ak_command(tmp_path):
    rc = run_cli("ak", "--domain", "disk:R=1", "--h", "0.1", "--count", "5",
                 "--p-list", "0.5,1", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["survivors"]["0.5"] == [0]
    assert report["survivors"]["1.0"] == [0]


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "disk:R=1", "h": 0.15, "count": 3,
                               "out": str(tmp_path)}))
    rc = run_cli("solve", "--config", str(cfg))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["h"] == 0.15


def test_error_exit_codes(tmp_path, capsys):
    assert run_cli("solve", "--domain", "blob:z=1", "--out", str(tmp_path)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 2

    assert run_cli("solve", "--domain", "disk:R=1", "--h", "-1",
                   "--out", str(tmp_path)) == 2
    capsys.readouterr()

    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("emit-plots", "--artifacts", str(empty), "--out", str(empty)) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 4

    assert run_cli("solve", "--domain", "poly:file=/nonexistent.json",
                   "--out", str(tmp_path)) == 4
    capsys.readouterr()

    # solver-category failure: h too large to resolve the domain
    assert run_cli("solve", "--domain", "disk:R=1", "--h", "50",
                   "--out", str(tmp_path)) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "disk:R=1", "wibble": 1}))
    assert run_cli("solve", "--config", str(cfg)) == 2
    # a key of another command is unknown to this one
    cfg.write_text(json.dumps({"domain": "disk:R=1", "p_list": "1,2"}))
    assert run_cli("solve", "--config", str(cfg)) == 2


def test_flag_of_another_command_rejected(tmp_path, capsys):
    """Each command takes only the flags it reads: ``solve --p-list`` is an
    argparse error (exit 2), not a solve at the default p."""
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--domain", "disk:R=1", "--p-list", "1,2", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "--p-list" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_echoes_tolerances(tmp_path):
    rc = run_cli("solve", "--domain", "disk:R=1", "--h", "0.15", "--count", "2",
                 "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tolerances"]["root_residual"] == 1e-10
    # nothing reads or measures these two, so the report does not claim them
    assert "multiplicity_tol" not in report["tolerances"]
    assert "schur_symmetry_abs" not in report["tolerances"]
