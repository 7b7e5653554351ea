import dataclasses
import importlib
import json
import math
import pkgutil
import signal

import numpy as np
import pytest

import dtnlab
from dtnlab import analysis, analytic, cli, fem, geometry, mesh as meshmod, pipeline
from dtnlab.cli import TOLERANCES, main, parse_domain


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
    # the file holds the mesh generate_mesh built and validated
    expected = tmp_path / "expected.txt"
    disk = geometry.build_domain(geometry.DiskSpec(1.0))
    meshmod.export_mesh(meshmod.generate_mesh(disk, 0.15), expected)
    assert (tmp_path / "mesh.txt").read_bytes() == expected.read_bytes()
    assert report["n_boundary"] >= 16
    assert report["config"]["command"] == "mesh"
    # the mesh command checks no tolerance, so its report claims none
    assert "tolerances" not in report and "timings_s" in report


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


def test_solve_vectors_writes_the_extensions(tmp_path):
    """``solve --vectors`` writes one file per mode, one value per node in
    the mesh file's order, that reads back as the spectrum's extensions."""
    rc = run_cli("solve", "--domain", "disk:R=1", "--h", "0.2", "--p", "1",
                 "--count", "3", "--vectors", "--out", str(tmp_path))
    assert rc == 0
    msh = meshmod.generate_mesh(geometry.build_domain(parse_domain("disk:R=1")), 0.2)
    spec = pipeline.solve(fem.assemble(msh), 1.0, 3, extensions=True)[1]
    files = sorted(tmp_path.glob("eigenvector_*.txt"))
    assert [f.name for f in files] == [f"eigenvector_{k:03d}.txt" for k in range(3)]
    for k, f in enumerate(files):
        assert len(f.read_text().splitlines()) == msh.n_nodes
        assert np.array_equal(np.loadtxt(f), spec.extensions[:, k])


def test_validate_rect_command(tmp_path):
    rc = run_cli("validate-rect", "--b1", "1", "--b2", "2", "--p", "1",
                 "--h", "0.05", "--count", "5", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_abs_err"] <= 5e-3
    assert report["max_root_residual"] <= TOLERANCES["root_residual"]


def test_validate_rect_root_residual_breach_exits_3(tmp_path, capsys, monkeypatch):
    """A root whose residual exceeds ``TOLERANCES["root_residual"]`` fails the
    run with the solver exit code."""
    exact = analytic.rectangle_spectrum

    def loose(*args):
        return [dataclasses.replace(e, residual=10 * TOLERANCES["root_residual"]) for e in exact(*args)]

    monkeypatch.setattr(analytic, "rectangle_spectrum", loose)
    rc = run_cli("validate-rect", "--h", "0.2", "--count", "3", "--out", str(tmp_path))
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 3 and "root residual" in record["error"]


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


def test_localize_max_b_spans_a_cut_multiplet(tmp_path):
    """On the coarse 2x2 square at p = 0, modes 1 and 2 are one multiplet, so
    the k + 1 = 2 mode window of k = 1 cuts it. ``max_B`` is the multiplet's
    basis-free maximum (``Localization.group_max``), not the peak of whichever vector
    the solver returned as mode 1. The wider window reuses the one factor."""
    factored = []

    def counting_factor(*args, **kwargs):
        factored.append(args[1])
        return fem.factor_interior(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "factor_interior", counting_factor)
        rc = run_cli("localize", "--domain", "rect:b1=2,b2=2", "--h", "0.2", "--p", "0",
                     "--k", "1", "--out", str(tmp_path))
    assert rc == 0
    assert factored == [0.0]
    max_b = json.loads((tmp_path / "report.json").read_text())["max_B"]

    domain = geometry.build_domain(geometry.RectangleSpec(2.0, 2.0))
    cut = pipeline.solve_steklov(domain, 0.2, 0.0, 2, extensions=True)
    assert analysis.complete_groups(cut.spectrum) == [[0]]
    wide = pipeline.solve(cut.matrices, 0.0, 6, extensions=True)[1]
    group_max = analysis.localization(wide, 1, cut.mesh, domain).group_max
    assert max_b == pytest.approx(group_max, rel=1e-9)
    # the peak of B_1 = sqrt(|dOmega|) |V_1| exp(mu_1 d) for the cut window's own mode 1
    growth = np.exp(cut.spectrum.eigenvalues[1] * domain.distance_to_boundary(cut.mesh.nodes))
    single = (math.sqrt(domain.perimeter) * np.abs(cut.spectrum.extensions[:, 1]) * growth).max()
    assert max_b > single * 1.1


def test_localize_makes_one_unbounded_distance_query(tmp_path, monkeypatch):
    """The map, the profile and the multiplet peak share one distance field.
    On a smooth non-disk shape each unbounded query walks the polyline tree;
    the mesher's bounded queries (``upper`` given) are not counted."""
    query = geometry.Domain.distance_to_boundary
    unbounded = []

    def counting(self, points, upper=np.inf):
        if upper == np.inf:
            unbounded.append(len(points))
        return query(self, points, upper)

    monkeypatch.setattr(geometry.Domain, "distance_to_boundary", counting)
    rc = run_cli("localize", "--domain", "deformed:gamma=0.02,m=5", "--h", "0.1", "--p", "0",
                 "--k", "4", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert unbounded == [report["n_interior"] + report["n_boundary"]]


def test_localize_tiny_bin_width_reduces_only_occupied_bands(tmp_path):
    """A band width of 1e-9 cuts the unit disk's depth into about 1e9 bands,
    nearly all empty. The profile reduces over the occupied bands alone, so the
    run takes about a second; a loop over every band would take about an hour,
    and the alarm stops it after 30 s."""

    def too_slow(signum, frame):
        raise TimeoutError("localize with a 1e-9 band width ran past 30 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(30)
    try:
        rc = run_cli("localize", "--domain", "disk:R=1", "--h", "0.2", "--p", "0", "--k", "1",
                     "--bin-width", "1e-9", "--out", str(tmp_path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 0
    profile = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1, ndmin=2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(profile) <= report["n_interior"] + report["n_boundary"]
    assert profile[0, 1] == 0.0 and (np.diff(profile[:, 1]) > 0).all()


def test_localize_k_past_the_spectrum_exits_2_before_factoring(tmp_path, capsys):
    """k has no upper flag bound: the mesh sets it (32 boundary nodes on the
    disk at h = 0.3), so the check follows meshing and precedes the factor."""
    factored = []

    def counting_factor(*args, **kwargs):
        factored.append(args[1])
        return fem.factor_interior(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "factor_interior", counting_factor)
        rc = run_cli("localize", "--domain", "disk:R=1", "--h", "0.3", "--k", "500",
                     "--out", str(tmp_path))
    assert rc == 2
    assert factored == []
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "k must be in 0..31 on this mesh"


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


def test_green_solve_reports_both_lanczos_runs(tmp_path):
    """``report.json`` gives each Robin basis's shift, its inertia count of
    the eigenvalues below the shift and its Lanczos steps. On the disk at
    h = 0.2 with m = 40 both runs shift inside the wanted window."""
    from dtnlab import greens

    rc = run_cli("green-solve", "--domain", "disk:R=1", "--h", "0.2", "--p", "1",
                 "--m", "40", "--count", "5", "--out", str(tmp_path))
    assert rc == 0
    runs = json.loads((tmp_path / "report.json").read_text())["robin_bases"]
    matrices = fem.assemble(meshmod.generate_mesh(geometry.build_domain(geometry.DiskSpec(1.0)), 0.2))
    for name, q in (("basis0", 0.0), ("basis_q", 1.0)):
        basis = greens.robin_eigenbasis(matrices, q, 40)
        assert runs[name] == {"q": q, "shift": basis.shift, "below": basis.below,
                              "steps": basis.steps}
        assert basis.below > 0


def test_green_solve_vectors_writes_the_green_extensions(tmp_path):
    """``green-solve --vectors`` writes the Green route's extensions,
    ``extend_via_green`` of each mode, in the files of ``solve --vectors``."""
    from dtnlab import greens

    rc = run_cli("green-solve", "--domain", "disk:R=1", "--h", "0.2", "--p", "1",
                 "--m", "40", "--count", "3", "--vectors", "--out", str(tmp_path))
    assert rc == 0
    msh = meshmod.generate_mesh(geometry.build_domain(geometry.DiskSpec(1.0)), 0.2)
    matrices = fem.assemble(msh)
    basis0 = greens.robin_eigenbasis(matrices, 0.0, 40)
    spec = greens.dtn_spectrum_via_green(matrices, 1.0, 1.0, 40, 3, basis0,
                                         greens.robin_eigenbasis(matrices, 1.0, 40))
    files = sorted(tmp_path.glob("eigenvector_*.txt"))
    assert [f.name for f in files] == [f"eigenvector_{k:03d}.txt" for k in range(3)]
    for k, f in enumerate(files):
        assert len(f.read_text().splitlines()) == msh.n_nodes
        assert np.array_equal(np.loadtxt(f), greens.extend_via_green(basis0, spec, k))


def test_green_solve_at_p0_exits_3(tmp_path, capsys):
    """At p = 0 the Green route's G_0 is singular: a solver failure (exit
    3) that names the cause, not advice to raise the truncation m."""
    rc = run_cli("green-solve", "--domain", "disk:R=1", "--h", "0.3", "--p", "0",
                 "--m", "20", "--count", "2", "--out", str(tmp_path))
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == (
        "the Green route needs p > 0: at p = 0, G_0 is the Neumann Green's "
        "function, singular on the constants"
    )


def test_green_solve_at_p0_exits_3_before_the_bases(tmp_path, capsys, monkeypatch):
    """The p > 0 rule fails the run before either Robin basis is built."""
    from dtnlab import greens

    def called(*args, **kwargs):
        raise AssertionError("a Robin basis was built at p = 0")

    monkeypatch.setattr(greens, "robin_eigenbasis", called)
    rc = run_cli("green-solve", "--domain", "disk:R=1", "--h", "0.3", "--p", "0",
                 "--m", "20", "--count", "2", "--out", str(tmp_path))
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"].startswith("the Green route needs p > 0")


# every command that takes --count, with a domain and the boundary nodes of its
# mesh at h = 0.3 (32 on the unit disk, 36 on the 1 x 2 rectangle)
COUNT_COMMANDS = [
    (["solve", "--domain", "disk:R=1"], 32),
    (["green-solve", "--domain", "disk:R=1", "--m", "40"], 32),
    (["validate-disk"], 32),
    (["validate-rect"], 36),
    (["sweep", "--domain", "disk:R=1", "--n-p", "2"], 32),
    (["ck", "--domain", "rect:b1=1,b2=2"], 36),
    (["ak", "--domain", "disk:R=1"], 32),
    (["norms", "--domain", "disk:R=1"], 32),
]


def _fail_if_called(monkeypatch):
    """Make assembly, the interior factor and the Robin bases raise."""
    from dtnlab import greens

    def called(*args, **kwargs):
        raise AssertionError("a setting the mesh bounds was checked after assembly")

    monkeypatch.setattr(fem, "assemble", called)
    monkeypatch.setattr(pipeline, "factor_interior", called)
    monkeypatch.setattr(greens, "robin_eigenbasis", called)


def _command_id(value):
    return value[0] if isinstance(value, list) else str(value)


@pytest.mark.parametrize("command, n_boundary", COUNT_COMMANDS, ids=_command_id)
def test_count_past_boundary_exits_2_before_assembly(tmp_path, capsys, monkeypatch,
                                                     command, n_boundary):
    """A count past the mesh's boundary nodes is a configuration error on
    both routes, found right after meshing."""
    _fail_if_called(monkeypatch)
    rc = run_cli(*command, "--h", "0.3", "--count", str(n_boundary + 1), "--out", str(tmp_path))
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == f"count must be in 1..{n_boundary}"
    assert not (tmp_path / "report.json").exists()


def test_green_solve_m_past_the_mesh_exits_2_before_assembly(tmp_path, capsys, monkeypatch):
    """The truncation m is bounded by the mesh's nodes (95 on the disk at
    h = 0.3): past it is a bad setting (exit 2), not a solver failure."""
    _fail_if_called(monkeypatch)
    rc = run_cli("green-solve", "--domain", "disk:R=1", "--h", "0.3", "--m", "500",
                 "--count", "3", "--out", str(tmp_path))
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "m must be in 1..93 on this mesh"


@pytest.mark.parametrize(
    "command",
    [
        ["mesh", "--domain", "disk:R=1"],
        ["solve", "--domain", "disk:R=1", "--count", "2"],
        ["green-solve", "--domain", "disk:R=1", "--m", "20", "--count", "2"],
        ["validate-disk", "--count", "2"],
        ["validate-rect", "--count", "2"],
        ["sweep", "--domain", "disk:R=1", "--count", "2", "--n-p", "2"],
        ["ck", "--domain", "rect:b1=2,b2=2", "--p", "100", "--count", "2"],
        ["ak", "--domain", "disk:R=1", "--count", "2"],
        ["localize", "--domain", "disk:R=1", "--k", "1"],
        ["norms", "--domain", "disk:R=1", "--count", "2"],
    ],
    ids=_command_id,
)
def test_every_meshing_command_reports_its_mesh(tmp_path, command):
    assert run_cli(*command, "--h", "0.3", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {"n_interior", "n_boundary", "n_triangles"} <= set(report)
    assert report["n_boundary"] >= 24 and "mesh" in report["timings_s"]


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


def test_ak_audits_the_concentrated_coefficients(tmp_path):
    """Inside a degenerate multiplet A_k is defined only up to a rotation of
    its eigenbasis, so ``ak`` writes and audits the concentrated coefficients,
    which are not: ak.csv and the survivors agree, and on the 2 x 2 square at
    p = 10 each multiplet keeps at most its last member."""
    rc = run_cli("ak", "--domain", "rect:b1=2,b2=2", "--h", "0.05", "--count", "21",
                 "--p-list", "10", "--out", str(tmp_path))
    assert rc == 0
    survivors = json.loads((tmp_path / "report.json").read_text())["survivors"]["10.0"]
    assert survivors == [0, 5, 7, 12, 14, 15, 20]

    domain = geometry.build_domain(geometry.RectangleSpec(2.0, 2.0))
    res = pipeline.solve_steklov(domain, 0.05, 10.0, 21)
    conc = analysis.concentrate_degenerate_ak(res.spectrum)
    table = np.loadtxt(tmp_path / "ak.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 2], np.abs(conc))
    assert survivors == np.flatnonzero(table[:, 2] > analysis.CANCEL_TOL).tolist()


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "disk:R=1", "h": 0.15, "count": 3,
                               "out": str(tmp_path)}))
    rc = run_cli("solve", "--config", str(cfg))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["h"] == 0.15


def test_error_exit_codes(tmp_path, capsys, monkeypatch):
    assert run_cli("solve", "--domain", "blob:z=1", "--out", str(tmp_path)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 2

    # an infinite p or q is a bad setting: exit 2 before anything is meshed
    # (a bad --p-list is an argparse error, which exits through SystemExit)
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed the domain")

    def exit_code(*args):
        try:
            return run_cli(*args)
        except SystemExit as exc:
            return exc.code

    with monkeypatch.context() as patch:
        patch.setattr(cli.meshmod, "generate_mesh", no_mesh)
        for command, flag, value in [("solve", "--p", "inf"), ("ak", "--p-list", "1,inf"),
                                     ("green-solve", "--q", "inf")]:
            assert exit_code(command, "--domain", "disk:R=1", "--h", "0.2", flag, value,
                             "--out", str(tmp_path)) == 2
            assert "finite" in capsys.readouterr().err

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


def test_config_values_converted_by_flag_type(tmp_path, capsys):
    """``--config`` values go through the flag's argparse type, so a number
    written as a string works and a value the flag would reject exits 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "disk:R=1", "h": "0.3", "count": "3",
                               "out": str(tmp_path)}))
    assert run_cli("solve", "--config", str(cfg)) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config["h"] == 0.3 and config["count"] == 3
    for bad in ({"h": "abc"}, {"count": 3.5}, {"p": True}, {"vectors": "yes"}, {"h": None}):
        cfg.write_text(json.dumps({"domain": "disk:R=1", **bad}))
        assert run_cli("solve", "--config", str(cfg)) == 2, bad
        assert json.loads(capsys.readouterr().err.strip())["exit_code"] == 2
    for not_an_object in ("5", "null", '"h"'):
        cfg.write_text(not_an_object)
        assert run_cli("solve", "--config", str(cfg)) == 2, not_an_object


@pytest.mark.parametrize("p_list", ["1,x", "1,-1", "", "nan"])
def test_ak_bad_p_list_exits_2(tmp_path, capsys, p_list):
    with pytest.raises(SystemExit) as exc:
        run_cli("ak", "--domain", "disk:R=1", "--p-list", p_list, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "--p-list" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "disk:R=1", "p_list": p_list}))
    assert run_cli("ak", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_flag_of_another_command_rejected(tmp_path, capsys):
    """Each command takes only the flags it reads: ``solve --p-list`` is an
    argparse error (exit 2), not a solve at the default p."""
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--domain", "disk:R=1", "--p-list", "1,2", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "--p-list" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_echoes_tolerances(tmp_path):
    """A report lists the tolerances its run checked: validate-rect checks
    ``root_residual``, and solve checks none."""
    assert run_cli("validate-rect", "--h", "0.2", "--count", "3", "--out", str(tmp_path / "rect")) == 0
    report = json.loads((tmp_path / "rect" / "report.json").read_text())
    assert report["tolerances"] == {"root_residual": 1e-10}
    assert run_cli("solve", "--domain", "disk:R=1", "--h", "0.15", "--count", "2",
                   "--out", str(tmp_path / "solve")) == 0
    assert "tolerances" not in json.loads((tmp_path / "solve" / "report.json").read_text())


def test_domain_keys_accept_spec_field_names():
    assert parse_domain("disk:radius=2") == geometry.DiskSpec(2.0)
    assert parse_domain("ngon:n_sides=5,circumradius=2") == geometry.RegularPolygonSpec(5, 2.0)
    assert parse_domain("deformed") == geometry.DeformedDiskSpec(0.02, 5)
    assert parse_domain("deformed:amplitude=0.1,m=3") == geometry.DeformedDiskSpec(0.1, 3)


@pytest.mark.parametrize(
    "command, settings",
    [
        (["mesh", "--domain", "disk:R=1", "--h", "0.3"], {"command", "domain", "h", "out"}),
        (["solve", "--domain", "disk:R=1", "--h", "0.3", "--count", "2"],
         {"command", "domain", "h", "p", "count", "vectors", "out"}),
    ],
)
def test_report_config_is_the_commands_own_settings(tmp_path, command, settings):
    assert run_cli(*command, "--out", str(tmp_path)) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert set(config) == settings
    assert config["h"] == 0.3 and config["out"] == str(tmp_path)


@pytest.mark.parametrize(
    "domain", ["disk:radus=2", "ngon:N=5,r=3", "octagon:R=2", "poly:file={},R=2", "poly:file={}"]
)
def test_unknown_shape_keys_exit_2(tmp_path, capsys, domain):
    shape = tmp_path / "shape.json"  # a polygon file holding a disk with a misspelt key
    shape.write_text(json.dumps({"shape": "disk", "radus": 2}))
    domain = domain.format(shape)
    out = tmp_path / "out"
    assert run_cli("mesh", "--domain", domain, "--h", "0.3", "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 2 and record["command"] == "mesh"
    assert not (out / "report.json").exists()


def test_too_sharp_polygon_exits_2(tmp_path, capsys):
    shape = tmp_path / "spike.json"  # a 0.1-degree corner at (2, 0)
    y = 1.7 * math.tan(math.radians(0.1))
    shape.write_text(geometry.spec_to_json(geometry.PolygonSpec(((0, 0), (2, 0), (0.3, y), (0, 1)))))
    out = tmp_path / "out"
    assert run_cli("mesh", "--domain", f"poly:file={shape}", "--h", "0.05", "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 2 and "1-degree floor" in record["error"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("h, code", [(0.1, 3), (0.05, 0)])
def test_one_degree_corner_meshes_only_at_fine_h(tmp_path, capsys, h, code):
    """A known limit of the mesher: a triangle with a 1-degree corner keeps a
    triangle below the quality floor through every retry at h = 0.1 (exit 3
    with the MeshError record), and meshes at h = 0.05. A grading fix that
    meshes the coarse case updates this test."""
    domain = f"triangle:a1={math.radians(1)!r},a2={math.pi / 2!r}"
    assert run_cli("mesh", "--domain", domain, "--h", str(h), "--out", str(tmp_path)) == code
    if code:
        record = json.loads(capsys.readouterr().err.strip())
        assert record["command"] == "mesh" and "quality floor" in record["error"]
        assert not (tmp_path / "report.json").exists()
    else:
        assert (tmp_path / "mesh.txt").exists()


@pytest.mark.parametrize("vertex, h, code", [
    ((1.0, 1e-12), 0.1, 3), ((1.0, 1e-12), 0.05, 3),
    ((0.5, 1e-13), 0.1, 0), ((0.5, 1e-13), 0.05, 0),
    ((0.5, -1e-13), 0.1, 0), ((0.5, -1e-13), 0.05, 0),
])
def test_short_edge_and_near_collinear_vertex(tmp_path, capsys, vertex, h, code):
    """The unit square with one more vertex. On its right side at (1, 1e-12)
    it leaves an edge no mesh attempt resolves: ``solve`` exits 3 with the
    MeshError record. Just off its bottom side at (0.5, +-1e-13) it is a
    corner of about 180 degrees, and the square meshes and solves."""
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    corners.insert(2 if vertex[0] == 1.0 else 1, vertex)
    shape = tmp_path / "square.json"
    shape.write_text(geometry.spec_to_json(geometry.PolygonSpec(tuple(corners))))
    out = tmp_path / "out"
    args = ("solve", "--domain", f"poly:file={shape}", "--h", str(h), "--count", "3", "--out", str(out))
    assert run_cli(*args) == code
    if code:
        record = json.loads(capsys.readouterr().err.strip())
        assert record["exit_code"] == 3 and "did not converge" in record["error"]
    else:
        assert (out / "eigenvalues.csv").exists()


def test_emit_plots_carries_the_report_forward(tmp_path):
    assert run_cli("sweep", "--domain", "disk:R=1", "--h", "0.3", "--count", "2",
                   "--p-min", "0.1", "--p-max", "10", "--n-p", "2", "--out", str(tmp_path)) == 0
    slope = json.loads((tmp_path / "report.json").read_text())["small_p_slope"]
    scripts = []
    for _ in range(2):
        assert run_cli("emit-plots", "--artifacts", str(tmp_path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["small_p_slope"] == slope
        assert report["config"]["command"] == "emit-plots"
        assert report["plot_scripts"] == ["plot_sweep.py"]
        scripts.append((tmp_path / "plot_sweep.py").read_text())
    assert scripts[0] == scripts[1]
    assert f"SLOPE = {slope}\n" in scripts[1]


@pytest.mark.parametrize(
    "grid",
    [["--p-min", "0"], ["--p-min", "10", "--p-max", "1"], ["--n-p", "0"]],
)
def test_bad_sweep_grid_exits_2(tmp_path, capsys, grid):
    assert run_cli("sweep", "--domain", "disk:R=1", "--h", "0.3", *grid,
                   "--out", str(tmp_path)) == 2
    assert json.loads(capsys.readouterr().err.strip())["exit_code"] == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["localize", "--bin-width", "0"],
        ["localize", "--bin-width", "-0.1"],
        ["localize", "--k", "-1"],
        ["norms", "--dp", "0"],
        ["norms", "--p", "0.3", "--dp", "-0.5"],
        ["green-solve", "--m", "0"],
        ["green-solve", "--q", "0"],
        ["norms", "--p", "0.3", "--dp", "0.5"],
        ["norms", "--p", "0"],
    ],
)
def test_out_of_range_setting_exits_2_before_meshing(tmp_path, capsys, monkeypatch, command):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the settings were checked")

    monkeypatch.setattr(dtnlab.mesh, "generate_mesh", no_mesh)
    monkeypatch.setattr(pipeline, "generate_mesh", no_mesh)
    assert run_cli(*command, "--domain", "disk:R=1", "--h", "0.3", "--out", str(tmp_path)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 2 and record["command"] == command[0]
    assert not (tmp_path / "report.json").exists()


# every dtnlab error class and the exit code the module docstring of cli
# documents for it: 2 bad configuration, 3 solver failure
ERROR_EXIT_CODES = [
    ("geometry", "GeometryError", 2),
    ("dtn", "DtnError", 2),
    ("conjecture", "ConjectureError", 2),
    ("mesh", "MeshError", 3),
    ("fem", "FemError", 3),
    ("greens", "GreensError", 3),
    ("analysis", "AnalysisError", 3),
    ("analytic", "AnalyticError", 3),
]


@pytest.mark.parametrize("module, name, code", ERROR_EXIT_CODES)
def test_error_class_exit_code(tmp_path, capsys, monkeypatch, module, name, code):
    error = getattr(importlib.import_module(f"dtnlab.{module}"), name)

    def fail(cfg, rep):
        raise error("injected")

    monkeypatch.setitem(cli._COMMANDS, "mesh", (fail, cli._COMMANDS["mesh"][1]))
    assert run_cli("mesh", "--domain", "disk:R=1", "--out", str(tmp_path)) == code
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "injected", "exit_code": code, "command": "mesh"}


def test_every_error_class_has_an_exit_code():
    found = set()
    for info in pkgutil.iter_modules(dtnlab.__path__):
        mod = importlib.import_module(f"dtnlab.{info.name}")
        found |= {
            (info.name, name)
            for name, obj in vars(mod).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == mod.__name__ and obj is not cli.CliError
        }
    assert found == {(module, name) for module, name, _ in ERROR_EXIT_CODES}


def test_other_exceptions_propagate(tmp_path, monkeypatch):
    """Only dtnlab's own errors and OSError become exit codes; anything else
    is a bug and keeps its traceback."""
    def fail(cfg, rep):
        raise ZeroDivisionError("bug")

    monkeypatch.setitem(cli._COMMANDS, "mesh", (fail, cli._COMMANDS["mesh"][1]))
    with pytest.raises(ZeroDivisionError):
        run_cli("mesh", "--domain", "disk:R=1", "--out", str(tmp_path))
