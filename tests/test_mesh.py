import logging

import numpy as np
import pytest
from scipy.spatial import Delaunay

from dtnlab import geometry
from dtnlab import mesh as meshmod
from dtnlab.mesh import (
    Mesh,
    MeshError,
    export_mesh,
    generate_mesh,
    import_mesh,
    validate_mesh,
)

from conftest import four_triangle_square


def test_disk_mesh_invariants(disk_domain, disk_mesh):
    report = validate_mesh(disk_mesh, disk_domain)
    assert report.ok, report.violations


def test_disk_mesh_euler_relation(disk_mesh):
    edges, _ = disk_mesh.edges()
    euler = disk_mesh.n_nodes - len(edges) + len(disk_mesh.triangles)
    assert euler == 1


def test_disk_mesh_area_and_perimeter(disk_domain, disk_mesh):
    areas = disk_mesh.signed_areas()
    assert (areas > 0).all()
    # inscribed-polygon area deficit is O(h^2)
    assert abs(areas.sum() - disk_domain.area) < disk_domain.perimeter * disk_mesh.h_max**2
    pa = disk_mesh.nodes[disk_mesh.boundary_edges[:, 0]]
    pb = disk_mesh.nodes[disk_mesh.boundary_edges[:, 1]]
    blen = np.hypot(*(pb - pa).T).sum()
    assert abs(blen - disk_domain.perimeter) < disk_domain.perimeter * disk_mesh.h_max**2


def test_square_mesh_exact_area_and_corners(square_domain, square_mesh):
    assert abs(square_mesh.signed_areas().sum() - square_domain.area) < 1e-12
    bnodes = square_mesh.nodes[square_mesh.boundary_indices]
    for v in square_domain.vertices:
        assert np.min(np.hypot(bnodes[:, 0] - v[0], bnodes[:, 1] - v[1])) < 1e-12


def test_node_ordering_contract(disk_domain, disk_mesh):
    d_int = disk_domain.distance_to_boundary(disk_mesh.nodes[: disk_mesh.n_interior])
    assert (d_int > 0).all()
    d_bnd = disk_domain.distance_to_boundary(disk_mesh.nodes[disk_mesh.boundary_indices])
    assert d_bnd.max() < 1e-8


def test_boundary_nodes_ccw(disk_mesh):
    b = disk_mesh.nodes[disk_mesh.boundary_indices]
    x, y = b[:, 0], b[:, 1]
    signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert signed > 0


def test_generate_rejects_bad_h(disk_domain):
    with pytest.raises(MeshError):
        generate_mesh(disk_domain, 0.0)
    with pytest.raises(MeshError):
        generate_mesh(disk_domain, 100.0)


def test_nonconvex_domains_mesh_cleanly():
    for spec in (geometry.KochSpec(1, 2.0), geometry.DeformedDiskSpec(0.02, 5)):
        dom = geometry.build_domain(spec)
        msh = generate_mesh(dom, 0.1)
        report = validate_mesh(msh, dom)
        assert report.ok, (spec, report.violations)


def test_sharp_corner_triangle_meshes():
    dom = geometry.build_domain(geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3))
    msh = generate_mesh(dom, 0.05)
    report = validate_mesh(msh, dom)
    assert report.ok, report.violations
    # the pi/12 corner hosts triangles below the generic floor, by necessity
    assert msh.min_angles_deg().min() < 20.0


def test_export_import_round_trip(tmp_path, disk_mesh):
    path = tmp_path / "disk.mesh"
    export_mesh(disk_mesh, path)
    back = import_mesh(path)
    assert back.n_interior == disk_mesh.n_interior
    assert back.n_boundary == disk_mesh.n_boundary
    assert np.array_equal(back.nodes, disk_mesh.nodes)  # bit-exact
    assert np.array_equal(back.triangles, disk_mesh.triangles)
    assert np.array_equal(back.boundary_edges, disk_mesh.boundary_edges)


def test_import_rejects_out_of_range_index(tmp_path):
    m = four_triangle_square()
    path = tmp_path / "bad.mesh"
    m.triangles = m.triangles.copy()
    m.triangles[0, 0] = 99
    export_mesh(m, path)
    with pytest.raises(MeshError):
        import_mesh(path)


def test_import_rejects_boundary_edge_off_triangle(tmp_path):
    m = four_triangle_square()
    path = tmp_path / "bad2.mesh"
    m.boundary_edges = np.array([[1, 2], [2, 3], [3, 4], [4, 2]])  # (4,2) is a diagonal
    export_mesh(m, path)
    with pytest.raises(MeshError):
        import_mesh(path)


def test_import_rejects_malformed_header(tmp_path):
    path = tmp_path / "garbage.mesh"
    path.write_text("vertices 3 4\n")
    with pytest.raises(MeshError):
        import_mesh(path)


def test_import_rejects_flipped_triangle(tmp_path):
    m = four_triangle_square()
    m.triangles = m.triangles.copy()
    m.triangles[0] = m.triangles[0][::-1]
    path = tmp_path / "flip.mesh"
    export_mesh(m, path)
    with pytest.raises(MeshError):
        import_mesh(path)


def test_validate_reports_flipped_triangle():
    m = four_triangle_square()
    m.triangles = m.triangles.copy()
    m.triangles[0] = m.triangles[0][::-1]
    report = validate_mesh(m)
    assert any("non-positive" in v for v in report.violations)


def test_validate_reports_skinny_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.02]])
    m = Mesh(
        nodes=nodes,
        n_interior=0,
        n_boundary=3,
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        h_max=2.0,
    )
    report = validate_mesh(m)
    assert any("quality floor" in v for v in report.violations)


def test_validate_reports_long_edges():
    m = four_triangle_square()
    m.h_max = 0.5  # the square's sides are length 1
    report = validate_mesh(m)
    assert any("longer than h_max" in v for v in report.violations)


def test_validate_reports_undeclared_and_stray_boundary_edges():
    m = four_triangle_square()
    # (2, 1) is edge (1, 2) written backwards; (4, 2) is no edge, so the
    # real boundary edge (4, 1) is left undeclared
    m.boundary_edges = np.array([[2, 1], [2, 3], [3, 4], [4, 2]])
    report = validate_mesh(m)
    assert "1 boundary edges not belonging to exactly one triangle" in report.violations
    assert "1 single-triangle edges are not declared boundary edges" in report.violations
    assert len(report.violations) == 2, report.violations


def test_valid_handmade_mesh_passes():
    report = validate_mesh(four_triangle_square())
    assert report.ok, report.violations


def test_generation_is_deterministic(disk_domain, tmp_path, disk_mesh):
    again = generate_mesh(disk_domain, 0.05)
    p1, p2 = tmp_path / "a.mesh", tmp_path / "b.mesh"
    export_mesh(disk_mesh, p1)
    export_mesh(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# reuse of the Delaunay triangulation between smoothing passes
# ---------------------------------------------------------------------------

# four moving points (0-3) inside a fixed frame (4-7): the quad's diagonal
# (0, 2) is Delaunay, the circle through 0, 1, 2 has radius 0.5
QUAD = np.array([
    [0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.6],
    [-2.0, -2.0], [3.0, -2.0], [3.0, 3.0], [-2.0, 3.0],
])


def _canonical(triangles):
    t = np.sort(triangles, axis=1)
    return t[np.lexsort(t.T[::-1])]


def test_kept_delaunay_accepts_small_move_rejects_flip_and_inversion():
    kept = meshmod._KeptDelaunay.build(QUAD, n_free=4)
    assert kept.hull_fixed
    assert kept.still_delaunay(QUAD)
    small = QUAD.copy()
    small[3] += [-0.02, 0.01]
    assert kept.still_delaunay(small)
    # point 3 inside the circle through 0, 1, 2: qhull flips the diagonal
    flip = QUAD.copy()
    flip[3] = [0.2, 0.5]
    assert not kept.still_delaunay(flip)
    fresh = meshmod._KeptDelaunay.build(flip, n_free=4).simplices
    assert not np.array_equal(_canonical(fresh), _canonical(kept.simplices))
    # point 1 pushed out through the frame edge (5, 6) inverts triangle
    # (6, 1, 5); no incircle test sees a hull edge, the orientation check does
    invert = QUAD.copy()
    invert[1] = [3.2, 0.3]
    assert not kept.still_delaunay(invert)


def test_kept_delaunay_with_moving_hull_point_is_never_reused():
    # the same quad on its own: moving points on the hull could fold the hull
    # inward without inverting a triangle, so the rule does not apply
    kept = meshmod._KeptDelaunay.build(QUAD[:4], n_free=4)
    assert not kept.hull_fixed
    assert not kept.still_delaunay(QUAD[:4])


@pytest.mark.parametrize("spec, h", [
    (geometry.DiskSpec(1.0), 0.05),
    (geometry.RectangleSpec(1.0, 2.0), 0.08),
    (geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3), 0.05),
    (geometry.KochSpec(1, 2.0), 0.1),
])
def test_reused_triangulation_matches_fresh_one_per_pass(monkeypatch, spec, h):
    dom = geometry.build_domain(spec)
    calls = []

    def counting_delaunay(pts):
        calls.append(len(pts))
        return Delaunay(pts)

    monkeypatch.setattr(meshmod, "Delaunay", counting_delaunay)
    reused = generate_mesh(dom, h)
    n_reused = len(calls)
    monkeypatch.setattr(meshmod._KeptDelaunay, "still_delaunay", lambda self, pts: False)
    fresh = generate_mesh(dom, h)
    assert n_reused < len(calls) - n_reused  # the triangulation was reused
    assert reused.n_interior == fresh.n_interior
    assert reused.n_boundary == fresh.n_boundary
    assert np.array_equal(_canonical(reused.triangles), _canonical(fresh.triangles))
    assert np.abs(reused.nodes - fresh.nodes).max() < 1e-12


@pytest.mark.parametrize("spec, h", [
    (geometry.DiskSpec(1.0), 0.05),
    (geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3), 0.05),
    (geometry.KochSpec(1, 2.0), 0.1),
])
def test_interior_edges_with_moving_endpoint_are_locally_delaunay(spec, h):
    msh = generate_mesh(geometry.build_domain(spec), h)
    t = msh.triangles
    # each directed edge (t[:, i+1], t[:, i+2]) of a CCW triangle, with the
    # vertex t[:, i] opposite it; an interior edge appears once each way
    a = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    b = np.concatenate([t[:, 2], t[:, 0], t[:, 1]])
    c = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    base = msh.n_nodes
    order = np.argsort(a * base + b)
    keys = (a * base + b)[order]
    pos = np.searchsorted(keys, b * base + a)
    pos = np.minimum(pos, len(keys) - 1)
    interior = keys[pos] == b * base + a
    moving = np.minimum(a, b) < msh.n_interior
    sel = interior & moving
    assert sel.sum() > 0
    d = c[order[pos[sel]]]
    pa, pb, pc, pd = (msh.nodes[v] for v in (a[sel], b[sel], c[sel], d))
    # circumcenter of (a, b, c); d must not be inside the circumcircle
    bx, by = (pb - pa).T
    cx, cy = (pc - pa).T
    den = 2.0 * (bx * cy - by * cx)
    ux = (cy * (bx**2 + by**2) - by * (cx**2 + cy**2)) / den
    uy = (bx * (cx**2 + cy**2) - cx * (bx**2 + by**2)) / den
    radius = np.hypot(ux, uy)
    dist = np.hypot(pd[:, 0] - pa[:, 0] - ux, pd[:, 1] - pa[:, 1] - uy)
    assert (dist >= radius * (1 - 1e-6)).all(), (dist / radius).min()


def test_generate_mesh_leaves_domain_untouched(monkeypatch):
    dom = geometry.build_domain(geometry.EllipseSpec(1.0, 0.5))
    names = ("_polyline", "_polyline_tree", "_arclength_theta", "_arclength_s")
    before = {k: getattr(dom, k) for k in names}
    values = {k: before[k].copy() for k in ("_polyline", "_arclength_theta", "_arclength_s")}

    def assert_untouched():
        for k in names:
            assert getattr(dom, k) is before[k], k
        for k, v in values.items():
            assert np.array_equal(getattr(dom, k), v), k

    generate_mesh(dom, 0.1)
    assert_untouched()
    # below h = 2e-3 the mesher needs a finer polyline than the domain holds;
    # it must mesh a refined copy (stopped here before any meshing is done)
    seen = []

    def stop(domain, h, scale):
        seen.append(domain)
        raise MeshError("stop")

    monkeypatch.setattr(meshmod, "_build_once", stop)
    with pytest.raises(MeshError, match="stop"):
        generate_mesh(dom, 0.0015)
    assert seen[0] is not dom
    assert len(seen[0]._polyline) > len(dom._polyline)
    assert_untouched()


def test_domain_refined_returns_copy_or_self():
    dom = geometry.build_domain(geometry.EllipseSpec(1.0, 0.5))
    spacing = dom.perimeter / len(dom._polyline)
    assert dom.refined(2 * spacing) is dom
    finer = dom.refined(spacing / 2)
    assert finer is not dom and finer.spec == dom.spec
    assert len(finer._polyline) >= 2 * len(dom._polyline) - 1
    square = geometry.build_domain(geometry.RectangleSpec(1.0, 1.0))
    assert square.refined(1e-6) is square


def test_failed_mesh_attempts_are_logged(monkeypatch, caplog):
    dom = geometry.build_domain(geometry.DiskSpec(1.0))
    calls = iter([["fake violation"], []])
    real_validate = meshmod.validate_mesh

    def flaky_validate(mesh, domain=None):
        report = real_validate(mesh, domain)
        report.violations.extend(next(calls))
        return report

    monkeypatch.setattr(meshmod, "validate_mesh", flaky_validate)
    with caplog.at_level(logging.DEBUG, logger="dtnlab"):
        generate_mesh(dom, 0.1)
    (record,) = [r for r in caplog.records if r.name == "dtnlab"]
    assert record.levelno == logging.DEBUG
    msg = record.getMessage()
    assert "attempt 1" in msg and "scale 1" in msg and "qhull" in msg
    assert "fake violation" in msg
