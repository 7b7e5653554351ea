import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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


def _interior_triangle(msh):
    """Index of a triangle with all three vertices interior."""
    return int(np.flatnonzero((msh.triangles < msh.n_interior).all(axis=1))[0])


def test_import_rejects_a_hole(tmp_path, disk_domain):
    """A mesh with one interior triangle removed is the mesh of a domain with
    a hole, whose edges are single-triangle edges but no boundary edges."""
    msh = generate_mesh(disk_domain, 0.2)
    holed = replace(msh, triangles=np.delete(msh.triangles, _interior_triangle(msh), axis=0))
    assert "3 single-triangle edges are not declared boundary edges" in validate_mesh(holed).violations
    path = tmp_path / "hole.mesh"
    export_mesh(holed, path)
    with pytest.raises(MeshError, match="single-triangle edges"):
        import_mesh(path)


def test_import_rejects_a_non_manifold_edge(tmp_path, disk_domain):
    msh = generate_mesh(disk_domain, 0.2)
    extra = msh.triangles[[_interior_triangle(msh)]]
    doubled = replace(msh, triangles=np.vstack([msh.triangles, extra]))
    path = tmp_path / "non_manifold.mesh"
    export_mesh(doubled, path)
    with pytest.raises(MeshError, match="incidence count other than 1 or 2"):
        import_mesh(path)


def test_import_rejects_malformed_header(tmp_path):
    path = tmp_path / "garbage.mesh"
    path.write_text("vertices 3 4\n")
    with pytest.raises(MeshError):
        import_mesh(path)


@pytest.mark.parametrize(
    "block, line", [("triangles", "0 3"), ("triangles", "0 3 x"), ("boundary_edges", "4")]
)
def test_import_rejects_malformed_index_line(tmp_path, block, line):
    """A short or non-integer triangle or boundary-edge line is a MeshError."""
    path = tmp_path / "bad.mesh"
    export_mesh(four_triangle_square(), path)
    lines = path.read_text().splitlines()
    lines[next(i for i, ln in enumerate(lines) if ln.startswith(block)) + 1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError):
        import_mesh(path)


@pytest.mark.parametrize(
    "block, header", [("nodes", "nodes -1 4"), ("triangles", "triangles -1"),
                      ("boundary_edges", "boundary_edges -2")]
)
def test_import_rejects_negative_count(tmp_path, block, header):
    path = tmp_path / "negative.mesh"
    export_mesh(four_triangle_square(), path)
    lines = path.read_text().splitlines()
    lines[next(i for i, ln in enumerate(lines) if ln.startswith(block))] = header
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=f"negative count in '{block}' header"):
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


@pytest.mark.parametrize(
    "spec, h", [(geometry.RectangleSpec(2.0, 2.0), 0.1), (geometry.EllipseSpec(1.0, 0.6), 0.1)]
)
def test_validate_reports_nodes_off_and_on_the_boundary(spec, h):
    dom = geometry.build_domain(spec)
    msh = generate_mesh(dom, h)
    nodes = msh.nodes.copy()
    # one boundary node pushed 1 % outward, one interior node put exactly on
    # the boundary: a polygon vertex, or a vertex of the smooth polyline
    b = msh.n_interior + 5
    centre = nodes.mean(axis=0)
    nodes[b] = centre + 1.01 * (nodes[b] - centre)
    nodes[0] = dom.vertices[0] if dom.is_polygon else dom.parametrization(np.array([0.0]))[0]
    report = validate_mesh(replace(msh, nodes=nodes), dom)
    tol = 1e-9 if dom.is_polygon else 1e-6
    assert f"1 boundary nodes further than {tol:g} from the boundary" in report.violations
    assert "1 interior nodes touching the boundary" in report.violations


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


def _still_delaunay(kept, pts):
    """True when the kept simplices are a Delaunay triangulation of ``pts``:
    flips have nothing to repair and no edge fails the incircle test."""
    bad = kept.failing_edges(pts)
    return bad is not None and not bad.any()


def test_kept_delaunay_accepts_small_move_rejects_flip_and_inversion():
    kept = meshmod._KeptDelaunay.build(QUAD, n_free=4)
    assert kept.hull_fixed
    assert _still_delaunay(kept, QUAD)
    small = QUAD.copy()
    small[3] += [-0.02, 0.01]
    assert _still_delaunay(kept, small)
    # point 3 inside the circle through 0, 1, 2: qhull flips the diagonal
    flip = QUAD.copy()
    flip[3] = [0.2, 0.5]
    assert not _still_delaunay(kept, flip)
    fresh = meshmod._KeptDelaunay.build(flip, n_free=4).simplices
    assert not np.array_equal(_canonical(fresh), _canonical(kept.simplices))
    # point 1 pushed out through the frame edge (5, 6) inverts triangle
    # (6, 1, 5); no incircle test sees a hull edge, the orientation check does
    invert = QUAD.copy()
    invert[1] = [3.2, 0.3]
    assert not _still_delaunay(kept, invert)


def test_kept_delaunay_with_moving_hull_point_is_never_reused():
    # the same quad on its own: moving points on the hull could fold the hull
    # inward without inverting a triangle, so the rule does not apply
    kept = meshmod._KeptDelaunay.build(QUAD[:4], n_free=4)
    assert not kept.hull_fixed
    assert not _still_delaunay(kept, QUAD[:4])


def test_flip_repair_matches_fresh_qhull():
    kept = meshmod._KeptDelaunay.build(QUAD, n_free=4)
    flip = QUAD.copy()
    flip[3] = [0.2, 0.5]
    repaired, qhull = kept.refreshed(flip)
    assert not qhull
    assert _still_delaunay(repaired, flip)
    fresh = Delaunay(flip).simplices
    assert np.array_equal(_canonical(repaired.simplices), _canonical(fresh))
    # an inverted triangle is past repair by flips: qhull runs on all points
    invert = QUAD.copy()
    invert[1] = [3.2, 0.3]
    rebuilt, qhull = kept.refreshed(invert)
    assert qhull
    assert np.array_equal(_canonical(rebuilt.simplices), _canonical(Delaunay(invert).simplices))


def test_flat_simplex_is_marked_and_never_flipped():
    # a free point (0) over a bottom side of collinear samples (1, 2, 3, 4); the
    # flat simplex (1, 2, 3) on the hull is the kind qhull returns for them
    pts = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [2.0, 0.0],
                    [2.0, 2.0], [0.0, 2.0]])
    simplices = np.array([[1, 3, 0], [1, 2, 3], [3, 4, 0], [4, 5, 0], [5, 6, 0], [6, 1, 0]])
    kept = meshmod._KeptDelaunay.from_simplices(pts, 1, simplices)
    assert kept.hull_fixed
    assert kept.flat.tolist() == [False, True, False, False, False, False]
    # 2 lies inside the circle through 1, 3, 0: the failing edge (1, 3) borders
    # the flat simplex, whose side is rounding noise, so qhull takes over
    assert not _still_delaunay(kept, pts)
    rebuilt, qhull = kept.refreshed(pts)
    assert qhull
    assert np.array_equal(_canonical(rebuilt.simplices), _canonical(Delaunay(pts).simplices))


def test_flat_hull_simplices_stay_out_of_the_mesh(caplog):
    # straight sides on the convex hull: qhull returns flat simplices of their
    # collinear samples, whose centroids lie on the boundary
    dom = geometry.build_domain(geometry.PolygonSpec((
        (0.7653, 0.4602), (0.8777, 0.7803), (0.7736, 0.8306), (-0.3944, 0.9082),
        (-0.2476, 0.4874), (-0.6368, 0.853), (-0.7741, 0.5983), (-0.3916, -0.4555),
        (-0.5122, -0.6473), (0.456, -0.2789),
    )))
    for h in (0.05, 0.04):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dtnlab"):
            msh = generate_mesh(dom, h)
        assert validate_mesh(msh, dom).ok
        for record in caplog.records:
            # attempts fail only on long edges, never on a broken boundary
            assert "boundary edges" not in record.getMessage(), record.getMessage()
            assert "non-positive" not in record.getMessage(), record.getMessage()


def _star_polygon(angles, radii):
    """The polygon with vertices at ``radii`` along the sorted ``angles``,
    star-shaped about the origin, coordinates rounded to 4 decimals."""
    return geometry.PolygonSpec(tuple(
        (round(r * math.cos(t), 4), round(r * math.sin(t), 4))
        for t, r in zip(sorted(angles), radii)
    ))


def _mesh_checking_ccw(dom, h):
    """Mesh ``dom`` at ``h`` and check the result and every triangulation
    the mesher keeps on the way: CCW on the simplices that are not flat."""
    real = meshmod._KeptDelaunay.from_simplices.__func__

    def from_simplices(cls, pts, n_free, simplices):
        kept = real(cls, pts, n_free, simplices)
        assert (meshmod._orientation(pts, kept.simplices)[~kept.flat] > 0).all()
        return kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshmod._KeptDelaunay, "from_simplices", classmethod(from_simplices))
        msh = generate_mesh(dom, h)
    assert validate_mesh(msh, dom).ok
    assert (msh.signed_areas() > 0).all()


@settings(max_examples=15, deadline=None)
@given(
    shape=st.integers(5, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0, 2 * math.pi, exclude_max=True), min_size=n, max_size=n, unique=True),
        st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n),
    )),
    h=st.sampled_from([0.05, 0.08]),
)
def test_star_polygons_mesh_ccw_or_raise(shape, h):
    try:
        dom = geometry.build_domain(_star_polygon(*shape))
    except geometry.GeometryError:
        assume(False)
    try:
        _mesh_checking_ccw(dom, h)
    except MeshError:
        pass


@pytest.mark.parametrize("seed", range(30))
def test_seeded_star_polygons_mesh_ccw(seed):
    # a third of these put straight sides on the hull, where qhull returns
    # flat simplices of collinear samples
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 13))
    spec = _star_polygon(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.5, 1.0, n))
    _mesh_checking_ccw(geometry.build_domain(spec), (0.05, 0.08)[seed % 2])


def _step0(monkeypatch, dom, h, scale):
    """The points and triangles of one mesh attempt before smoothing, and the
    sizes of the point sets qhull saw."""
    calls, seeds = [], []
    real_seed = meshmod._seed

    def counting_delaunay(pts):
        calls.append(len(pts))
        return Delaunay(pts)

    monkeypatch.setattr(meshmod, "Delaunay", counting_delaunay)
    monkeypatch.setattr(meshmod, "_seed", lambda *args: seeds.append(real_seed(*args)) or seeds[0])
    monkeypatch.setattr(meshmod, "N_SMOOTH", 0)
    meshmod._build_once(dom, h, scale)
    monkeypatch.undo()
    pts, _, kept, _ = seeds[0]
    return pts, kept.simplices, calls


@pytest.mark.parametrize("scale", [1.0, 0.88])
@pytest.mark.parametrize("spec, h", [
    (geometry.DiskSpec(1.0), 0.04),
    (geometry.RectangleSpec(1.0, 2.0), 0.04),
    (geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3), 0.016),
    (geometry.RegularPolygonSpec(5, 1.0), 0.02),
    (geometry.KochSpec(1, 2.0), 0.04),
])
def test_band_step0_is_the_delaunay_triangulation(monkeypatch, spec, h, scale):
    dom = geometry.build_domain(spec)
    pts, simplices, calls = _step0(monkeypatch, dom, h, scale)
    assert calls and max(calls) < len(pts) // 2  # qhull saw the band only
    fresh = Delaunay(pts).simplices
    assert len(simplices) == len(fresh)
    # every interior edge passes the incircle test, fixed-point edges too
    kept = meshmod._KeptDelaunay.from_simplices(pts, len(pts), simplices)
    assert _still_delaunay(replace(kept, hull_fixed=True), pts)

    def inside(t):
        return t[dom.contains(pts[t].mean(axis=1))]

    assert np.array_equal(_canonical(inside(simplices)), _canonical(inside(fresh)))
    if not isinstance(spec, geometry.KochSpec):
        # Koch's notches hold cocircular boundary samples outside the domain,
        # where qhull and the band may pick either diagonal
        assert np.array_equal(_canonical(simplices), _canonical(fresh))


def test_catalog_meshes_never_run_qhull_on_all_points(monkeypatch):
    calls, full = [], []
    real = meshmod._KeptDelaunay.from_simplices.__func__

    def counting_delaunay(pts):
        calls.append(len(pts))
        return Delaunay(pts)

    def from_simplices(cls, pts, n_free, simplices):
        full.append(len(pts))
        return real(cls, pts, n_free, simplices)

    monkeypatch.setattr(meshmod, "Delaunay", counting_delaunay)
    monkeypatch.setattr(meshmod._KeptDelaunay, "from_simplices", classmethod(from_simplices))
    for spec, h in [
        (geometry.DiskSpec(1.0), 0.04),
        (geometry.RectangleSpec(1.0, 2.0), 0.04),
        (geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3), 0.016),
        (geometry.KochSpec(1, 2.0), 0.04),
        (geometry.DiskSpec(1.0), 0.025),
    ]:
        calls.clear()
        full.clear()
        generate_mesh(geometry.build_domain(spec), h)
        assert calls and max(calls) < min(full), (spec, calls, full)


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
    # the reference: qhull on all points, at every pass (a band that does not
    # fit makes step 0 fall back to it)
    monkeypatch.setattr(meshmod, "_band_delaunay", lambda *args: None)
    monkeypatch.setattr(meshmod._KeptDelaunay, "refreshed",
                        lambda self, pts: (meshmod._KeptDelaunay.build(pts, self.n_free), True))
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
