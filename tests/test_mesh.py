import functools
import logging
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import Delaunay

from dtnlab import geometry
from dtnlab import mesh as meshmod
from dtnlab.fem import assemble
from dtnlab.mesh import (
    Mesh,
    MeshError,
    export_mesh,
    generate_mesh,
    validate_mesh,
)
from dtnlab.pipeline import solve

from conftest import four_triangle_square, seeded_star_polygon, star_polygon


def test_disk_mesh_invariants(disk_domain, disk_mesh):
    assert validate_mesh(disk_mesh, disk_domain) == []


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
        assert validate_mesh(msh, dom) == [], spec


def test_sharp_corner_triangle_meshes():
    dom = geometry.build_domain(geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3))
    msh = generate_mesh(dom, 0.05)
    assert validate_mesh(msh, dom) == []
    # the pi/12 corner hosts triangles below the generic floor, by necessity
    assert msh.min_angles_deg().min() < 20.0


def test_export_import_round_trip(tmp_path, disk_mesh):
    """``mesh.txt`` holds the mesh exactly: 17 significant digits give the
    nodes back bit for bit."""
    path = tmp_path / "disk.mesh"
    export_mesh(disk_mesh, path)
    lines = path.read_text().splitlines()
    n_nodes = disk_mesh.n_nodes
    n_tri = len(disk_mesh.triangles)
    assert lines[0] == f"nodes {disk_mesh.n_interior} {disk_mesh.n_boundary}"
    nodes = np.loadtxt(lines[1 : 1 + n_nodes], dtype=float, ndmin=2)
    assert np.array_equal(nodes, disk_mesh.nodes)  # bit-exact
    assert lines[1 + n_nodes] == f"triangles {n_tri}"
    tris = np.loadtxt(lines[2 + n_nodes : 2 + n_nodes + n_tri], dtype=np.int64, ndmin=2)
    assert np.array_equal(tris, disk_mesh.triangles)
    assert lines[2 + n_nodes + n_tri] == f"boundary_edges {len(disk_mesh.boundary_edges)}"
    bedges = np.loadtxt(lines[3 + n_nodes + n_tri :], dtype=np.int64, ndmin=2)
    assert np.array_equal(bedges, disk_mesh.boundary_edges)


def test_validate_reports_out_of_range_index():
    m = four_triangle_square()
    triangles = m.triangles.copy()
    triangles[0, 0] = 99
    violations = validate_mesh(replace(m, triangles=triangles))
    # the index check ends the check: no later one reads a node past the end
    assert violations == ["triangle references a node index out of range"]


def test_validate_reports_boundary_edge_off_triangle():
    # without triangle (0, 1, 2) the side (1, 2) of the loop is on no
    # triangle, and the centre's edges (0, 1) and (0, 2) are on one each
    m = four_triangle_square()
    violations = validate_mesh(replace(m, triangles=m.triangles[1:]))
    assert violations == [
        "1 boundary edges not belonging to exactly one triangle",
        "2 single-triangle edges are not declared boundary edges",
    ]


def test_validate_reports_boundary_loop_not_at_the_tail():
    # the square's nodes with the centre last: node 0, a corner, is counted
    # interior, so the loop of the last nodes runs through the centre. Its
    # edges (3, 4) and (4, 1) are on two triangles each, and the sides
    # (0, 1) and (3, 0) on one each are left out of it
    m = Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]),
        n_interior=1,
        triangles=np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]]),
        h_max=1.5,
    )
    assert validate_mesh(m) == [
        "2 boundary edges not belonging to exactly one triangle",
        "2 single-triangle edges are not declared boundary edges",
    ]


@pytest.mark.parametrize("n_interior", [-1, 3, 5])
def test_validate_reports_no_boundary_loop(n_interior):
    """A node split that leaves fewer than 3 boundary nodes ends the check."""
    m = replace(four_triangle_square(), n_interior=n_interior)
    assert validate_mesh(m) == [f"n_interior={n_interior} leaves fewer than 3 of 5 nodes for the boundary loop"]


def _interior_triangle(msh):
    """Index of a triangle with all three vertices interior."""
    return int(np.flatnonzero((msh.triangles < msh.n_interior).all(axis=1))[0])


def test_validate_reports_a_hole(disk_domain):
    """A mesh with one interior triangle removed is the mesh of a domain with
    a hole, whose edges are single-triangle edges but no boundary edges."""
    msh = generate_mesh(disk_domain, 0.2)
    holed = replace(msh, triangles=np.delete(msh.triangles, _interior_triangle(msh), axis=0))
    violations = validate_mesh(holed, disk_domain)
    assert violations == ["3 single-triangle edges are not declared boundary edges"]


def test_validate_reports_a_non_manifold_edge(disk_domain):
    msh = generate_mesh(disk_domain, 0.2)
    extra = msh.triangles[[_interior_triangle(msh)]]
    doubled = replace(msh, triangles=np.vstack([msh.triangles, extra]))
    violations = validate_mesh(doubled, disk_domain)
    assert violations == ["3 edges with incidence count other than 1 or 2"]


def test_validate_reports_flipped_triangle():
    m = four_triangle_square()
    triangles = m.triangles.copy()
    triangles[0] = triangles[0][::-1]
    violations = validate_mesh(replace(m, triangles=triangles))
    assert "1 triangles with non-positive signed area" in violations


def test_validate_reports_skinny_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.02]])
    m = Mesh(nodes=nodes, n_interior=0, triangles=np.array([[0, 1, 2]]), h_max=2.0)
    assert any("quality floor" in v for v in validate_mesh(m))


def test_quality_floor_reports_the_worst_counted_triangle():
    """A triangle whose worst angle sits at a sharp input corner is exempt
    from the floor, and it does not set the reported worst angle either."""
    dom = geometry.build_domain(geometry.TriangleSpec(2.0, math.radians(5.0), math.radians(90.0)))
    t5, t15 = math.tan(math.radians(5.0)), math.tan(math.radians(15.0))
    m = Mesh(
        # a 5-degree triangle at the sharp corner (0, 0), a 15-degree one away from it
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, t5], [2.0, 0.0], [1.5, 0.5 * t15]]),
        n_interior=0,
        triangles=np.array([[0, 1, 2], [1, 3, 4]]),
        h_max=2.0,
    )
    floor = [v for v in validate_mesh(m, dom) if "quality floor" in v]
    assert floor == ["1 triangles below the 20.0 degree quality floor (worst 15.00)"]


def test_validate_reports_long_edges():
    # the square's sides are length 1
    violations = validate_mesh(replace(four_triangle_square(), h_max=0.5))
    assert any("longer than h_max" in v for v in violations)


def test_validate_reports_undeclared_and_stray_boundary_edges():
    # corners 2 and 3 swapped in the node list: the loop 1, 3, 2, 4 declares
    # the diagonals (1, 3) and (2, 4), which are no edges, and leaves the
    # sides (1, 2) and (3, 4) undeclared. The direction of an edge does not
    # matter: the loop's (3, 2) is the side (2, 3)
    m = four_triangle_square()
    swap = np.array([0, 1, 3, 2, 4])
    violations = validate_mesh(replace(m, nodes=m.nodes[swap], triangles=swap[m.triangles]))
    assert violations == [
        "2 boundary edges not belonging to exactly one triangle",
        "2 single-triangle edges are not declared boundary edges",
    ]


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
    violations = validate_mesh(replace(msh, nodes=nodes), dom)
    tol = 1e-9 if dom.is_polygon else 1e-6
    assert f"1 boundary nodes further than {tol:g} from the boundary" in violations
    assert "1 interior nodes touching the boundary" in violations


def test_boundary_loop_is_the_tail_of_the_nodes(disk_mesh):
    """The node split is the mesh's one statement of its boundary: the
    record stores no boundary of its own, and the loop closes on itself."""
    assert [f.name for f in fields(Mesh)] == ["nodes", "n_interior", "triangles", "h_max"]
    b = np.arange(disk_mesh.n_interior, disk_mesh.n_nodes)
    assert disk_mesh.n_boundary == len(b)
    assert np.array_equal(disk_mesh.boundary_edges[:, 0], b)
    assert np.array_equal(disk_mesh.boundary_edges[:, 1], np.roll(b, -1))


# the derived counts and edges are read-only too
@pytest.mark.parametrize("field", [f.name for f in fields(Mesh)] + ["n_boundary", "boundary_edges"])
def test_mesh_is_frozen(disk_mesh, field):
    with pytest.raises(FrozenInstanceError):
        setattr(disk_mesh, field, getattr(disk_mesh, field))


def test_valid_handmade_mesh_passes():
    assert validate_mesh(four_triangle_square()) == []


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
QUAD_MOVING = np.arange(len(QUAD)) < 4


def _all_held(pts):
    """Every point's simplices held: a triangulation with no fixed core."""
    return np.ones(len(pts), dtype=bool)


def _canonical(triangles):
    t = np.sort(triangles, axis=1)
    return t[np.lexsort(t.T[::-1])]


def _still_delaunay(kept, pts):
    """True when the kept simplices are a Delaunay triangulation of ``pts``:
    flips have nothing to repair and no edge fails the incircle test."""
    bad = kept.failing_edges(pts)
    return bad is not None and not bad.any()


def test_kept_delaunay_accepts_small_move_rejects_flip_and_inversion():
    kept = meshmod._KeptDelaunay.build(QUAD, QUAD_MOVING, _all_held(QUAD))
    assert kept.hull_fixed
    assert _still_delaunay(kept, QUAD)
    small = QUAD.copy()
    small[3] += [-0.02, 0.01]
    assert _still_delaunay(kept, small)
    # point 3 inside the circle through 0, 1, 2: qhull flips the diagonal
    flip = QUAD.copy()
    flip[3] = [0.2, 0.5]
    assert not _still_delaunay(kept, flip)
    fresh = meshmod._KeptDelaunay.build(flip, QUAD_MOVING, _all_held(flip)).simplices
    assert not np.array_equal(_canonical(fresh), _canonical(kept.simplices))
    # point 1 pushed out through the frame edge (5, 6) inverts triangle
    # (6, 1, 5); no incircle test sees a hull edge, the orientation check does
    invert = QUAD.copy()
    invert[1] = [3.2, 0.3]
    assert not _still_delaunay(kept, invert)


def test_kept_delaunay_with_moving_hull_point_is_never_reused():
    # the same quad on its own: moving points on the hull could fold the hull
    # inward without inverting a triangle, so the rule does not apply
    kept = meshmod._KeptDelaunay.build(QUAD[:4], QUAD_MOVING[:4], _all_held(QUAD[:4]))
    assert not kept.hull_fixed
    assert not _still_delaunay(kept, QUAD[:4])


def test_flip_repair_matches_fresh_qhull():
    kept = meshmod._KeptDelaunay.build(QUAD, QUAD_MOVING, _all_held(QUAD))
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
    kept = meshmod._KeptDelaunay.from_simplices(pts, np.arange(len(pts)) < 1, simplices,
                                                _all_held(pts))
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
        assert validate_mesh(msh, dom) == []
        for record in caplog.records:
            # attempts fail only on long edges, never on a broken boundary
            assert "boundary edges" not in record.getMessage(), record.getMessage()
            assert "non-positive" not in record.getMessage(), record.getMessage()


def _mesh_checking_ccw(dom, h):
    """Mesh ``dom`` at ``h`` and check the result and every triangulation
    the mesher keeps on the way: CCW on the simplices that are not flat."""
    real = meshmod._KeptDelaunay.from_simplices.__func__

    def from_simplices(cls, pts, moving, simplices, held):
        kept = real(cls, pts, moving, simplices, held)
        assert (meshmod._orientation(pts, kept.simplices)[~kept.flat] > 0).all()
        return kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshmod._KeptDelaunay, "from_simplices", classmethod(from_simplices))
        msh = generate_mesh(dom, h)
    assert validate_mesh(msh, dom) == []
    assert (msh.signed_areas() > 0).all()


# (angles, radii) of a star polygon with 5 to 12 vertices
STAR_SHAPES = st.integers(5, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0, 2 * math.pi, exclude_max=True), min_size=n, max_size=n, unique=True),
    st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n),
))


def _star_domain(shape):
    try:
        return geometry.build_domain(star_polygon(*shape))
    except geometry.GeometryError:
        assume(False)


@settings(max_examples=15, deadline=None)
@given(shape=STAR_SHAPES, h=st.sampled_from([0.05, 0.08]))
def test_star_polygons_mesh_ccw_or_raise(shape, h):
    dom = _star_domain(shape)
    try:
        _mesh_checking_ccw(dom, h)
    except MeshError:
        pass


@settings(max_examples=15, deadline=None)
@given(shape=STAR_SHAPES, h=st.sampled_from([0.05, 0.08]), t=st.sampled_from([0.5, 2.0]))
def test_star_polygons_obey_the_scaling_law(shape, h, t):
    """A power of two scales every coordinate, comparison and incircle
    determinant exactly, so the mesh of t Omega at t h is t times the mesh of
    Omega at h, and mu_{t Omega}(p) = mu_Omega(p t^2) / t."""
    dom = _star_domain(shape)
    scaled = geometry.build_domain(
        geometry.PolygonSpec(tuple((t * x, t * y) for x, y in dom.spec.vertices))
    )
    try:
        msh = generate_mesh(dom, h)
    except MeshError:
        with pytest.raises(MeshError):
            generate_mesh(scaled, t * h)
        return
    big = generate_mesh(scaled, t * h)
    assert np.array_equal(big.nodes, t * msh.nodes)
    assert np.array_equal(big.triangles, msh.triangles)
    mu = solve(assemble(msh), t * t, 6)[1].eigenvalues / t
    mu_scaled = solve(assemble(big), 1.0, 6)[1].eigenvalues
    assert np.allclose(mu_scaled, mu, rtol=1e-9, atol=0)


SMOOTH_SHAPES = st.one_of(
    st.builds(geometry.EllipseSpec, st.floats(0.6, 1.2), st.floats(0.4, 1.0)),
    st.builds(geometry.DeformedDiskSpec, st.floats(-0.1, 0.1), st.integers(2, 6)),
)


@settings(max_examples=15, deadline=None)
@given(spec=SMOOTH_SHAPES, h=st.sampled_from([0.08, 0.1]), p=st.floats(0.01, 100.0))
@example(spec=geometry.EllipseSpec(1.0, 0.5), h=0.08, p=1.0)
@example(spec=geometry.DeformedDiskSpec(0.02, 5), h=0.1, p=30.0)
def test_smooth_shapes_obey_the_pencil_laws(spec, h, p):
    """Laws of the discrete pencil S(p) v = mu M_b v that hold up to rounding:
    dS/dp = E^T M E is positive semidefinite for the discrete harmonic
    extension E, so no mu_k falls as p doubles; at p = 0 the constants are
    the kernel of S; and the vectors are orthonormal in the spectrum's
    ``boundary_mass``."""
    matrices = assemble(generate_mesh(geometry.build_domain(spec), h))
    at_p, at_2p, at_0 = (solve(matrices, q, 6)[1] for q in (p, 2 * p, 0.0))
    assert (at_2p.eigenvalues >= at_p.eigenvalues * (1 - 1e-10)).all()
    assert abs(at_0.eigenvalues[0]) <= 1e-10
    v0 = at_0.vectors[:, 0]
    assert np.ptp(v0) <= 1e-10 * np.abs(v0).max()
    for spectrum in (at_p, at_2p, at_0):
        v = spectrum.vectors
        assert np.abs(v.T @ (spectrum.boundary_mass @ v) - np.eye(6)).max() <= 1e-10


@settings(max_examples=15, deadline=None)
@given(spec=SMOOTH_SHAPES, h=st.sampled_from([0.08, 0.1]))
@example(spec=geometry.KochSpec(1), h=0.1)
@example(spec=geometry.TriangleSpec(), h=0.05)
def test_small_p_slope_is_the_volume_over_perimeter_ratio(spec, h):
    """mu_0(p) = p (1^T M 1)/(1^T M_b 1) + O(p^2): the constants span the
    kernel of S(0), and dS/dp = E^T M E with E 1 = 1, so the first-order
    slope is the discrete |Omega|/|dOmega|."""
    matrices = assemble(generate_mesh(geometry.build_domain(spec), h))
    p = 1e-4
    slope = matrices.mass.sum() / matrices.boundary_mass.sum()
    mu0 = solve(matrices, p, 1)[1].eigenvalues[0]
    assert abs(mu0 / p - slope) <= 1e-3 * slope


# the catalog polygons, each with the h and p of its solve
RIGID_CASES = {
    "rectangle": (geometry.RectangleSpec(1.0, 2.0), 0.05, 3.0),
    "koch": (geometry.KochSpec(1, 2.0), 0.05, 30.0),
    "triangle": (geometry.TriangleSpec(2.0, math.pi / 12, math.pi / 3), 0.03, 30.0),
}


@functools.lru_cache(maxsize=None)
def _polygon_mu(vertices, h, p):
    """The lowest 8 eigenvalues of the polygon of ``vertices`` (a tuple of
    pairs) at mesh size h and pressure p."""
    dom = geometry.build_domain(geometry.PolygonSpec(vertices))
    return solve(assemble(generate_mesh(dom, h)), p, 8)[1].eigenvalues


def _turn(angle):
    c, s = math.cos(angle), math.sin(angle)
    return lambda v: v @ np.array([[c, s], [-s, c]])


# each motion of the vertices, and the relative change of mu it may make
RIGID_MOTIONS = {
    "shift_near": (lambda v: v + [0.3, -1.7], 1e-5),
    "shift_far": (lambda v: v + [12.5, 7.25], 1e-5),
    "turn_90deg": (_turn(math.pi / 2), 5e-3),
    "turn_0.3rad": (_turn(0.3), 5e-3),
}


@pytest.mark.parametrize("shape", list(RIGID_CASES))
@pytest.mark.parametrize("motion", list(RIGID_MOTIONS))
def test_spectrum_is_invariant_under_rigid_motions(shape, motion):
    """The Steklov spectrum does not change when the domain is translated or
    rotated. The mesher lays its lattice from the boundary's bounding box, so
    a translation moves the mesh with the domain: mu moved by at most
    1.4e-14 relative on the rectangle and Koch, and by 1.2e-6 to 3.4e-6 on
    the sharp triangle. A rotation meshes the domain anew, and mu moved by
    6.4e-5 to 1.5e-3, the discretization error at these h."""
    spec, h, p = RIGID_CASES[shape]
    move, tol = RIGID_MOTIONS[motion]
    vertices = geometry.build_domain(spec).vertices
    moved = move(vertices)
    mu = _polygon_mu(tuple(map(tuple, vertices)), h, p)
    mu_moved = _polygon_mu(tuple(map(tuple, moved)), h, p)
    assert np.abs(mu_moved / mu - 1).max() <= tol


@pytest.mark.parametrize("h", [0.1, 0.02])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-7, 1e-9, 1e-12])
def test_short_edge_fails_every_attempt(h, eps):
    """A known limit of the mesher: a vertex (1 + eps/64, eps) by the unit
    square's corner (1, 0) is a corner of about 179.1 degrees and leaves an
    edge of length eps, which no attempt meshes. From eps = 1e-3 to 1e-6
    triangles at it stay below the quality floor, from 1e-7 on the edge is
    on no triangle; each attempt fails. A mesher that meshes it updates this
    test."""
    vertex = (1 + eps / 64, eps)
    dom = geometry.build_domain(geometry.PolygonSpec(((0, 0), (1, 0), vertex, (1, 1), (0, 1))))
    with pytest.raises(MeshError, match="did not converge"):
        generate_mesh(dom, h)


@pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-7, 1e-9, 1e-12])
def test_straight_vertex_is_no_corner(h, eps):
    """A vertex (1, eps) on the unit square's right side is exactly
    straight: the domain drops it, while its spec keeps it, and the square
    meshes exactly as the plain one does, with no short edge."""
    spec = geometry.PolygonSpec(((0, 0), (1, 0), (1, eps), (1, 1), (0, 1)))
    dom = geometry.build_domain(spec)
    plain = geometry.build_domain(geometry.PolygonSpec(((0, 0), (1, 0), (1, 1), (0, 1))))
    assert len(spec.vertices) == 5
    assert np.array_equal(dom.vertices, plain.vertices)
    assert np.array_equal(dom.angles, plain.angles)
    assert (dom.area, dom.perimeter) == (plain.area, plain.perimeter)
    msh, ref = generate_mesh(dom, h), generate_mesh(plain, h)
    assert np.array_equal(msh.nodes, ref.nodes) and np.array_equal(msh.triangles, ref.triangles)


@pytest.mark.parametrize("seed", range(30))
def test_seeded_star_polygons_mesh_ccw(seed):
    # a third of these put straight sides on the hull, where qhull returns
    # flat simplices of collinear samples
    _mesh_checking_ccw(geometry.build_domain(seeded_star_polygon(seed)), (0.05, 0.08)[seed % 2])


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
    pts, _, simplices, _ = seeds[0]
    return pts, simplices, calls


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
    kept = meshmod._KeptDelaunay.from_simplices(pts, _all_held(pts), simplices, _all_held(pts))
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

    def from_simplices(cls, pts, moving, simplices, held):
        full.append(len(pts))
        return real(cls, pts, moving, simplices, held)

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
                        lambda self, pts: (meshmod._KeptDelaunay.build(pts, self.moving, self.held), True))
    fresh = generate_mesh(dom, h)
    assert n_reused < len(calls) - n_reused  # the triangulation was reused
    assert reused.n_interior == fresh.n_interior
    assert reused.n_boundary == fresh.n_boundary
    assert np.array_equal(_canonical(reused.triangles), _canonical(fresh.triangles))
    assert np.abs(reused.nodes - fresh.nodes).max() < 1e-12


@pytest.mark.parametrize("spec, h, flip_rounds", [
    (geometry.DiskSpec(1.0), 0.04, meshmod.MAX_FLIP_ROUNDS),
    (geometry.DiskSpec(1.0), 0.025, meshmod.MAX_FLIP_ROUNDS),
    (geometry.RectangleSpec(1.0, 2.0), 0.04, meshmod.MAX_FLIP_ROUNDS),
    (geometry.TriangleSpec(2.0, np.pi / 12, np.pi / 3), 0.016, meshmod.MAX_FLIP_ROUNDS),
    (geometry.KochSpec(1, 2.0), 0.04, meshmod.MAX_FLIP_ROUNDS),
    (geometry.DeformedDiskSpec(0.1, 5), 0.03, meshmod.MAX_FLIP_ROUNDS),
    # no flip rounds: every refresh is the qhull fallback, which must keep the
    # held simplices only, or the fixed core's triangles come twice
    (geometry.DiskSpec(1.0), 0.04, 0),
])
def test_fixed_core_gives_the_mesh_of_every_lattice_point_moving(monkeypatch, spec, h, flip_rounds):
    """The lattice points outside the band would move by rounding only, so
    keeping them fixed gives the mesh, and the attempts, of smoothing every
    lattice point."""
    dom = geometry.build_domain(spec)
    monkeypatch.setattr(meshmod, "MAX_FLIP_ROUNDS", flip_rounds)
    counts = []
    real = meshmod._build_once

    def build_once(*args):
        out = real(*args)
        counts.append(out[2:])  # (band, fixed core) lattice points
        return out

    monkeypatch.setattr(meshmod, "_build_once", build_once)
    banded = generate_mesh(dom, h)
    n_attempts = len(counts)
    assert all(n_core > 0 for _, n_core in counts)
    monkeypatch.setattr(meshmod, "_moving_band", lambda simplices, core: np.ones(len(core), dtype=bool))
    every = generate_mesh(dom, h)
    assert len(counts) == 2 * n_attempts
    assert all(n_core == 0 for _, n_core in counts[n_attempts:])
    assert every.n_interior == banded.n_interior
    assert every.n_boundary == banded.n_boundary
    assert np.array_equal(_canonical(every.triangles), _canonical(banded.triangles))
    assert np.abs(every.nodes - banded.nodes).max() <= 1e-14


def test_neighbor_average_moves_exactly_the_masked_points():
    # a mask that is no prefix: two quad points and one frame corner move
    tris = Delaunay(QUAD).simplices
    moving = np.zeros(len(QUAD), dtype=bool)
    moving[[1, 3, 6]] = True
    new = meshmod._neighbor_average(QUAD, tris, moving)
    assert np.array_equal(new[~moving], QUAD[~moving])
    for i in np.flatnonzero(moving):
        # the mean over the point's triangles of their other two vertices
        around = tris[(tris == i).any(axis=1)]
        assert np.allclose(new[i], QUAD[around[around != i]].mean(axis=0), rtol=0, atol=1e-15)
        assert not np.array_equal(new[i], QUAD[i])


def test_fixed_core_keeps_its_seed_coordinates(monkeypatch):
    """Smoothing writes only the band: every core lattice point outside it
    ends in the mesh at its seed coordinate, bit for bit."""
    seeds, bands = [], []
    real_seed, real_band = meshmod._seed, meshmod._moving_band
    monkeypatch.setattr(meshmod, "_seed", lambda *args: seeds.append(real_seed(*args)) or seeds[-1])
    monkeypatch.setattr(meshmod, "_moving_band",
                        lambda *args: bands.append(real_band(*args)) or bands[-1])
    msh = generate_mesh(geometry.build_domain(geometry.DiskSpec(1.0)), 0.04)
    pts, core, _, _ = seeds[-1]
    fixed = pts[:len(core)][core & ~bands[-1]]
    assert len(fixed) > 0 and bands[-1].any()
    interior = set(map(tuple, msh.nodes[:msh.n_interior].tolist()))
    assert all(p in interior for p in map(tuple, fixed.tolist()))
    # the band did move: smoothing is not a no-op on the points it may move
    band = pts[:len(core)][bands[-1]]
    assert sum(p not in interior for p in map(tuple, band.tolist())) > len(band) // 2


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
    # at every h, the finest included, the mesher meshes the caller's own
    # domain (stopped here before any meshing is done)
    seen = []

    def stop(domain, h, scale):
        seen.append(domain)
        raise MeshError("stop")

    monkeypatch.setattr(meshmod, "_build_once", stop)
    with pytest.raises(MeshError, match="stop"):
        generate_mesh(dom, 0.0015)
    assert seen[0] is dom
    assert_untouched()
    for f in fields(dom):
        with pytest.raises(FrozenInstanceError):
            setattr(dom, f.name, getattr(dom, f.name))


def _spike(degrees):
    """A quadrilateral whose corner at (2, 0) is ``degrees`` wide."""
    y = 1.7 * math.tan(math.radians(degrees))
    return geometry.PolygonSpec(((0.0, 0.0), (2.0, 0.0), (0.3, y), (0.0, 1.0)))


def test_corner_floor_rejects_spikes_before_meshing():
    # at h = 0.05 the 0.1-degree spike grades into 11,925 boundary samples,
    # and meshing them fails only after seconds
    with pytest.raises(geometry.GeometryError, match="below the 1-degree floor"):
        geometry.build_domain(_spike(0.1))
    dom = geometry.build_domain(_spike(1.0))
    assert np.degrees(dom.angles.min()) < 1.0  # the floor's margin admits it
    assert validate_mesh(generate_mesh(dom, 0.05), dom) == []


def test_failed_mesh_attempts_are_logged(monkeypatch, caplog):
    dom = geometry.build_domain(geometry.DiskSpec(1.0))
    calls = iter([["fake violation"], []])
    real_validate = meshmod.validate_mesh

    def flaky_validate(mesh, domain=None):
        return real_validate(mesh, domain) + next(calls)

    monkeypatch.setattr(meshmod, "validate_mesh", flaky_validate)
    with caplog.at_level(logging.DEBUG, logger="dtnlab"):
        generate_mesh(dom, 0.1)
    (record,) = [r for r in caplog.records if r.name == "dtnlab"]
    assert record.levelno == logging.DEBUG
    msg = record.getMessage()
    assert "attempt 1" in msg and "scale 1" in msg and "qhull" in msg
    assert "band" in msg and "fixed core" in msg
    assert "fake violation" in msg
