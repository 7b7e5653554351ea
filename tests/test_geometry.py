import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtnlab import geometry
from dtnlab.mesh import generate_mesh
from dtnlab.geometry import (
    DeformedDiskSpec,
    DiskSpec,
    EllipseSpec,
    GeometryError,
    KochSpec,
    PolygonSpec,
    RectangleSpec,
    RegularPolygonSpec,
    TriangleSpec,
    build_domain,
    reflex_octagon_vertices,
    spec_from_json,
    spec_to_json,
)

PI = math.pi


def test_disk_metrics_exact():
    d = build_domain(DiskSpec(radius=1.5))
    assert abs(d.area - PI * 1.5**2) < 1e-12
    assert abs(d.perimeter - 2 * PI * 1.5) < 1e-12


def test_regular_pentagon_angles():
    d = build_domain(RegularPolygonSpec(5))
    assert np.allclose(d.angles, 3 * PI / 5, atol=1e-12)


def test_triangle_third_angle():
    d = build_domain(TriangleSpec(side=2, angle1=PI / 12, angle2=PI / 3))
    angles = np.sort(d.angles)
    assert np.allclose(angles, [PI / 12, PI / 3, 7 * PI / 12], atol=1e-12)


def test_koch_generation_one_structure():
    d = build_domain(KochSpec(generation=1, side=2.0))
    assert len(d.vertices) == 12
    angles = d.angles
    sharp = np.isclose(angles, PI / 3, atol=1e-9).sum()
    reflex = np.isclose(angles, 4 * PI / 3, atol=1e-9).sum()
    assert sharp == 6
    assert reflex == 6


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_koch_perimeter_and_segment_count(g):
    d = build_domain(KochSpec(generation=g, side=2.0))
    assert len(d.vertices) == 3 * 4**g
    assert abs(d.perimeter - 3 * 2.0 * (4 / 3) ** g) < 1e-12
    # closed-form area: A0 * (8/5 - (3/5)(4/9)^g)
    a0 = math.sqrt(3)
    assert abs(d.area - a0 * (8 / 5 - (3 / 5) * (4 / 9) ** g)) < 1e-12


def test_koch_sharp_corner_count_follows_generation():
    for g in (1, 2):
        d = build_domain(KochSpec(generation=g, side=2.0))
        sharp = np.isclose(d.angles, PI / 3, atol=1e-9).sum()
        assert sharp == 2 + 4**g


def test_square_angle_sequence():
    d = build_domain(RectangleSpec(2.0, 2.0))
    assert np.allclose(d.angles, PI / 2, atol=1e-12)


def test_polygon_angles_sum():
    for spec in (RegularPolygonSpec(7), KochSpec(1), TriangleSpec()):
        d = build_domain(spec)
        n = len(d.vertices)
        assert abs(d.angles.sum() - (n - 2) * PI) < 1e-9


def test_reflex_octagon_realizes_target_angles():
    d = build_domain(PolygonSpec(vertices=tuple(map(tuple, reflex_octagon_vertices()))))
    angles = np.sort(d.angles)
    target = np.sort(
        [PI / 12, PI / 12, PI / 4, PI / 4, 1.9064, 1.5 * PI - 1.9064, 23 * PI / 12, 23 * PI / 12]
    )
    assert np.allclose(angles, target, atol=1e-7)


def test_smooth_domain_has_no_angles():
    assert build_domain(DiskSpec()).angles is None


def test_distance_disk_center():
    d = build_domain(DiskSpec())
    assert abs(d.distance_to_boundary(np.array([0.0, 0.0])) - 1.0) < 1e-12


def test_distance_square_center_and_vertex():
    d = build_domain(RectangleSpec(2.0, 2.0))
    assert abs(d.distance_to_boundary(np.array([1.0, 1.0])) - 1.0) < 1e-12
    assert d.distance_to_boundary(np.array([0.0, 0.0])) == 0.0


def test_distance_outside_points():
    d = build_domain(DiskSpec())
    assert abs(d.distance_to_boundary(np.array([2.0, 0.0])) - 1.0) < 1e-12
    sq = build_domain(RectangleSpec(1.0, 1.0))
    assert abs(sq.distance_to_boundary(np.array([2.0, 0.5])) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    x1=st.floats(-2, 2), y1=st.floats(-2, 2),
    x2=st.floats(-2, 2), y2=st.floats(-2, 2),
)
def test_distance_is_one_lipschitz(x1, y1, x2, y2):
    d = build_domain(EllipseSpec(1.0, 0.5))
    p1 = np.array([x1, y1])
    p2 = np.array([x2, y2])
    d1 = d.distance_to_boundary(p1)
    d2 = d.distance_to_boundary(p2)
    assert abs(d1 - d2) <= np.linalg.norm(p1 - p2) + 1e-9


@pytest.mark.parametrize("spec", [
    EllipseSpec(1.0, 0.5), DeformedDiskSpec(0.02, 5), DiskSpec(1.0), KochSpec(1, 2.0),
])
@pytest.mark.parametrize("upper", [0.0, 0.013, 0.3])
def test_bounded_distance_is_exact_up_to_the_bound(spec, upper, rng):
    d = build_domain(spec)
    pts = np.vstack([rng.uniform(-1.6, 1.6, (4000, 2)), d.boundary_loop(0.05)])
    exact = d.distance_to_boundary(pts)
    bounded = d.distance_to_boundary(pts, upper=upper)
    near = exact <= upper
    assert near.any() and (~near).any()
    assert np.array_equal(bounded[near], exact[near])
    assert np.isinf(bounded[~near]).all()
    assert d.distance_to_boundary(pts[0], upper=upper) == bounded[0]


def distance_to_segments_all_pairs(points, seg_a, seg_b):
    """The former formula, with (points x segments x 2) temporaries."""
    d = seg_b - seg_a
    len2 = np.maximum((d * d).sum(axis=1), 1e-300)
    diff = points[:, None, :] - seg_a[None, :, :]
    t = np.clip((diff * d[None, :, :]).sum(axis=2) / len2[None, :], 0.0, 1.0)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.hypot(points[:, None, 0] - proj[:, :, 0], points[:, None, 1] - proj[:, :, 1])
    return dist.min(axis=1)


REFLEX_OCTAGON = PolygonSpec(vertices=tuple(map(tuple, reflex_octagon_vertices())))


@pytest.mark.parametrize(
    "spec", [KochSpec(1, 2.0), TriangleSpec(2.0, PI / 12, PI / 3), REFLEX_OCTAGON]
)
def test_distance_to_segments_matches_all_pairs_formula(spec, rng):
    d = build_domain(spec)
    lo, hi = d.vertices.min(axis=0), d.vertices.max(axis=0)
    pts = np.vstack([
        lo + (hi - lo) * rng.uniform(-0.1, 1.1, (3000, 2)),
        d.boundary_loop(0.02),
        d.vertices,
    ])
    expected = distance_to_segments_all_pairs(pts, d.vertices, np.roll(d.vertices, -1, axis=0))
    assert np.array_equal(d.distance_to_boundary(pts), expected)


@pytest.mark.parametrize("spec, h", [
    (KochSpec(1, 2.0), 0.06),
    (TriangleSpec(2.0, PI / 12, PI / 3), 0.04),
    (REFLEX_OCTAGON, 0.04),
])
def test_mesh_unchanged_by_segment_loop(monkeypatch, spec, h):
    mesh = generate_mesh(build_domain(spec), h)
    monkeypatch.setattr(geometry, "_distance_to_segments", distance_to_segments_all_pairs)
    former = generate_mesh(build_domain(spec), h)
    assert np.array_equal(mesh.nodes, former.nodes)
    assert np.array_equal(mesh.triangles, former.triangles)


def test_deformed_disk_metrics():
    g = 0.02
    d = build_domain(DeformedDiskSpec(amplitude=g, mode=5))
    assert abs(d.area - PI * (1 + g * g / 2)) < 1e-10
    assert d.perimeter > 2 * PI  # perturbation lengthens the boundary


def test_boundary_loop_polygon_has_all_vertices():
    d = build_domain(RectangleSpec(2.0, 1.0))
    pts = d.boundary_loop(0.3)
    for v in d.vertices:
        assert np.min(np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1])) < 1e-12
    seg = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
    assert seg.max() <= 0.3 + 1e-12


def test_boundary_loop_smooth_spacing_and_on_curve():
    d = build_domain(DiskSpec())
    pts = d.boundary_loop(0.1)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.abs(r - 1).max() < 1e-12
    seg = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
    assert seg.max() <= 0.1


def test_contains_basic():
    d = build_domain(KochSpec(1))
    assert d.contains(np.array([[1.0, 0.5]]))[0]
    assert not d.contains(np.array([[10.0, 10.0]]))[0]


@pytest.mark.parametrize(
    "bad",
    [
        DiskSpec(radius=-1.0),
        EllipseSpec(a=0.0, b=1.0),
        RectangleSpec(b1=1.0, b2=-2.0),
        RegularPolygonSpec(n_sides=2),
        TriangleSpec(side=2, angle1=2.0, angle2=2.0),
        DeformedDiskSpec(amplitude=1.01),
        KochSpec(generation=-1),
    ],
)
def test_invalid_specs_raise(bad):
    with pytest.raises(GeometryError):
        build_domain(bad)


def test_self_intersecting_polygon_rejected():
    bowtie = PolygonSpec(vertices=((0, 0), (1, 1), (1, 0), (0, 1)))
    with pytest.raises(GeometryError):
        build_domain(bowtie)


def test_clockwise_polygon_rejected():
    cw = PolygonSpec(vertices=((0, 0), (0, 1), (1, 1), (1, 0)))
    with pytest.raises(GeometryError):
        build_domain(cw)


@pytest.mark.parametrize(
    "spec",
    [
        DiskSpec(2.0),
        EllipseSpec(1.0, 0.5),
        RectangleSpec(1.0, 2.0),
        RegularPolygonSpec(6, 1.5),
        TriangleSpec(2.0, PI / 12, PI / 3),
        PolygonSpec(vertices=((0.0, 0.0), (1.0, 0.0), (0.5, 1.0))),
        KochSpec(2, 2.0),
        DeformedDiskSpec(0.02, 5),
    ],
)
def test_spec_json_round_trip(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_rejects_missing_tag():
    with pytest.raises(GeometryError):
        spec_from_json('{"radius": 1.0}')


@pytest.mark.parametrize(
    "text",
    [
        '{"shape": "disk", "radus": 2}',  # unknown field
        '{"shape": "regular_polygon", "n_sides": 5, "r": 3}',  # unknown beside known
        '{"shape": "ellipse", "a": 1.0}',  # missing field
        '{"shape": "polygon"}',  # missing vertices
        '{"shape": "koch_snowflake", "generation": "two"}',  # malformed value
        '{"shape": "polygon", "vertices": [[0, 0], [1], [0, 1]]}',  # malformed vertex
        '["disk"]',  # not an object
        '{"shape": "disk", ',  # not JSON
    ],
)
def test_spec_json_rejects_bad_fields(text):
    with pytest.raises(GeometryError):
        spec_from_json(text)


def test_make_spec_converts_by_declared_type():
    spec = geometry.make_spec("regular_polygon", {"n_sides": "5", "circumradius": "2"})
    assert spec == RegularPolygonSpec(5, 2.0)
    assert isinstance(spec.n_sides, int) and isinstance(spec.circumradius, float)
    assert geometry.make_spec("disk", {}) == DiskSpec(1.0)
    with pytest.raises(GeometryError):
        geometry.make_spec("blob", {})
