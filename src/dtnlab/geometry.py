"""Planar domain catalog: shape specs, boundary parametrizations, corners, metrics.

Every domain is simply connected with a counterclockwise boundary. Polygonal
domains carry an explicit CCW vertex list; smooth domains carry a parametrization
theta -> point plus a dense polyline cache used for distance queries.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Union

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Invalid shape parameters or operations on the wrong domain kind."""


# ---------------------------------------------------------------------------
# shape specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskSpec:
    radius: float = 1.0


@dataclass(frozen=True)
class EllipseSpec:
    a: float  # semiaxis along x
    b: float  # semiaxis along y


@dataclass(frozen=True)
class RectangleSpec:
    b1: float
    b2: float


@dataclass(frozen=True)
class RegularPolygonSpec:
    n_sides: int
    circumradius: float = 1.0


@dataclass(frozen=True)
class TriangleSpec:
    """Triangle with one side of given length on the x-axis from the origin.

    ``angle1`` sits at the origin, ``angle2`` at (side, 0); the apex is the
    intersection of the two rays, so vertex coordinates are deterministic.
    """

    side: float = 2.0
    angle1: float = math.pi / 12
    angle2: float = math.pi / 3


@dataclass(frozen=True)
class PolygonSpec:
    """Generic simple polygon, vertices in CCW order."""

    vertices: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class KochSpec:
    generation: int
    side: float = 2.0


@dataclass(frozen=True)
class DeformedDiskSpec:
    """Radial perturbation of the unit disk: rho(theta) = 1 + amplitude*cos(mode*theta)."""

    amplitude: float
    mode: int = 5


DomainSpec = Union[
    DiskSpec,
    EllipseSpec,
    RectangleSpec,
    RegularPolygonSpec,
    TriangleSpec,
    PolygonSpec,
    KochSpec,
    DeformedDiskSpec,
]

_SHAPE_TAGS = {
    DiskSpec: "disk",
    EllipseSpec: "ellipse",
    RectangleSpec: "rectangle",
    RegularPolygonSpec: "regular_polygon",
    TriangleSpec: "triangle",
    PolygonSpec: "polygon",
    KochSpec: "koch_snowflake",
    DeformedDiskSpec: "deformed_disk",
}
_SPEC_BY_TAG = {tag: cls for cls, tag in _SHAPE_TAGS.items()}
# declared field type (a string: annotations are postponed) -> value conversion
_CONVERT = {"float": float, "int": int,
            "tuple[tuple[float, float], ...]": lambda v: tuple((float(x), float(y)) for x, y in v)}


def make_spec(tag: str, values: dict) -> DomainSpec:
    """The spec of shape ``tag`` from its field values, each converted by the
    field's declared type (so strings parse). An unknown tag, an unknown or
    missing field, or a value that does not convert raises ``GeometryError``."""
    cls = _SPEC_BY_TAG.get(tag)
    if cls is None:
        raise GeometryError(f"unknown shape tag {tag!r}")
    types = {f.name: f.type for f in fields(cls)}
    try:
        return cls(**{name: _CONVERT[types[name]](v) for name, v in values.items()})
    except KeyError as exc:
        raise GeometryError(f"unknown {tag} field {exc}; its fields are {list(types)}") from None
    except (TypeError, ValueError) as exc:  # a missing field, or a value that does not convert
        raise GeometryError(f"bad {tag} fields: {exc}") from None


def spec_to_json(spec: DomainSpec) -> str:
    """Serialize a shape spec to a JSON object with a "shape" tag."""
    return json.dumps({"shape": _SHAPE_TAGS[type(spec)], **asdict(spec)})


def spec_from_json(text: str) -> DomainSpec:
    """Inverse of :func:`spec_to_json`."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeometryError(f"malformed domain JSON: {exc}") from None
    if not isinstance(d, dict) or "shape" not in d:
        raise GeometryError("domain JSON must be an object with a 'shape' tag")
    return make_spec(d.pop("shape"), d)


# ---------------------------------------------------------------------------
# polygon primitives
# ---------------------------------------------------------------------------

def shoelace_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_perimeter(vertices: np.ndarray) -> float:
    d = np.roll(vertices, -1, axis=0) - vertices
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def interior_angles(vertices: np.ndarray) -> np.ndarray:
    """Interior angles in (0, 2pi) at each vertex of a CCW simple polygon."""
    prev = vertices - np.roll(vertices, 1, axis=0)
    nxt = np.roll(vertices, -1, axis=0) - vertices
    cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
    dot = (prev * nxt).sum(axis=1)
    turn = np.arctan2(cross, dot)
    return np.mod(math.pi - turn, TWO_PI)


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def is_simple_polygon(vertices: np.ndarray) -> bool:
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(*edges[i], *edges[j]):
                return False
    return True


def points_in_polygon(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized even-odd crossing test. Boundary points are not guaranteed either way."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    x1, y1 = vertices[:, 0], vertices[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for i in range(len(vertices)):
        cond = (y1[i] > y) != (y2[i] > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1[i] + (y - y1[i]) / (y2[i] - y1[i]) * (x2[i] - x1[i])
        inside ^= cond & (x < xi)
    return inside


# corners below this get graded sampling (``_edge_subdivision``) and cannot
# host 20-degree triangles (the mesher exempts them from its angle floor)
SHARP_ANGLE = math.radians(40.0)

# the largest spacing of the polyline that stands in for a smooth boundary in
# distance queries; the mesher's check of boundary nodes allows its square
POLYLINE_SPACING = 1e-3


def _edge_subdivision(length: float, spacing: float, ang0: float, ang1: float) -> np.ndarray:
    """Node positions along one polygon edge, in [0, length), endpoint included.

    Next to a sharp corner the nodes follow a geometric progression with ratio
    1 + 2 sin(angle/2): the wedge between the two arms then meshes as strips
    whose width (2 t sin(angle/2)) matches the local spacing, so triangle
    aspect ratios stay bounded all the way to the corner fan."""

    def graded(ang: float) -> list[float]:
        if ang >= SHARP_ANGLE:
            return []
        beta = 2.0 * math.sin(ang / 2.0)
        ts = []
        t = 0.5 * beta * spacing
        while t < min(spacing / beta, 0.45 * length):
            ts.append(t)
            t *= 1.0 + beta
        return ts

    g0 = graded(ang0)
    g1 = graded(ang1)
    a = g0[-1] if g0 else 0.0
    b = length - (g1[-1] if g1 else 0.0)
    n_mid = max(1, int(math.ceil((b - a) / spacing)))
    if not g0 and not g1:
        n_mid = max(2, n_mid)
    mid = [a + (b - a) * j / n_mid for j in range(1, n_mid)]
    ts = [0.0] + g0 + mid + [length - t for t in reversed(g1)]
    return np.array(sorted(set(ts)))


def _distance_to_segments(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a set of segments, one segment at a time."""
    out = np.full(len(points), np.inf)
    px, py = np.ascontiguousarray(points.T)
    for (ax, ay), (dx, dy) in zip(seg_a, seg_b - seg_a):
        len2 = max(dx * dx + dy * dy, 1e-300)
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / len2, 0.0, 1.0)
        np.minimum(out, np.hypot(px - (ax + t * dx), py - (ay + t * dy)), out=out)
    return out


# ---------------------------------------------------------------------------
# vertex constructions
# ---------------------------------------------------------------------------

def triangle_vertices(spec: TriangleSpec) -> np.ndarray:
    a1, a2 = spec.angle1, spec.angle2
    if not (0 < a1 and 0 < a2 and a1 + a2 < math.pi):
        raise GeometryError("triangle angles must be positive with angle1+angle2 < pi")
    if spec.side <= 0:
        raise GeometryError("triangle side must be positive")
    s = spec.side
    # apex = intersection of rays from (0,0) at angle1 and from (s,0) at pi-angle2
    denom = math.sin(a1) * math.cos(a2) + math.cos(a1) * math.sin(a2)
    t = s * math.sin(a2) / denom
    apex = np.array([t * math.cos(a1), t * math.sin(a1)])
    return np.array([[0.0, 0.0], [s, 0.0], apex])


def regular_polygon_vertices(spec: RegularPolygonSpec) -> np.ndarray:
    n, r = spec.n_sides, spec.circumradius
    if n < 3:
        raise GeometryError("regular polygon needs at least 3 sides")
    if r <= 0:
        raise GeometryError("circumradius must be positive")
    th = TWO_PI * np.arange(n) / n
    return r * np.stack([np.cos(th), np.sin(th)], axis=1)


def koch_vertices(spec: KochSpec) -> np.ndarray:
    if spec.generation < 0:
        raise GeometryError("Koch generation must be >= 0")
    if spec.side <= 0:
        raise GeometryError("Koch base side must be positive")
    s = spec.side
    pts = np.array([[0.0, 0.0], [s, 0.0], [s / 2, s * math.sqrt(3) / 2]])
    rot = np.array(
        [[math.cos(-math.pi / 3), -math.sin(-math.pi / 3)],
         [math.sin(-math.pi / 3), math.cos(-math.pi / 3)]]
    )
    for _ in range(spec.generation):
        nxt = np.roll(pts, -1, axis=0)
        third = (nxt - pts) / 3.0
        pa = pts + third
        pb = pts + 2.0 * third
        tip = pa + third @ rot.T  # outward bump (interior lies left of CCW edges)
        pts = np.stack([pts, pa, tip, pb], axis=1).reshape(-1, 2)
    return pts


def reflex_octagon_vertices() -> np.ndarray:
    """A simple CCW octagon with two pi/12 spikes, two reflex 23pi/12 corners,
    two pi/4 corners and two wide corners (1.9064 and 3pi/2 - 1.9064 radians).

    Used by the corner-asymptotics benchmarks; the exact coordinates were fixed
    once from a closure solve and are kept frozen for reproducibility.
    """
    return np.array(
        [
            (0.00000000, 0.00000000),
            (1.41752323, 0.00000000),
            (-0.02584882, -0.38675038),
            (0.98289719, -0.96915016),
            (1.94893839, -0.13612907),
            (0.90675134, -0.63929868),
            (1.82958613, 0.15646535),
            (0.85332784, 0.22864851),
        ]
    )


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

@dataclass
class Domain:
    """Realized domain: immutable after construction; safe for concurrent reads."""

    spec: DomainSpec
    area: float
    perimeter: float
    vertices: np.ndarray | None = None  # CCW vertex list for polygons
    angles: np.ndarray | None = None  # interior angle at each vertex; None when smooth
    parametrization: Callable[[np.ndarray], np.ndarray] | None = None
    _polyline: np.ndarray | None = field(default=None, repr=False)
    _polyline_tree: cKDTree | None = field(default=None, repr=False)
    _arclength_theta: np.ndarray | None = field(default=None, repr=False)
    _arclength_s: np.ndarray | None = field(default=None, repr=False)
    _contains_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    @property
    def is_polygon(self) -> bool:
        return self.vertices is not None

    # -- queries ------------------------------------------------------------

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_polygon:
            return points_in_polygon(self.vertices, points)
        return self._contains_fn(points)

    def distance_to_boundary(self, points: np.ndarray, upper: float = np.inf) -> np.ndarray:
        """Unsigned distance to the boundary; exact for polygons, polyline-based
        for smooth shapes (error <= spacing^2 / (2 * min curvature radius)).

        Distances up to ``upper`` are the unbounded ones bit for bit; larger
        ones read ``inf``. On smooth shapes other than the disk a finite
        ``upper`` bounds the nearest-vertex search, which is what makes deep
        interior points cheap."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scalar = np.asarray(points).ndim == 1
        if self.is_polygon:
            seg_a = self.vertices
            seg_b = np.roll(self.vertices, -1, axis=0)
            d = _distance_to_segments(pts, seg_a, seg_b)
        elif isinstance(self.spec, DiskSpec):
            d = np.abs(self.spec.radius - np.hypot(pts[:, 0], pts[:, 1]))
        else:
            poly = self._polyline
            n = len(poly)
            # the distance found below is at least the nearest-vertex distance
            # less half the longest segment, so a search bounded by upper plus
            # that half misses no point whose distance is under upper
            half_seg = 0.5 * np.hypot(*(np.roll(poly, -1, axis=0) - poly).T).max()
            near, idx = self._polyline_tree.query(
                pts, distance_upper_bound=(upper + half_seg) * (1 + 1e-12)
            )
            found = np.isfinite(near)
            pts, idx = pts[found], idx[found]
            # exact distance to the two polyline segments adjacent to the
            # nearest polyline vertex
            d_found = np.full(len(pts), np.inf)
            for off in (-1, 0):
                a = poly[(idx + off) % n]
                b = poly[(idx + off + 1) % n]
                ab = b - a
                len2 = np.maximum((ab * ab).sum(axis=1), 1e-300)
                t = np.clip(((pts - a) * ab).sum(axis=1) / len2, 0.0, 1.0)
                proj = a + t[:, None] * ab
                d_found = np.minimum(d_found, np.hypot(*(pts - proj).T))
            d = np.full(len(found), np.inf)
            d[found] = d_found
        d[d > upper] = np.inf
        return float(d[0]) if scalar else d

    def boundary_loop(self, spacing: float) -> np.ndarray:
        """CCW boundary nodes at arclength spacing <= ``spacing``.

        Polygon vertices are always included, with at least two segments per
        edge; edges next to sharp corners (interior angle < 40 degrees) get a
        geometrically graded subdivision so the thin wedge beyond the corner
        meshes with well-shaped triangles. Smooth boundaries get
        equal-arclength samples evaluated exactly on the curve.
        """
        if spacing <= 0:
            raise GeometryError("boundary spacing must be positive")
        if self.is_polygon:
            pts = []
            verts = self.vertices
            nxt = np.roll(verts, -1, axis=0)
            ang_next = np.roll(self.angles, -1)
            for a, b, ang0, ang1 in zip(verts, nxt, self.angles, ang_next):
                length = math.hypot(*(b - a))
                ts = _edge_subdivision(length, spacing, ang0, ang1)
                pts.append(a + (ts / length)[:, None] * (b - a))
            return np.vstack(pts)
        n = max(16, int(math.ceil(self.perimeter / spacing)))
        s_targets = self.perimeter * np.arange(n) / n
        theta = np.interp(s_targets, self._arclength_s, self._arclength_theta)
        return self.parametrization(theta)

    def refined(self, spacing: float) -> "Domain":
        """This domain with its smooth-boundary polyline at ``spacing`` or finer:
        ``self`` when the polyline already is that fine (and for polygons),
        otherwise a copy with rebuilt caches; ``self`` is never changed."""
        if self.is_polygon or not 0 < spacing < self.perimeter / len(self._polyline):
            return self
        copy = replace(self)
        _attach_smooth_caches(copy, spacing)
        return copy


def _polygon_domain(spec: DomainSpec, vertices: np.ndarray) -> Domain:
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    area = shoelace_area(vertices)
    if area <= 0:
        raise GeometryError("polygon vertices must be in CCW order with positive area")
    if not is_simple_polygon(vertices):
        raise GeometryError("polygon is self-intersecting")
    # a repeated vertex or an edge that doubles back on the one before it
    # passes the crossing test; both leave no room to mesh
    angles = interior_angles(vertices)
    edge_len = np.hypot(*(np.roll(vertices, -1, axis=0) - vertices).T)
    if not ((edge_len > 0).all() and (angles > 0).all()):
        raise GeometryError("polygon has a repeated vertex or a zero interior angle")
    return Domain(
        spec=spec,
        area=area,
        perimeter=polygon_perimeter(vertices),
        vertices=vertices,
        angles=angles,
    )


def _attach_smooth_caches(dom: Domain, spacing: float) -> None:
    n = max(4096, int(math.ceil(dom.perimeter / spacing)))
    th_dense = TWO_PI * np.arange(n + 1) / n
    pts = dom.parametrization(th_dense)
    seg = np.hypot(*np.diff(pts, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    # rescale to the exact perimeter so interpolation hits the endpoints
    s *= dom.perimeter / s[-1]
    dom._arclength_theta = th_dense
    dom._arclength_s = s
    dom._polyline = pts[:-1]
    dom._polyline_tree = cKDTree(dom._polyline)


def _smooth_domain(
    spec: DomainSpec,
    param: Callable[[np.ndarray], np.ndarray],
    area: float,
    perimeter: float,
    contains_fn: Callable[[np.ndarray], np.ndarray],
) -> Domain:
    dom = Domain(
        spec=spec,
        area=area,
        perimeter=perimeter,
        # ``param`` maps a 1-D float array of angles to (n, 2) points
        parametrization=lambda th: param(np.atleast_1d(np.asarray(th, dtype=float))),
        _contains_fn=contains_fn,
    )
    _attach_smooth_caches(dom, min(POLYLINE_SPACING, perimeter / 4096))
    return dom


def build_domain(spec: DomainSpec) -> Domain:
    """Realize a shape spec: corners, area, perimeter and boundary caches."""
    if isinstance(spec, DiskSpec):
        r = spec.radius
        if r <= 0:
            raise GeometryError("disk radius must be positive")

        def param(th, r=r):
            return r * np.stack([np.cos(th), np.sin(th)], axis=1)

        return _smooth_domain(
            spec, param, math.pi * r * r, TWO_PI * r,
            lambda p, r=r: np.hypot(p[:, 0], p[:, 1]) < r,
        )

    if isinstance(spec, EllipseSpec):
        a, b = spec.a, spec.b
        if a <= 0 or b <= 0:
            raise GeometryError("ellipse semiaxes must be positive")

        def param(th, a=a, b=b):
            return np.stack([a * np.cos(th), b * np.sin(th)], axis=1)

        big, small = max(a, b), min(a, b)
        perimeter = 4.0 * big * float(special.ellipe(1.0 - (small / big) ** 2))
        return _smooth_domain(
            spec, param, math.pi * a * b, perimeter,
            lambda p, a=a, b=b: (p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2 < 1.0,
        )

    if isinstance(spec, DeformedDiskSpec):
        g, m = spec.amplitude, spec.mode
        if abs(g) >= 1.0:
            raise GeometryError("deformed disk requires |amplitude| < 1 so rho stays positive")
        if m < 1:
            raise GeometryError("deformation mode must be >= 1")

        def param(th, g=g, m=m):
            r = 1.0 + g * np.cos(m * th)
            return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

        from scipy.integrate import quad  # the one quadrature: not loaded with the package

        area = math.pi * (1.0 + g * g / 2.0)
        perimeter = float(
            quad(
                lambda t: math.hypot(1.0 + g * math.cos(m * t), -g * m * math.sin(m * t)),
                0.0, TWO_PI, limit=400,
            )[0]
        )

        def contains(p, g=g, m=m):
            th = np.arctan2(p[:, 1], p[:, 0])
            return np.hypot(p[:, 0], p[:, 1]) < 1.0 + g * np.cos(m * th)

        return _smooth_domain(spec, param, area, perimeter, contains)

    if isinstance(spec, RectangleSpec):
        b1, b2 = spec.b1, spec.b2
        if b1 <= 0 or b2 <= 0:
            raise GeometryError("rectangle sides must be positive")
        verts = np.array([[0.0, 0.0], [b1, 0.0], [b1, b2], [0.0, b2]])
        return _polygon_domain(spec, verts)

    if isinstance(spec, RegularPolygonSpec):
        return _polygon_domain(spec, regular_polygon_vertices(spec))

    if isinstance(spec, TriangleSpec):
        return _polygon_domain(spec, triangle_vertices(spec))

    if isinstance(spec, PolygonSpec):
        return _polygon_domain(spec, np.asarray(spec.vertices, dtype=float))

    if isinstance(spec, KochSpec):
        return _polygon_domain(spec, koch_vertices(spec))

    raise GeometryError(f"unknown spec type {type(spec).__name__}")
