"""Conforming triangular meshes with interior-first node ordering.

Node layout contract: indices 0..n_interior-1 are strictly inside the domain,
indices n_interior..n_interior+n_boundary-1 lie on the boundary in CCW order.
That ordering is what the boundary Schur complement slices against.

The generator samples the boundary, fills the interior with a hexagonal
lattice, takes the Delaunay triangulation of the union, keeps triangles whose
centroid is inside the domain, and relaxes interior nodes by neighbor
averaging. Constants are tuned so that edge lengths stay below the requested
h and the min-angle floor holds away from sharp input corners.

Smoothing moves the interior nodes a little at a time, so the Delaunay
triangulation is kept from one pass to the next and qhull runs again only
when the moved nodes break it: when a triangle changes or loses its
orientation, or an interior edge with a moving endpoint fails the incircle
test (an exact form of the DistMesh rule, Persson & Strang, SIAM Review 46,
2004). By the Delaunay lemma a kept triangulation that passes both checks is
the Delaunay triangulation of the moved nodes, so meshes are the ones a fresh
triangulation per pass gives, up to the order of the triangles, rounding in
the smoothing sums and the diagonal of near-cocircular quads.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay

from .geometry import Domain

MIN_ANGLE_DEG = 20.0
SHARP_CORNER_DEG = 40.0  # corners below this cannot host 20-degree triangles
# an edge stays Delaunay unless the opposite vertex is inside the circumcircle
# by more than this, relative to |a - d|^2 |b - d|^2: near-ties are kept
INCIRCLE_MARGIN = 1e-9

log = logging.getLogger("dtnlab")


class MeshError(RuntimeError):
    """Mesh generation or file-format failure."""


@dataclass
class Mesh:
    nodes: np.ndarray            # (n_nodes, 2)
    n_interior: int
    n_boundary: int
    triangles: np.ndarray        # (n_tri, 3) CCW
    boundary_edges: np.ndarray   # (n_boundary, 2) consecutive CCW pairs
    h_max: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def boundary_indices(self) -> np.ndarray:
        return np.arange(self.n_interior, self.n_interior + self.n_boundary)

    def signed_areas(self) -> np.ndarray:
        return 0.5 * _orientation(self.nodes, self.triangles)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges and their triangle-incidence counts."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        base = int(e.max(initial=-1)) + 1
        keys, counts = np.unique(_edge_keys(e, base), return_counts=True)
        uniq = np.stack([keys // base, keys % base], axis=1).astype(t.dtype)
        return uniq, counts

    def angles_deg(self) -> np.ndarray:
        """(n_tri, 3) interior angles, column i at corner ``triangles[:, i]``."""
        p = self.nodes[self.triangles]
        angs = np.empty((len(self.triangles), 3))
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosv = (a * b).sum(axis=1) / np.maximum(
                np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]), 1e-300
            )
            angs[:, i] = np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))
        return angs

    def min_angles_deg(self) -> np.ndarray:
        return self.angles_deg().min(axis=1)


def _orientation(pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle; positive when it is CCW."""
    p = pts[tris]
    return (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _edge_keys(pairs: np.ndarray, base: int) -> np.ndarray:
    """One integer per undirected node pair, min * base + max: for indices in
    [0, base) the keys sort like the pairs (min, max) lexicographically."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs.min(axis=1) * base + pairs.max(axis=1)


def _edge_incidence(edges: np.ndarray, counts: np.ndarray, pairs: np.ndarray):
    """Triangle-incidence count of each node pair in ``pairs`` (0 for a pair
    that is no mesh edge), looked up in the output of ``Mesh.edges``, and the
    mask of those edges that are one of ``pairs``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    base = int(max(edges.max(initial=-1), pairs.max(initial=-1))) + 1
    keys = _edge_keys(edges, base)
    want = _edge_keys(pairs, base)
    found = np.zeros(len(want), dtype=counts.dtype)
    if len(keys):
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = (keys[pos] == want) & (pairs.min(axis=1) >= 0)
        found[hit] = counts[pos[hit]]
    return found, np.isin(keys, want[pairs.min(axis=1) >= 0])


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _hex_lattice(lo: np.ndarray, hi: np.ndarray, a: float) -> np.ndarray:
    xs = np.arange(lo[0] - a, hi[0] + a, a)
    ys = np.arange(lo[1] - a, hi[1] + a, a * math.sqrt(3) / 2)
    gx, gy = np.meshgrid(xs, ys)
    gx[::2] += a / 2
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


@dataclass
class _KeptDelaunay:
    """A qhull Delaunay triangulation, kept to be tested against moved points.

    ``quads`` holds each interior edge (a, b) with a moving endpoint or
    opposite vertex (index < n_free) as a row (a, b, c, d): c and d are the
    vertices opposite the edge, (a, b, c) a rotation of a simplex whose
    orientation sign is the row's ``quad_signs`` entry. Edges among fixed
    boundary samples are left out: they never change, and they hold exact
    cocircular ties (symmetric graded points around a sharp corner, equally
    spaced points on straight sides) that rounding would flag at random.
    """

    simplices: np.ndarray
    signs: np.ndarray
    quads: np.ndarray
    quad_signs: np.ndarray
    hull_fixed: bool

    @classmethod
    def build(cls, pts: np.ndarray, n_free: int) -> "_KeptDelaunay":
        tri = Delaunay(pts)
        s, nb = tri.simplices, tri.neighbors
        # neighbor j of simplex i lies across the edge opposite its vertex j;
        # i < neighbor takes each interior edge once
        i, j = np.nonzero(nb > np.arange(len(s))[:, None])
        n = nb[i, j]
        d = s[n, np.argmax(nb[n] == i[:, None], axis=1)]
        quads = np.stack([s[i, (j + 1) % 3], s[i, (j + 2) % 3], s[i, j], d], axis=1)
        signs = np.sign(_orientation(pts, s))
        moving = quads.min(axis=1) < n_free
        return cls(s, signs, quads[moving], signs[i[moving]],
                   bool(tri.convex_hull.min() >= n_free))

    def still_delaunay(self, pts: np.ndarray) -> bool:
        """True when the kept simplices are a Delaunay triangulation of
        ``pts``: the hull is made of fixed points, every simplex keeps its
        orientation sign and every tested edge passes the incircle test."""
        if not self.hull_fixed:
            return False
        if not np.array_equal(np.sign(_orientation(pts, self.simplices)), self.signs):
            return False
        a, b, c, d = (pts[self.quads[:, k]] for k in range(4))
        ad, bd, cd = a - d, b - d, c - d
        la, lb, lc = ((v * v).sum(axis=1) for v in (ad, bd, cd))
        # > 0 iff d lies inside the circle through a, b, c taken CCW
        incircle = (
            ad[:, 0] * (bd[:, 1] * lc - lb * cd[:, 1])
            - ad[:, 1] * (bd[:, 0] * lc - lb * cd[:, 0])
            + la * (bd[:, 0] * cd[:, 1] - bd[:, 1] * cd[:, 0])
        )
        return not (self.quad_signs * incircle > INCIRCLE_MARGIN * la * lb).any()


def _neighbor_average(pts: np.ndarray, tris: np.ndarray, n_free: int) -> np.ndarray:
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    dst = np.concatenate([tris[:, i] for i, _ in pairs])
    src = np.concatenate([tris[:, j] for _, j in pairs])
    # bincount sums in input order, so each node's neighbor sum is formed in
    # the same order as with one add per (i, j) corner pair
    acc = np.stack(
        [np.bincount(dst, weights=pts[src, c], minlength=len(pts)) for c in range(2)],
        axis=1,
    )
    cnt = np.bincount(dst, minlength=len(pts)).astype(float)
    new = pts.copy()
    mask = cnt[:n_free] > 0
    new[:n_free][mask] = acc[:n_free][mask] / cnt[:n_free][mask, None]
    return new


def _build_once(domain: Domain, h: float, scale: float, n_smooth: int = 8):
    """One mesh at boundary/lattice spacing ``scale`` times the nominal one,
    and the number of qhull calls it took."""
    hb = 0.66 * h * scale
    a = 0.70 * h * scale
    clip = 0.62 * hb

    bpts = domain.boundary_loop(hb)
    nb = len(bpts)

    lo, hi = bpts.min(axis=0), bpts.max(axis=0)
    lattice = _hex_lattice(lo, hi, a)
    inside = domain.contains(lattice)
    lattice = lattice[inside]
    lattice = lattice[domain.distance_to_boundary(lattice) > clip]

    pts = np.vstack([lattice, bpts])
    n_free = len(lattice)
    kept, n_qhull = None, 0
    for step in range(n_smooth + 1):
        if kept is None or not kept.still_delaunay(pts):
            kept = _KeptDelaunay.build(pts, n_free)
            n_qhull += 1
        tris = kept.simplices[domain.contains(pts[kept.simplices].mean(axis=1))]
        if step == n_smooth:
            break
        new = _neighbor_average(pts, tris, n_free)
        moved = new[:n_free]
        bad = domain.distance_to_boundary(moved) < 0.45 * hb
        bad |= ~domain.contains(moved)
        moved[bad] = pts[:n_free][bad]
        pts = new

    # drop interior points that ended up unused
    used = np.zeros(len(pts), dtype=bool)
    used[tris.ravel()] = True
    used[n_free:] = True
    if not used.all():
        remap = -np.ones(len(pts), dtype=np.int64)
        remap[used] = np.arange(used.sum())
        pts = pts[used]
        tris = remap[tris]
        n_free = int(used[:n_free].sum())

    # renumber interior-first / boundary-last-CCW (already in that layout)
    flip = _orientation(pts, tris) < 0
    tris[flip] = tris[flip][:, ::-1]

    bidx = np.arange(n_free, n_free + nb)
    bedges = np.stack([bidx, np.roll(bidx, -1)], axis=1)
    return Mesh(
        nodes=pts,
        n_interior=n_free,
        n_boundary=nb,
        triangles=tris,
        boundary_edges=bedges,
        h_max=h,
    ), n_qhull


def _corner_exempt_mask(
    mesh: Mesh, domain: Domain | None, angles: np.ndarray
) -> np.ndarray:
    """True for triangles whose worst angle (of ``mesh.angles_deg()``) sits at
    a sharp input corner."""
    exempt = np.zeros(len(mesh.triangles), dtype=bool)
    if domain is None or not domain.is_polygon:
        return exempt
    sharp = [v for v, ang in domain.corners if math.degrees(ang) < SHARP_CORNER_DEG]
    if not sharp:
        return exempt
    sharp = np.asarray(sharp)
    worst = mesh.triangles[np.arange(len(angles)), angles.argmin(axis=1)]
    worst_xy = mesh.nodes[worst]
    for v in sharp:
        exempt |= np.hypot(worst_xy[:, 0] - v[0], worst_xy[:, 1] - v[1]) < 1e-12
    return exempt


def generate_mesh(domain: Domain, h: float) -> Mesh:
    """Generate a conforming triangulation with target max edge length ``h``."""
    if not (h > 0):
        raise MeshError("mesh size h must be positive")
    diameter = 2.0 * math.sqrt(domain.area / math.pi) + domain.perimeter / math.pi
    if h > 0.5 * diameter:
        raise MeshError(f"h={h} too large to resolve the domain")

    # a finer polyline for distance queries on smooth boundaries, on a copy
    domain = domain.refined(min(h / 2, 1e-3))
    scale = 1.0
    last_problems: list[str] = []
    for attempt in range(1, 5):
        mesh, n_qhull = _build_once(domain, h, scale)
        report = validate_mesh(mesh, domain)
        if report.ok:
            return mesh
        last_problems = report.violations
        log.debug(
            "mesh attempt %d at scale %.4g failed after %d qhull calls: %s",
            attempt, scale, n_qhull, "; ".join(last_problems[:3]),
        )
        scale *= 0.88
    raise MeshError(
        "mesh refinement did not converge; remaining violations: "
        + "; ".join(last_problems[:8])
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class MeshReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_mesh(mesh: Mesh, domain: Domain | None = None) -> MeshReport:
    """Check every mesh invariant; report is empty iff the mesh is valid."""
    v: list[str] = []
    n = mesh.n_nodes
    if mesh.n_interior + mesh.n_boundary != n:
        v.append("node count mismatch: n_interior + n_boundary != n_nodes")
    if mesh.triangles.min(initial=0) < 0 or mesh.triangles.max(initial=-1) >= n:
        v.append("triangle references a node index out of range")
        return MeshReport(v)

    areas = mesh.signed_areas()
    n_flipped = int((areas <= 0).sum())
    if n_flipped:
        v.append(f"{n_flipped} triangles with non-positive signed area")

    edges, counts = mesh.edges()
    edge_len = np.hypot(
        mesh.nodes[edges[:, 0], 0] - mesh.nodes[edges[:, 1], 0],
        mesh.nodes[edges[:, 0], 1] - mesh.nodes[edges[:, 1], 1],
    )
    n_long = int((edge_len > mesh.h_max * (1 + 1e-12)).sum())
    if n_long:
        v.append(f"{n_long} edges longer than h_max={mesh.h_max} (max {edge_len.max():.6g})")

    b_counts, declared = _edge_incidence(edges, counts, mesh.boundary_edges)
    bad_b = int((b_counts != 1).sum())
    if bad_b:
        v.append(f"{bad_b} boundary edges not belonging to exactly one triangle")
    n_nonmanifold = int(((counts != 1) & (counts != 2)).sum())
    if n_nonmanifold:
        v.append(f"{n_nonmanifold} edges with incidence count other than 1 or 2")
    # every single-incidence edge must be a declared boundary edge
    stray = int(((counts == 1) & ~declared).sum())
    if stray:
        v.append(f"{stray} single-triangle edges are not declared boundary edges")

    angles = mesh.angles_deg()
    min_angles = angles.min(axis=1)
    exempt = _corner_exempt_mask(mesh, domain, angles)
    n_skinny = int(((min_angles < MIN_ANGLE_DEG) & ~exempt).sum())
    if n_skinny:
        v.append(
            f"{n_skinny} triangles below the {MIN_ANGLE_DEG} degree quality floor "
            f"(worst {min_angles.min():.2f})"
        )

    if domain is not None:
        bnodes = mesh.nodes[mesh.boundary_indices]
        tol = 1e-9 if domain.is_polygon else max(1e-9, (1e-3) ** 2)
        d = domain.distance_to_boundary(bnodes)
        n_off = int((d > tol).sum())
        if n_off:
            v.append(f"{n_off} boundary nodes further than {tol:g} from the boundary")
        if mesh.n_interior:
            din = domain.distance_to_boundary(mesh.nodes[: mesh.n_interior])
            n_touch = int((din <= 0).sum())
            if n_touch:
                v.append(f"{n_touch} interior nodes touching the boundary")
    return MeshReport(v)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def export_mesh(mesh: Mesh, path) -> None:
    """Line-oriented text format; coordinates at 17 significant digits."""
    with open(path, "w") as f:
        f.write(f"nodes {mesh.n_interior} {mesh.n_boundary}\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.17g} {y:.17g}\n")
        f.write(f"triangles {len(mesh.triangles)}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")
        f.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
        for a, b in mesh.boundary_edges:
            f.write(f"{a} {b}\n")


def import_mesh(path) -> Mesh:
    """Parse the text format and check structural sanity."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    pos = 0

    def expect_header(tag: str, nfields: int):
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"unexpected end of file, expected '{tag}' header")
        parts = lines[pos].split()
        if parts[0] != tag or len(parts) != 1 + nfields:
            raise MeshError(f"malformed '{tag}' header: {lines[pos]!r}")
        pos += 1
        try:
            return [int(p) for p in parts[1:]]
        except ValueError:
            raise MeshError(f"non-integer count in '{tag}' header") from None

    ni, ne = expect_header("nodes", 2)
    if ni < 0 or ne < 3:
        raise MeshError("need n_interior >= 0 and n_boundary >= 3")
    ntot = ni + ne
    if pos + ntot > len(lines):
        raise MeshError("file truncated in node block")
    try:
        nodes = np.array(
            [[float(t) for t in lines[pos + i].split()] for i in range(ntot)]
        )
    except ValueError:
        raise MeshError("malformed node coordinate line") from None
    if nodes.shape != (ntot, 2):
        raise MeshError("node lines must hold exactly two coordinates")
    pos += ntot

    (nt,) = expect_header("triangles", 1)
    if pos + nt > len(lines):
        raise MeshError("file truncated in triangle block")
    tris = np.array(
        [[int(t) for t in lines[pos + i].split()] for i in range(nt)], dtype=np.int64
    )
    if tris.size and (tris.shape[1] != 3):
        raise MeshError("triangle lines must hold exactly three indices")
    pos += nt

    (nbe,) = expect_header("boundary_edges", 1)
    if pos + nbe > len(lines):
        raise MeshError("file truncated in boundary edge block")
    bedges = np.array(
        [[int(t) for t in lines[pos + i].split()] for i in range(nbe)], dtype=np.int64
    )
    if bedges.size and bedges.shape[1] != 2:
        raise MeshError("boundary edge lines must hold exactly two indices")

    mesh = Mesh(
        nodes=nodes,
        n_interior=ni,
        n_boundary=ne,
        triangles=tris,
        boundary_edges=bedges,
        h_max=np.inf,
    )
    if tris.size and (tris.min() < 0 or tris.max() >= ntot):
        raise MeshError("triangle references a node index out of range")
    if bedges.size and (bedges.min() < ni or bedges.max() >= ntot):
        raise MeshError("boundary edge references a non-boundary node (ordering violation)")
    if (mesh.signed_areas() <= 0).any():
        raise MeshError("non-conforming triangle with non-positive area")
    edges, counts = mesh.edges()
    b_counts, _ = _edge_incidence(edges, counts, bedges)
    if (b_counts != 1).any():
        a, b = bedges[np.flatnonzero(b_counts != 1)[0]]
        raise MeshError(f"boundary edge ({a},{b}) not on exactly one triangle")
    # infer a usable h_max for validation purposes
    el = np.hypot(
        nodes[edges[:, 0], 0] - nodes[edges[:, 1], 0],
        nodes[edges[:, 0], 1] - nodes[edges[:, 1], 1],
    )
    mesh.h_max = float(el.max()) if len(el) else np.inf
    return mesh
