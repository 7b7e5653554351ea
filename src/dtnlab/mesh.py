"""Conforming triangular meshes with interior-first node ordering.

Node layout contract: indices 0..n_interior-1 are strictly inside the domain,
indices n_interior..n_interior+n_boundary-1 lie on the boundary in CCW order.
That ordering is what the boundary Schur complement slices against.

The generator samples the boundary, fills the interior with a hexagonal
lattice, takes the Delaunay triangulation of the union, keeps triangles whose
centroid is inside the domain, and relaxes interior nodes by neighbor
averaging. Constants are tuned so that edge lengths stay below the requested
h and the min-angle floor holds away from sharp input corners.

Lattice triangles around a lattice point far enough from the boundary are in
every Delaunay triangulation, so the first triangulation takes those in closed
form and runs qhull on the band of points near the boundary only
(``_band_delaunay``). Such a core point is the mean of its six lattice
neighbours, so a pass of neighbour averaging first moves it one pass after a
neighbour has moved: smoothing moves the band of lattice points that are not
core or within ``N_SMOOTH - 1`` edges of one (``_moving_band``), and keeps the
deeper core, which would move by rounding only, fixed like the boundary
samples. Smoothing moves the band a little at a time, so the triangulation of
the band and the points next to it is then kept from one pass to the next
and repaired where the moved nodes break it: edges that fail the incircle
test (an exact form of the DistMesh rule, Persson & Strang, SIAM Review 46,
2004) are flipped until all pass (Lawson 1977), and qhull runs on all points
only when a triangle stops being CCW, the rim of the kept triangles moves,
an edge of a flat simplex fails or the flips do not converge. By the
Delaunay lemma a triangulation that passes both checks is the Delaunay
triangulation of the moved nodes, so meshes are the ones a fresh qhull
triangulation per pass of every lattice point gives, up to the order of the
triangles, rounding in the smoothing sums, the diagonal of cocircular quads
and flat simplices: qhull makes those of collinear samples on the hull, and
they stay out of the mesh.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .geometry import POLYLINE_SPACING, SHARP_ANGLE, Domain

MIN_ANGLE_DEG = 20.0
# an edge stays Delaunay unless the opposite vertex is inside the circumcircle
# by more than this, relative to |a - d|^2 |b - d|^2: near-ties are kept
INCIRCLE_MARGIN = 1e-9
# rounds of edge flips before a refresh gives up and runs qhull on all points;
# the refreshes measured on the catalog meshes took 1-2
MAX_FLIP_ROUNDS = 20
# a triangle is flat when twice its area is under this times its longest edge
# squared: qhull's zero-area simplices of collinear samples, to rounding
FLAT_AREA = 1e-12
# neighbour-averaging passes of the band nodes (_moving_band) per mesh attempt
N_SMOOTH = 8

log = logging.getLogger("dtnlab")


class MeshError(RuntimeError):
    """Mesh generation failure."""


@dataclass(frozen=True)
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
    x, y = pts[:, 0], pts[:, 1]
    i, j, k = tris[:, 0], tris[:, 1], tris[:, 2]
    return (x[j] - x[i]) * (y[k] - y[i]) - (x[k] - x[i]) * (y[j] - y[i])


def _flat(pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """True for the triangles whose area is rounding noise (``FLAT_AREA``)."""
    p = [pts[tris[:, k]] for k in range(3)]
    sq = [((p[k] - p[k - 1]) ** 2).sum(axis=1) for k in range(3)]
    longest = np.maximum(np.maximum(sq[0], sq[1]), sq[2])
    return np.abs(_orientation(pts, tris)) <= FLAT_AREA * longest


def _edge_keys(pairs: np.ndarray, base: int) -> np.ndarray:
    """One integer per undirected node pair, min * base + max: for indices in
    [0, base) the keys sort like the pairs (min, max) lexicographically."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    # numpy reduces a 2-column axis many times slower than it takes the
    # elementwise minimum of the columns
    a, b = pairs[:, 0], pairs[:, 1]
    return np.minimum(a, b) * base + np.maximum(a, b)


def _edge_incidence(edges: np.ndarray, counts: np.ndarray, pairs: np.ndarray):
    """Triangle-incidence count of each node pair in ``pairs`` (0 for a pair
    that is no mesh edge), looked up in the output of ``Mesh.edges``, and the
    mask of those edges that are one of ``pairs``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    base = int(max(edges.max(initial=-1), pairs.max(initial=-1))) + 1
    keys = _edge_keys(edges, base)
    want = _edge_keys(pairs, base)
    valid = np.minimum(pairs[:, 0], pairs[:, 1]) >= 0
    found = np.zeros(len(want), dtype=counts.dtype)
    if len(keys):
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = (keys[pos] == want) & valid
        found[hit] = counts[pos[hit]]
    return found, np.isin(keys, want[valid])


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _hex_lattice(lo: np.ndarray, hi: np.ndarray, a: float) -> tuple[np.ndarray, tuple[int, int]]:
    """Hexagonal lattice points over the box, row by row, and the grid shape
    (rows, columns): point ``r * columns + c`` sits in row r, column c, and
    even rows are shifted right by a / 2."""
    xs = np.arange(lo[0] - a, hi[0] + a, a)
    ys = np.arange(lo[1] - a, hi[1] + a, a * math.sqrt(3) / 2)
    gx, gy = np.meshgrid(xs, ys)
    gx[::2] += a / 2
    return np.stack([gx.ravel(), gy.ravel()], axis=1), gx.shape


def _lattice_triangles(shape: tuple[int, int]) -> np.ndarray:
    """Every triangle of the hexagonal lattice of grid ``shape``, CCW, as
    grid indices: two per cell of rows r, r + 1 and columns c, c + 1."""
    ny, nx = shape
    r, c = np.meshgrid(np.arange(ny - 1), np.arange(nx - 1), indexing="ij")
    r, c = r.ravel(), c.ravel()
    lo, up = r * nx + c, (r + 1) * nx + c
    even = (r % 2 == 0)[:, None]
    # even rows sit a / 2 right of the odd rows next to them
    return np.concatenate([
        np.where(even, np.stack([lo, up + 1, up], axis=1), np.stack([lo, lo + 1, up], axis=1)),
        np.where(even, np.stack([lo, lo + 1, up + 1], axis=1), np.stack([lo + 1, up + 1, up], axis=1)),
    ])


def _circumcircles(pts: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters and circumradii of triangles of nonzero area."""
    a = pts[tris[:, 0]]
    b, c = pts[tris[:, 1]] - a, pts[tris[:, 2]] - a
    den = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    lb, lc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    u = np.stack([c[:, 1] * lb - b[:, 1] * lc, b[:, 0] * lc - c[:, 0] * lb], axis=1) / den[:, None]
    return a + u, np.hypot(u[:, 0], u[:, 1])


def _band_delaunay(pts: np.ndarray, grid: np.ndarray, shape: tuple[int, int],
                   core: np.ndarray) -> np.ndarray | None:
    """The Delaunay triangles of ``pts`` with qhull run on the band near the
    boundary only, or None when the pieces do not fit together.

    The first ``len(grid)`` points are lattice points (grid indices ``grid``),
    the rest boundary samples. A *core* lattice point is so far from the
    boundary that its six neighbours are lattice points and the circumcircles
    of the six lattice triangles around it (radius a / sqrt(3), within
    2a / sqrt(3) of the point) hold no other point: those triangles are in
    every Delaunay triangulation. qhull triangulates the other points; its
    simplices whose circumcircle strictly contains a core point span the hole
    and are dropped, and the lattice triangles with a core vertex fill it.
    """
    n_lattice = len(grid)
    band = np.concatenate([np.flatnonzero(~core), np.arange(n_lattice, len(pts))])
    sub = band[Delaunay(pts[band]).simplices]
    keep = np.ones(len(sub), dtype=bool)
    if core.any():
        # flat simplices of collinear samples have no circumcircle to speak
        # of; they lie on the hull, far from the core, and stay
        solid = np.flatnonzero(~_flat(pts, sub))
        center, radius = _circumcircles(pts, sub[solid])
        dist, _ = cKDTree(pts[:n_lattice][core]).query(center)
        keep[solid[dist < radius]] = False
    local = np.full(shape[0] * shape[1], -1, dtype=np.int64)
    local[grid] = np.arange(n_lattice)
    core_grid = np.zeros(len(local), dtype=bool)
    core_grid[grid[core]] = True
    lattice = _lattice_triangles(shape)
    lattice = local[lattice[core_grid[lattice].any(axis=1)]]
    # each point added inside the hull adds two triangles: a tie that left a
    # gap or an overlap changes the count
    if (lattice < 0).any() or keep.sum() + len(lattice) != len(sub) + 2 * int(core.sum()):
        return None
    return np.concatenate([sub[keep], lattice])


@dataclass
class _KeptDelaunay:
    """The part of a Delaunay triangulation that moving points can change,
    kept to be tested against moved points.

    ``moving`` marks the band, the lattice points that smoothing moves
    (``_moving_band``); the boundary samples and the deeper core stay fixed.
    ``held`` marks the band and every point next to it, and the boundary
    samples; ``simplices`` are the simplices with a vertex there, so both
    simplices of a quad with a moving vertex are among them. The others lie
    among fixed core points and stay as they are.

    Every simplex that is not flat is CCW: scipy's 2-D
    ``Delaunay.simplices`` are, so are the lattice triangles
    (``_lattice_triangles``), and an edge flip keeps it (``refreshed``). A
    simplex that stops being CCW when the points move is past repair by
    flips. ``flat`` marks the flat simplices (``_flat``), whose orientation
    is rounding noise; only fixed samples on the hull make them.

    ``quads`` holds each interior edge (a, b) with a moving endpoint or
    opposite vertex as a row (a, b, c, d): c and d are the vertices opposite
    the edge, (a, b, c) a rotation of simplex ``quad_tris[:, 0]`` and d a
    vertex of simplex ``quad_tris[:, 1]``. Edges among fixed points are left
    out: they never change, and among boundary samples they hold exact
    cocircular ties (symmetric graded points around a sharp corner, equally
    spaced points on straight sides) that rounding would flag at random.
    The edges on the rim of the held simplices, the hull and the side facing
    the fixed core, join fixed points only.
    """

    simplices: np.ndarray
    quads: np.ndarray
    quad_tris: np.ndarray
    flat: np.ndarray
    hull_fixed: bool
    moving: np.ndarray
    held: np.ndarray

    @classmethod
    def from_simplices(cls, pts: np.ndarray, moving: np.ndarray, simplices: np.ndarray,
                       held: np.ndarray) -> "_KeptDelaunay":
        """Neighbours, quads, flat simplices and rim of the simplices with a
        vertex where ``held`` is True, matched by the integer keys of their
        edges; ``simplices`` holds no other."""
        # qhull's index type: the mesh keeps its triangles' dtype, and the
        # temporaries below stay half the size
        s = np.asarray(simplices, dtype=np.int32)
        # row 3 i + j: the edge of simplex i opposite its vertex j
        opp = np.stack([s[:, [1, 2, 0]], s[:, [2, 0, 1]]], axis=2).reshape(-1, 2)
        keys = _edge_keys(opp, len(pts))
        order = np.argsort(keys, kind="stable")
        same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
        # the stable sort puts the lower simplex of an interior edge first
        first, second = order[same], order[same + 1]
        single = np.ones(len(opp), dtype=bool)
        single[first] = single[second] = False
        i, j = np.divmod(first, 3)
        quads = np.stack([opp[first, 0], opp[first, 1], s[i, j], s.ravel()[second]], axis=1)
        m = moving[quads]
        tested = m[:, 0] | m[:, 1] | m[:, 2] | m[:, 3]
        flat = np.zeros(len(s), dtype=bool)
        fixed = np.flatnonzero(~moving[s].any(axis=1))
        flat[fixed] = _flat(pts, s[fixed])
        return cls(s, quads[tested], np.stack([i, second // 3], axis=1)[tested], flat,
                   not moving[opp[single]].any(), moving, held)

    @classmethod
    def build(cls, pts: np.ndarray, moving: np.ndarray, held: np.ndarray) -> "_KeptDelaunay":
        """The simplices with a ``held`` vertex of the qhull triangulation of
        all of ``pts``."""
        s = Delaunay(pts).simplices
        return cls.from_simplices(pts, moving, s[held[s].any(axis=1)], held)

    def failing_edges(self, pts: np.ndarray) -> np.ndarray | None:
        """Mask of the tested edges that fail the incircle test at ``pts``, or
        None when flips cannot repair the kept simplices: a moving point is
        on the rim, or a simplex that is not flat stopped being CCW."""
        if not self.hull_fixed:
            return None
        if ((_orientation(pts, self.simplices) <= 0) & ~self.flat).any():
            return None
        # gathers from contiguous columns are faster than row gathers of pts
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        q = self.quads
        xd, yd = x[q[:, 3]], y[q[:, 3]]
        adx, ady, bdx, bdy, cdx, cdy = (
            v[q[:, k]] - vd for k in range(3) for v, vd in ((x, xd), (y, yd))
        )
        la, lb, lc = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
        # > 0 iff d lies inside the circle through a, b, c taken CCW
        incircle = (
            adx * (bdy * lc - lb * cdy)
            - ady * (bdx * lc - lb * cdx)
            + la * (bdx * cdy - bdy * cdx)
        )
        return incircle > INCIRCLE_MARGIN * la * lb

    def refreshed(self, pts: np.ndarray) -> tuple["_KeptDelaunay", bool]:
        """The held part of a Delaunay triangulation of the moved ``pts`` and
        whether qhull made it. Edges that fail the incircle test are flipped,
        one per simplex per round, until every edge passes (Lawson 1977);
        qhull runs on all points after a simplex stops being CCW, a moving
        rim point, a failing edge of a flat simplex (whose side is rounding
        noise) or ``MAX_FLIP_ROUNDS`` rounds of flips."""
        kept = self
        for _ in range(MAX_FLIP_ROUNDS):
            bad = kept.failing_edges(pts)
            if bad is None:
                break
            if not bad.any():
                return kept, False
            if kept.flat[kept.quad_tris[bad]].any():
                break
            s = kept.simplices.copy()
            touched = np.zeros(len(s), dtype=bool)
            for (a, b, c, d), (t1, t2) in zip(kept.quads[bad], kept.quad_tris[bad]):
                if touched[t1] or touched[t2]:
                    continue
                touched[t1] = touched[t2] = True
                # (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c), CCW
                # like them: the quad is convex because d is inside the circle
                # through a, b, c. The next round's check catches rounding
                # that says otherwise
                s[t1], s[t2] = (a, d, c), (d, b, c)
            kept = _KeptDelaunay.from_simplices(pts, self.moving, s, self.held)
        return _KeptDelaunay.build(pts, self.moving, self.held), True


def _neighbor_average(pts: np.ndarray, tris: np.ndarray, moving: np.ndarray) -> np.ndarray:
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
    mask = moving & (cnt > 0)
    new[mask] = acc[mask] / cnt[mask, None]
    return new


def _seed(domain: Domain, hb: float, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The points of one mesh attempt before smoothing (clipped lattice first,
    boundary samples at spacing ``hb`` last), the mask of the core lattice
    points (``_band_delaunay``), their Delaunay triangles and the number of
    qhull calls it took."""
    clip = 0.62 * hb
    # 1 % over the distance that makes a lattice point core (_band_delaunay):
    # smooth-boundary distances are measured to a polyline
    core_dist = 1.01 * max(2 * a / math.sqrt(3), clip + a)
    bpts = domain.boundary_loop(hb)
    lattice, shape = _hex_lattice(bpts.min(axis=0), bpts.max(axis=0), a)
    grid = np.flatnonzero(domain.contains(lattice))
    dist = domain.distance_to_boundary(lattice[grid], upper=core_dist)
    grid, dist = grid[dist > clip], dist[dist > clip]
    pts = np.vstack([lattice[grid], bpts])
    core = dist > core_dist
    simplices = _band_delaunay(pts, grid, shape, core)
    if simplices is None:
        log.debug("band triangulation did not fit; qhull on all %d points", len(pts))
        return pts, core, Delaunay(pts).simplices, 2
    return pts, core, simplices, 1


def _moving_band(simplices: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Mask of the lattice points (the first ``len(core)`` vertices of
    ``simplices``) that ``N_SMOOTH`` passes of neighbour averaging can move.
    A core point is the mean of its six lattice neighbours, so it moves one
    pass after one of them first has: the band is the points that are not
    core and those within ``N_SMOOTH - 1`` edges of one. The others would
    move by rounding only."""
    # the boundary samples are next to points that are not core only
    band = np.ones(simplices.max() + 1, dtype=bool)
    band[:len(core)] = ~core
    for _ in range(N_SMOOTH - 1):
        # three ors take a third of the time of any(axis=1)
        m = band[simplices]
        band[simplices[m[:, 0] | m[:, 1] | m[:, 2]]] = True
    return band[:len(core)]


def _build_once(domain: Domain, h: float, scale: float):
    """One mesh at boundary/lattice spacing ``scale`` times the nominal one,
    the number of qhull calls it took and the numbers of lattice points that
    smoothing moved (the band) and kept fixed (the rest of the core)."""
    hb = 0.66 * h * scale
    pts, core, simplices, n_qhull = _seed(domain, hb, 0.70 * h * scale)
    n_lattice = len(core)
    nb = len(pts) - n_lattice
    moving = np.zeros(len(pts), dtype=bool)
    moving[:n_lattice] = _moving_band(simplices, core)
    band = np.flatnonzero(moving)
    # the band, the points next to it and the boundary samples: the simplices
    # with a vertex there are kept and smoothed, the others are lattice
    # triangles among fixed core points, taken once
    held = moving.copy()
    held[n_lattice:] = True
    held[simplices[held[simplices].any(axis=1)]] = True
    in_held = held[simplices].any(axis=1)
    kept = _KeptDelaunay.from_simplices(pts, moving, simplices[in_held], held)

    def inside(s, flat):
        # a flat simplex on a straight side has its centroid on the boundary
        return s[~flat & domain.contains((pts[s[:, 0]] + pts[s[:, 1]] + pts[s[:, 2]]) / 3)]

    fixed = simplices[~in_held]
    fixed = inside(fixed, _flat(pts, fixed))
    for step in range(N_SMOOTH + 1):
        if step:
            kept, qhull = kept.refreshed(pts)
            n_qhull += qhull
        tris = inside(kept.simplices, kept.flat)
        if step == N_SMOOTH:
            break
        new = _neighbor_average(pts, tris, moving)
        moved = new[band]
        bad = domain.distance_to_boundary(moved, upper=0.45 * hb) < 0.45 * hb
        bad |= ~domain.contains(moved)
        new[band[bad]] = pts[band[bad]]
        pts = new
    # the kept simplices have qhull's index type, the seed's lattice
    # triangles numpy's default
    tris = np.concatenate([tris, fixed], dtype=np.int32)

    # drop interior points that ended up unused
    n_interior = n_lattice
    used = np.zeros(len(pts), dtype=bool)
    used[tris.ravel()] = True
    used[n_lattice:] = True
    if not used.all():
        remap = -np.ones(len(pts), dtype=np.int64)
        remap[used] = np.arange(used.sum())
        pts = pts[used]
        tris = remap[tris]
        n_interior = int(used[:n_lattice].sum())

    # interior-first / boundary-last-CCW already, and the triangles are CCW
    # like the kept simplices: ``validate_mesh`` reports any that are not
    bidx = np.arange(n_interior, n_interior + nb)
    bedges = np.stack([bidx, np.roll(bidx, -1)], axis=1)
    return Mesh(
        nodes=pts,
        n_interior=n_interior,
        n_boundary=nb,
        triangles=tris,
        boundary_edges=bedges,
        h_max=h,
    ), n_qhull, len(band), n_lattice - len(band)


def _corner_exempt_mask(
    mesh: Mesh, domain: Domain | None, angles: np.ndarray
) -> np.ndarray:
    """True for triangles whose worst angle (of ``mesh.angles_deg()``) sits at
    a sharp input corner."""
    exempt = np.zeros(len(mesh.triangles), dtype=bool)
    if domain is None or not domain.is_polygon:
        return exempt
    sharp = domain.vertices[domain.angles < SHARP_ANGLE]
    if not len(sharp):
        return exempt
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

    scale = 1.0
    for attempt in range(1, 5):
        mesh, n_qhull, n_band, n_core = _build_once(domain, h, scale)
        problems = validate_mesh(mesh, domain)
        if not problems:
            return mesh
        log.debug(
            "mesh attempt %d at scale %.4g failed after %d qhull calls, "
            "%d band and %d fixed core lattice points: %s",
            attempt, scale, n_qhull, n_band, n_core, "; ".join(problems[:3]),
        )
        scale *= 0.88
    raise MeshError(
        "mesh refinement did not converge; remaining violations: "
        + "; ".join(problems[:8])
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_mesh(mesh: Mesh, domain: Domain | None = None) -> list[str]:
    """Check every mesh invariant and return the violations, an empty list
    iff the mesh is valid. A triangle index out of range ends the check.
    ``domain`` adds the checks of the nodes against the boundary, and exempts
    sharp corners from the floor."""
    v: list[str] = []
    n = mesh.n_nodes
    if mesh.n_interior + mesh.n_boundary != n:
        v.append("node count mismatch: n_interior + n_boundary != n_nodes")
    if mesh.triangles.min(initial=0) < 0 or mesh.triangles.max(initial=-1) >= n:
        v.append("triangle references a node index out of range")
        return v

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

    be = mesh.boundary_edges
    if be.size and (be.min() < mesh.n_interior or be.max() >= n):
        v.append("boundary edge references a non-boundary node")
    b_counts, declared = _edge_incidence(edges, counts, be)
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
    counted = angles.min(axis=1)[~_corner_exempt_mask(mesh, domain, angles)]
    n_skinny = int((counted < MIN_ANGLE_DEG).sum())
    if n_skinny:
        v.append(
            f"{n_skinny} triangles below the {MIN_ANGLE_DEG} degree quality floor "
            f"(worst {counted.min():.2f})"
        )

    if domain is not None:
        bnodes = mesh.nodes[mesh.boundary_indices]
        tol = 1e-9 if domain.is_polygon else max(1e-9, POLYLINE_SPACING ** 2)
        d = domain.distance_to_boundary(bnodes, upper=tol)
        n_off = int((d > tol).sum())
        if n_off:
            v.append(f"{n_off} boundary nodes further than {tol:g} from the boundary")
        if mesh.n_interior:
            din = domain.distance_to_boundary(mesh.nodes[: mesh.n_interior], upper=0.0)
            n_touch = int((din <= 0).sum())
            if n_touch:
                v.append(f"{n_touch} interior nodes touching the boundary")
    return v


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
