"""P1 assembly (stiffness, mass, boundary mass), the boundary node roles
(``BoundaryPartition``), the one sparse LU of a solve and its boundary Schur
complement.

Element integrals are exact closed forms (the integrands are polynomial), so
the only numerical error downstream comes from the mesh and the linear solver.
``assemble`` also fixes the fill-reducing elimination order of the interior
block, a geometric nested dissection of the mesh; it depends only on the mesh,
so every p on one mesh reuses it. ``InteriorFactor`` factors, once per
solve, the unknowns' rows of p*M + K in that order with the data nodes last,
and the identity on the data nodes' rows: [[A_uu, A_ud], [0, I]]. Its pivots
are those of the SPD block A_uu and ones, so the factor never meets a zero
pivot, also at p = 0, and the trailing block is never eliminated. The kept
factor gives the harmonic extensions of p*M + K by one solve, and its U12
block the boundary Schur complement (``InteriorFactor.schur``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dsyrk
from scipy.sparse.linalg import splu

from .mesh import Mesh


class FemError(RuntimeError):
    pass


# boundary node roles, one per boundary node (``BoundaryPartition``)
STEKLOV = 0          # carries Dirichlet data: a data node
DIRICHLET_ZERO = 1   # u = 0, eliminated
NEUMANN_ZERO = 2     # du/dn = 0, joins the unknowns

_ROLE_NAMES = {"steklov": STEKLOV, "dirichlet_zero": DIRICHLET_ZERO, "neumann_zero": NEUMANN_ZERO}


@dataclass(frozen=True)
class BoundaryPartition:
    """Role of each boundary node; arcs of constant role along the CCW loop."""

    roles: np.ndarray  # (n_boundary,) int8

    def __post_init__(self):
        roles = np.asarray(self.roles, dtype=np.int8)
        object.__setattr__(self, "roles", roles)
        if not np.isin(roles, list(_ROLE_NAMES.values())).all():
            raise FemError("unknown boundary role")
        if not (roles == STEKLOV).any():
            raise FemError("partition needs at least one steklov node")

    @classmethod
    def from_arcs(cls, n_boundary: int, arcs) -> "BoundaryPartition":
        """``arcs`` is a list of (start, stop, role_name) with stop exclusive,
        wrapping allowed (start > stop wraps past node 0). Needs
        ``0 <= start < n_boundary`` and ``0 <= stop <= n_boundary``; an empty
        arc (start == stop) or one that overlaps an earlier arc is an error."""
        roles = -np.ones(n_boundary, dtype=np.int8)
        for start, stop, name in arcs:
            if name not in _ROLE_NAMES:
                raise FemError(f"unknown boundary role {name!r}")
            if not (0 <= start < n_boundary and 0 <= stop <= n_boundary):
                raise FemError(f"arc ({start}, {stop}) outside 0..{n_boundary}")
            if start == stop:
                raise FemError(f"arc ({start}, {stop}, {name!r}) is empty")
            idx = (
                np.arange(start, stop)
                if start < stop
                else np.concatenate([np.arange(start, n_boundary), np.arange(0, stop)])
            )
            if (roles[idx] >= 0).any():
                raise FemError(f"arc ({start}, {stop}, {name!r}) overlaps an earlier arc")
            roles[idx] = _ROLE_NAMES[name]
        if (roles < 0).any():
            raise FemError("arcs do not cover every boundary node")
        return cls(roles)


@dataclass(frozen=True)
class FemMatrices:
    stiffness: sparse.csr_matrix      # K, n_nodes x n_nodes, in the mesh's node order
    mass: sparse.csr_matrix           # M, n_nodes x n_nodes
    boundary_mass: sparse.csr_matrix  # M_b over the boundary loop, the last n_boundary nodes
    # each node's rank in the elimination order: the interior nodes in
    # nested-dissection order (``_nested_dissection``), then the boundary
    # nodes in their own order
    elimination_rank: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_mass.shape[0]

    @property
    def n_interior(self) -> int:
        return self.n_nodes - self.n_boundary


# p*M + K restricted to the unknowns is symmetric positive definite (p >= 0,
# and every unknown connects to a node with Dirichlet data), and the data rows
# that ``InteriorFactor`` appends are those of the identity; SuperLU keeps the
# diagonal as pivot, and the leading factors stay symmetric in structure.
SPD_LU_OPTIONS = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def assemble(mesh: Mesh) -> FemMatrices:
    """Exact P1 matrices; boundary mass from 1D edge elements (L/6)[[2,1],[1,2]]."""
    pts = mesh.nodes
    tri = mesh.triangles
    x = pts[tri, 0]
    y = pts[tri, 1]
    # gradient coefficients: grad(phi_i) = (b_i, c_i) / (2A)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    if np.any(area2 <= 0):
        raise FemError("degenerate or flipped triangle in assembly")
    area = 0.5 * area2

    n = mesh.n_nodes
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()

    ke = (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    ) / (4.0 * area)[:, None, None]
    K = sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    me_pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_pattern[None, :, :]
    M = sparse.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    edges = mesh.boundary_edges
    be = edges - mesh.n_interior  # boundary-local indices
    pa, pb = pts[edges[:, 0]], pts[edges[:, 1]]
    lengths = np.hypot(*(pb - pa).T)
    pat = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    mbe = lengths[:, None, None] * pat[None, :, :]
    rb = np.repeat(be, 2, axis=1).ravel()
    cb = np.tile(be, (1, 2)).ravel()
    Mb = sparse.coo_matrix(
        (mbe.ravel(), (rb, cb)), shape=(mesh.n_boundary, mesh.n_boundary)
    ).tocsr()

    return FemMatrices(
        stiffness=K,
        mass=M,
        boundary_mass=Mb,
        elimination_rank=_nested_dissection(pts, tri, mesh.n_interior),
    )


LEAF_SIZE = 16


def _nested_dissection(nodes: np.ndarray, triangles: np.ndarray, n_interior: int) -> np.ndarray:
    """Each node's rank in a geometric nested-dissection order of the interior
    nodes (George 1973); boundary nodes keep their index.

    Each part of the interior nodes is split at the median of its wider
    coordinate extent (ties in node order); the left ends of the mesh edges
    that cross the cut form the part's separator, so no edge joins the two
    halves. A part is ranked [left half, right half, separator], the halves
    split again, and parts of ``LEAF_SIZE`` nodes or fewer are ranked in node
    order. All parts of one level are split at once.
    """
    ni = n_interior
    rank = np.arange(len(nodes))
    if ni <= LEAF_SIZE:
        return rank
    # an edge between interior nodes borders two CCW triangles, once in each
    # direction, so a < b keeps it once
    ea = triangles.ravel()
    eb = triangles[:, [1, 2, 0]].ravel()
    once = (ea < eb) & (eb < ni)
    ea, eb = ea[once], eb[once]
    xy = nodes[:ni]
    coord_rank = np.empty((ni, 2), dtype=np.intp)  # ties in node order
    for axis in (0, 1):
        coord_rank[np.argsort(xy[:, axis], kind="stable"), axis] = np.arange(ni)

    active = np.arange(ni)                  # unranked nodes, by part, in node order
    part = np.zeros(ni, dtype=np.intp)      # each node's part; -1 once ranked
    first = np.zeros(1, dtype=np.intp)      # each part's first rank
    right = np.zeros(ni, dtype=bool)
    separator = np.zeros(ni, dtype=bool)
    while len(active):
        seg = part[active]
        size = np.bincount(seg, minlength=len(first))
        start = np.cumsum(size) - size
        pxy = xy[active]
        extent = np.maximum.reduceat(pxy, start) - np.minimum.reduceat(pxy, start)
        axis = (extent[:, 1] > extent[:, 0]).astype(np.intp)
        by_coord = np.argsort(seg * ni + coord_rank[active, axis[seg]], kind="stable")
        right[active[by_coord]] = np.arange(len(active)) - start[seg] >= size[seg] // 2
        # keep the edges inside one part; the left ends of those that cross
        # its cut are its separator
        pa = part[ea]
        inside = (pa == part[eb]) & (pa >= 0)
        ea, eb = ea[inside], eb[inside]
        ra = right[ea]
        cross = ra != right[eb]
        separator[active] = False
        separator[np.where(ra[cross], eb[cross], ea[cross])] = True
        # sub-part 3 * part + (0 left half, 1 right half, 2 separator), each
        # in node order; a part's sub-parts fill its ranks in that order
        sub = 3 * seg + np.where(separator[active], 2, right[active])
        regroup = np.argsort(sub, kind="stable")
        active, sub = active[regroup], sub[regroup]
        position = (first - start)[seg] + np.arange(len(active))
        counts = np.bincount(sub, minlength=3 * len(first)).reshape(-1, 3)
        sub_first = (first[:, None] + np.cumsum(counts, axis=1) - counts).ravel()
        done = counts.ravel() <= LEAF_SIZE
        done[2::3] = True
        ranked = done[sub]
        rank[active[ranked]] = position[ranked]
        part[active[ranked]] = -1
        active, sub = active[~ranked], sub[~ranked]
        part[active] = (np.cumsum(~done) - 1)[sub]
        first = sub_first[~done]
    return rank


class InteriorFactor:
    """One sparse LU of a = [[A_uu, A_ud], [0, I]], with A = p*M + K, the
    unknowns (u) first and the data nodes (d) last.

    ``partition`` (optional, a ``BoundaryPartition``) moves neumann_zero
    nodes into the unknown set and eliminates dirichlet_zero nodes. With no
    partition every boundary node carries Dirichlet data.

    The factor is the one record of the problem it was built for: ``p``, the
    ``data_nodes`` (global indices), their boundary mass ``boundary_mass_s``
    and ``n_nodes``. ``solve_dirichlet`` and ``dtn`` read them from here and
    take no copy of their own.

    The unknowns (``unknown_nodes``) are eliminated in the mesh's
    nested-dissection order (``FemMatrices.elimination_rank``; neumann_zero
    nodes last), and SuperLU keeps that order (``NATURAL``). A_uu is SPD, so
    nothing is pivoted: ``lu`` (the SuperLU object) holds L = [[L11, 0],
    [0, I]] and U = [[U11, U12], [0, I]], with U11 = D11 L11^T for the
    diagonal D11 of U11 and U12 = L11^{-1} A_ud. The data rows of a are
    [0, I], so the trailing block is never updated and its pivots are
    exactly 1, also at p = 0, where the constants are in the kernel of S.

    ``schur`` forms S = A_dd - U12^T D11^{-1} U12 from U.

    Immutable, apart from SuperLU caching L and U once U is first read;
    solves and ``schur`` are reusable and thread-safe.
    """

    def __init__(self, matrices: FemMatrices, p: float,
                 partition: BoundaryPartition | None = None):
        if p < 0:
            raise FemError("p must be >= 0")
        self.p = float(p)
        ni = matrices.n_interior
        if partition is None:
            roles = np.full(matrices.n_boundary, STEKLOV, dtype=np.int8)
        elif isinstance(partition, BoundaryPartition):
            roles = partition.roles
        else:
            raise TypeError(f"partition must be a BoundaryPartition, not {type(partition)}")
        if roles.shape != (matrices.n_boundary,):
            raise FemError("partition must assign one role per boundary node")
        bidx = ni + np.arange(matrices.n_boundary)
        self.data_nodes = bidx[roles == STEKLOV]
        unknown = np.concatenate([np.arange(ni), bidx[roles == NEUMANN_ZERO]])
        self.unknown_nodes = unknown[np.argsort(matrices.elimination_rank[unknown])]
        self.n_nodes = matrices.n_nodes
        local = self.data_nodes - ni
        self.boundary_mass_s = matrices.boundary_mass[local][:, local]

        n_u, n_s = len(self.unknown_nodes), len(self.data_nodes)
        order = np.concatenate([self.unknown_nodes, self.data_nodes])
        A = (self.p * matrices.mass + matrices.stiffness).tocsr()[order][:, order]
        self._a_dd = A[n_u:, n_u:]
        a = sparse.vstack(
            [A[:n_u], sparse.hstack([sparse.csr_matrix((n_s, n_u)), sparse.identity(n_s, format="csr")])]
        ).tocsc()
        del A
        self.lu = _unpivoted_lu(a)

    def schur(self) -> np.ndarray:
        """Schur complement S = A_dd - A_du A_uu^{-1} A_ud of A = p*M + K onto
        the data nodes, a new dense array, exactly symmetric.

        With W = D11^{-1/2} U12, S = A_dd - W^T W. The rows of W with more
        than ``DENSE_ROW_SHARE`` * n_s entries (the top separators) are
        subtracted as one dense block by a single BLAS-3 ``syrk``, the others
        by one sparse product; only the upper triangle is formed and then
        mirrored. Beside S only the dense rows and the upper triangle of the
        sparse rows' product are held; the dense rows are freed before that
        triangle is subtracted."""
        n_u, n_s = len(self.unknown_nodes), len(self.data_nodes)
        upper = self.lu.U
        w = upper[:n_u, n_u:].tocsr()
        row_nnz = np.diff(w.indptr)
        w.data /= np.repeat(np.sqrt(upper.diagonal()[:n_u]), row_nnz)
        dense = row_nnz > DENSE_ROW_SHARE * n_s
        top = w[dense].toarray(order="F")
        rest = w[~dense]
        del w
        low = sparse.triu(rest.T.tocsr() @ rest, format="coo")
        del rest
        s = self._a_dd.toarray(order="F")
        if len(top):
            s = dsyrk(-1.0, top, beta=1.0, c=s, trans=1, overwrite_c=1)
        del top
        s[low.row, low.col] -= low.data
        for j0 in range(0, n_s, _MIRROR_BLOCK):
            j1 = min(j0 + _MIRROR_BLOCK, n_s)
            diag = s[j0:j1, j0:j1]
            diag[...] = np.triu(diag) + np.triu(diag, 1).T
            s[j1:, j0:j1] = s[j0:j1, j1:].T
        return s


# Rows of W = D11^{-1/2} U12 with more entries than this share of the data
# nodes go through the dense syrk in ``InteriorFactor.schur``, the rest
# through one sparse product. A row costs about nnz^2 in the sparse product
# and n_s^2 / 2 in the syrk, which runs far faster per entry. Measured with
# one BLAS thread, ``schur`` takes (shares 1/32, 1/16, 1/8, 1/4): 22, 18,
# 19, 26 ms on disk h = 0.025 at p = 1e3 (n_s = 433); 102, 87, 80, 131 ms on
# disk h = 0.01 at p = 1 (n_s = 952); 1.57, 1.12, 0.98, 1.83 s on the reflex
# octagon h = 0.005 at p = 1e3 (n_s = 3,803). All rows dense: 33 ms, 190 ms,
# 6.5 s; all sparse: 82 ms, 725 ms, 8.7 s.
DENSE_ROW_SHARE = 1 / 8

# columns per block of the triangle mirror in ``InteriorFactor.schur``
_MIRROR_BLOCK = 256


def _unpivoted_lu(a: sparse.csc_matrix):
    """SuperLU of ``a`` in its given order. SuperLU pivots a row away from
    an exactly zero pivot, or gives up; either raises ``FemError``."""
    try:
        lu = splu(a, permc_spec="NATURAL", **SPD_LU_OPTIONS)
    except RuntimeError as exc:  # exactly singular
        raise FemError("interior factorization met an exactly zero pivot") from exc
    natural = np.arange(a.shape[0])
    if not (np.array_equal(lu.perm_c, natural) and np.array_equal(lu.perm_r, natural)):
        raise FemError("interior factorization met an exactly zero pivot")
    return lu


def factor_interior(matrices: FemMatrices, p: float,
                    partition: BoundaryPartition | None = None) -> InteriorFactor:
    return InteriorFactor(matrices, p, partition)


def solve_dirichlet(factor: InteriorFactor, f: np.ndarray) -> np.ndarray:
    """Solve (p - Lap)u = 0 at the factor's p with u = f on the data nodes;
    returns all node values.

    The factor solves a [x; y] = [0; f], whose x is the harmonic extension
    of f on the unknowns and whose y is f. The returned vector restricts to
    ``f`` exactly on the data nodes and to 0 on eliminated (dirichlet_zero)
    nodes.
    """
    f = np.asarray(f, dtype=float)
    single = f.ndim == 1
    fcols = f[:, None] if single else f
    if fcols.shape[0] != len(factor.data_nodes):
        raise FemError(
            f"boundary data has length {fcols.shape[0]}, expected {len(factor.data_nodes)}"
        )
    if not np.all(np.isfinite(fcols)):
        raise FemError("boundary data must be finite")
    n_u = len(factor.unknown_nodes)
    rhs = np.zeros((n_u + fcols.shape[0], fcols.shape[1]))
    rhs[n_u:] = fcols
    u = np.zeros((factor.n_nodes, fcols.shape[1]))
    u[factor.data_nodes] = fcols
    u[factor.unknown_nodes] = factor.lu.solve(rhs)[:n_u]
    return u[:, 0] if single else u
