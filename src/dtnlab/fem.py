"""P1 assembly (stiffness, mass, boundary mass) and the one sparse LU of a solve.

Element integrals are exact closed forms (the integrands are polynomial), so
the only numerical error downstream comes from the mesh and the linear solver.
``assemble`` also fixes the fill-reducing elimination order of the interior
block, a geometric nested dissection of the mesh; it depends only on the mesh,
so every p on one mesh reuses it. ``InteriorFactor`` factors p*M + K plus a
Robin term ``ROBIN_SHIFT`` * M_b on the data nodes once per solve, the unknowns
first in that order and the data nodes last. The Robin term makes the matrix
SPD for every p >= 0, so the factor never meets a zero pivot, and it touches
only the trailing block: the leading blocks give the harmonic extensions of
p*M + K by back substitution, and the trailing block gives the boundary Schur
complement once the shift is subtracted again (``dtn.build_dtn``), exact up to
eps * ROBIN_SHIFT * ||M_b||.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve_triangular

from .mesh import Mesh


class FemError(RuntimeError):
    pass


@dataclass
class FemMatrices:
    stiffness: sparse.csr_matrix      # K, n_nodes x n_nodes
    mass: sparse.csr_matrix           # M, n_nodes x n_nodes
    boundary_mass: sparse.csr_matrix  # M_b, n_boundary x n_boundary
    n_interior: int
    n_boundary: int
    # each node's rank in the elimination order: the interior nodes in
    # nested-dissection order (``_nested_dissection``), then the boundary
    # nodes in their own order
    elimination_rank: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_interior + self.n_boundary

    def boundary_mass_at(self, nodes: np.ndarray) -> sparse.csr_matrix:
        """M_b restricted to the boundary nodes ``nodes`` (global indices)."""
        local = nodes - self.n_interior
        return self.boundary_mass[local][:, local]


# p*M + K restricted to the unknowns is symmetric positive definite (p >= 0,
# and every unknown connects to a node with Dirichlet data), and so is the
# Robin-shifted matrix that ``InteriorFactor`` factors; SuperLU keeps the
# diagonal as pivot and the factors stay symmetric in structure.
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

    be = mesh.boundary_edges - mesh.n_interior  # boundary-local indices
    pa = pts[mesh.boundary_edges[:, 0]]
    pb = pts[mesh.boundary_edges[:, 1]]
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
        n_interior=mesh.n_interior,
        n_boundary=mesh.n_boundary,
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


# sigma of the Robin term in ``InteriorFactor``. Any sigma > 0 makes the
# trailing block SPD; 1 is of the order of the low eigenvalues mu on domains of
# unit size, and subtracting the shift costs at most eps * sigma * ||M_b|| in S.
ROBIN_SHIFT = 1.0


class InteriorFactor:
    """One sparse LU of A = p*M + K + sigma*E, the unknowns first and the data
    nodes last, with sigma = ``ROBIN_SHIFT`` and E the boundary mass on the
    data nodes (``boundary_mass_s``), a Robin term.

    ``partition_roles`` (optional, one role per boundary node: 0 = steklov,
    1 = dirichlet_zero, 2 = neumann_zero) moves neumann_zero nodes into the
    unknown set and eliminates dirichlet_zero nodes. With no partition every
    boundary node carries Dirichlet data.

    The factor is the one record of the problem it was built for: ``p``, the
    boundary ``roles``, the ``data_nodes`` (global indices), their boundary
    mass ``boundary_mass_s`` and ``n_nodes``. ``solve_dirichlet``,
    ``dtn.build_dtn`` and ``dtn.DtnOperator`` read them from here and take no
    copy of their own.

    The unknowns (``unknown_nodes``) are eliminated in the mesh's
    nested-dissection order (``FemMatrices.elimination_rank``; neumann_zero
    nodes last), and SuperLU keeps that order (``NATURAL``). A is SPD, so
    nothing is pivoted and L = U^T D^{-1}, with D the diagonal of U. Only U is
    read, in blocks [[U11, U12], [0, U22]]:

    - ``l11t`` = D11^{-1} U11 (unit upper triangular) and ``l21t`` =
      D11^{-1} U12, both CSR, give the harmonic extensions by back
      substitution;
    - ``u22`` is the trailing factor of the shifted Schur complement onto the
      data nodes, S + sigma*E = U22^T D22^{-1} U22.

    The shift is exact: E touches only the data block, so the leading blocks
    (and the extensions) are those of p*M + K, and ``dtn.build_dtn`` subtracts
    sigma*E again, at a rounding cost of at most eps * sigma * ||M_b|| in S.
    Unshifted, S is only positive semidefinite (at p = 0 the constants are in
    its kernel) and its last pivot is at rounding level or exactly zero;
    shifted, every trailing pivot is at least sigma * lambda_min(E).
    Immutable; solves are reusable and thread-safe.
    """

    def __init__(self, matrices: FemMatrices, p: float, partition_roles=None):
        if p < 0:
            raise FemError("p must be >= 0")
        self.p = float(p)
        ni = matrices.n_interior
        roles = (
            np.zeros(matrices.n_boundary, dtype=np.int8)
            if partition_roles is None
            else np.asarray(partition_roles, dtype=np.int8)
        )
        if roles.shape != (matrices.n_boundary,):
            raise FemError("partition must assign one role per boundary node")
        self.roles = roles
        bidx = ni + np.arange(matrices.n_boundary)
        self.data_nodes = bidx[roles == 0]       # steklov: carries Dirichlet data
        self.zero_nodes = bidx[roles == 1]       # dirichlet_zero: eliminated
        unknown = np.concatenate([np.arange(ni), bidx[roles == 2]])  # neumann_zero joins
        self.unknown_nodes = unknown[np.argsort(matrices.elimination_rank[unknown])]
        if len(self.data_nodes) == 0:
            raise FemError("partition needs at least one steklov node")
        self.n_nodes = matrices.n_nodes
        self.boundary_mass_s = matrices.boundary_mass_at(self.data_nodes)

        n_u = len(self.unknown_nodes)
        order = np.concatenate([self.unknown_nodes, self.data_nodes])
        A = (self.p * matrices.mass + matrices.stiffness).tocsr()
        shift = sparse.block_diag(
            [sparse.csr_matrix((n_u, n_u)), ROBIN_SHIFT * self.boundary_mass_s]
        )
        a = (A[order][:, order] + shift).tocsc()
        del A
        upper = _unpivoted_upper(a)
        del a
        self.d11 = upper.diagonal()[:n_u]
        self.l11t = _divide_rows(upper[:n_u, :n_u], self.d11)
        self.l21t = _divide_rows(upper[:n_u, n_u:], self.d11)
        self.u22 = upper[n_u:, n_u:]

    def extend(self, f: np.ndarray) -> np.ndarray:
        """Values on the unknowns of the discrete (p - Lap)-harmonic extension of
        data ``f`` on the data nodes: -(L11^T)^{-1} (L21^T f)."""
        return -spsolve_triangular(self.l11t, self.l21t @ f, lower=False, unit_diagonal=True)


def _unpivoted_upper(a: sparse.csc_matrix) -> sparse.csc_matrix:
    """U of an LU of ``a`` in its given order. SuperLU pivots a row away from
    an exactly zero pivot, or gives up; either raises ``FemError``."""
    try:
        lu = splu(a, permc_spec="NATURAL", **SPD_LU_OPTIONS)
    except RuntimeError as exc:  # exactly singular
        raise FemError("interior factorization met an exactly zero pivot") from exc
    natural = np.arange(a.shape[0])
    if not (np.array_equal(lu.perm_c, natural) and np.array_equal(lu.perm_r, natural)):
        raise FemError("interior factorization met an exactly zero pivot")
    return lu.U


def _divide_rows(m: sparse.csc_matrix, d: np.ndarray) -> sparse.csr_matrix:
    """D^{-1} m as CSR. Conversion sorts the indices, which
    ``spsolve_triangular`` would otherwise sort again on every call."""
    m = m.tocsr()
    m.data /= np.repeat(d, np.diff(m.indptr))
    return m


def factor_interior(matrices: FemMatrices, p: float, partition_roles=None) -> InteriorFactor:
    return InteriorFactor(matrices, p, partition_roles)


def solve_dirichlet(factor: InteriorFactor, f: np.ndarray) -> np.ndarray:
    """Solve (p - Lap)u = 0 at the factor's p with u = f on the data nodes;
    returns all node values.

    The returned vector restricts to ``f`` exactly on the data nodes and to 0
    on eliminated (dirichlet_zero) nodes.
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
    u = np.zeros((factor.n_nodes, fcols.shape[1]))
    u[factor.data_nodes] = fcols
    u[factor.unknown_nodes] = factor.extend(fcols)
    return u[:, 0] if single else u
