"""P1 assembly (stiffness, mass, boundary mass), the boundary node roles
(``BoundaryPartition``), the one factor of a solve and its boundary Schur
complement.

Element integrals are exact closed forms (the integrands are polynomial), so
the only numerical error downstream comes from the mesh and the linear solver.
``assemble`` also fixes how the interior nodes are eliminated: a geometric
nested dissection of the mesh and, over its tree, a plan of dense fronts
(``FrontPlan``). The plan depends only on the mesh, so every p and every
boundary partition on one mesh reuses it. ``InteriorFactor`` eliminates, once
per solve, the interior nodes of p*M + K front by front, a multifrontal
partial Cholesky factorization (Duff & Reid 1983; Liu 1992). The interior
block is SPD for every p >= 0, so a pivot block that is not positive
definite means the matrices are wrong, and it raises. The boundary nodes
stay in a root that is never eliminated: the Schur complement of p*M + K
onto the whole boundary, from which ``InteriorFactor.schur`` takes S for the
partition. The kept fronts give the harmonic extensions by one top-down
sweep (``solve_dirichlet``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsyrk, dtrsm
from scipy.linalg.lapack import dpotrf

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
class FrontPlan:
    """How ``InteriorFactor`` eliminates the interior nodes: the fronts of the
    mesh's nested-dissection tree (``_nested_dissection``). It depends on the
    mesh alone, so every p and every boundary partition on one mesh reuses it.

    Nodes are ranked interior first, in nested-dissection order; a boundary
    node's rank is its index. Front t pivots on the ranks
    ``start[t]:stop[t]``; ``update[t]`` holds the sorted ranks of the later
    nodes that its subtree is joined to, the rows of its update matrix. The
    fronts are in postorder, each subtree's fronts contiguous and its top
    front last. A front's update matrix goes to its ``parent``: ``runs[t]``
    splits its update set into runs of rows that land on consecutive places
    of the parent's front, each (destination slice, source slice, pivots),
    on the parent's pivots (pivots True) or on its update set. A top front
    (parent -1) has the whole boundary as its update set, in the order of
    the boundary nodes, so that its update matrix is the root itself.

    ``entry`` and ``slot`` carry the lower triangle of p*M + K, in rank
    order, into the factor's one buffer: entry i of the matrices' shared
    data array goes to position ``slot[i]``. Front t's panel starts at
    ``offset[t]``: its pivot block (k x k, column-major), then its update
    rows (m x k, column-major), with k its pivots and m its update set. The
    root (n_boundary x n_boundary, column-major) follows the last panel, at
    ``offset[-1]``.
    """

    rank: np.ndarray          # (n_nodes,) each node's elimination rank
    start: np.ndarray         # (n_fronts,)
    stop: np.ndarray          # (n_fronts,)
    parent: np.ndarray        # (n_fronts,) -1 for a top front
    update: tuple             # per front, (m,) sorted ranks
    runs: tuple               # per front, its update rows' runs in its parent
    offset: np.ndarray        # (n_fronts + 1,)
    entry: np.ndarray
    slot: np.ndarray

    @property
    def n_fronts(self) -> int:
        return len(self.start)


@dataclass(frozen=True)
class FemMatrices:
    stiffness: sparse.csr_matrix      # K, n_nodes x n_nodes, in the mesh's node order
    mass: sparse.csr_matrix           # M, same sparsity pattern (same indices) as K
    boundary_mass: sparse.csr_matrix  # M_b over the boundary loop, the last n_boundary nodes
    fronts: FrontPlan                 # the elimination plan of the interior nodes

    @property
    def n_nodes(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_mass.shape[0]

    @property
    def n_interior(self) -> int:
        return self.n_nodes - self.n_boundary


def assemble(mesh: Mesh) -> FemMatrices:
    """Exact P1 matrices; boundary mass from 1D edge elements (L/6)[[2,1],[1,2]].
    Also the front plan of the interior nodes (``front_plan``)."""
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
    # both come from the same (rows, cols), and the conversion keeps explicit
    # zeros, so p*M + K is a sum of their data arrays
    if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
        raise FemError("stiffness and mass assembled with different sparsity patterns")

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

    return FemMatrices(stiffness=K, mass=M, boundary_mass=Mb, fronts=front_plan(mesh, K))


# nodes per leaf of the nested-dissection order: parts of at most this many
# nodes are ranked in node order.
LEAF_SIZE = 16

# nodes per leaf front: a half of at most this many nodes is one dense front,
# its nodes still ranked by the dissection down to ``LEAF_SIZE``, so the
# order and its fill do not depend on the front size. Larger leaf fronts
# mean fewer fronts, so less Python work per factor, but more stored zeros.
# Measured with one BLAS thread, factor plus S for leaf fronts of 32, 48,
# 64, 96, 128 nodes: 37.6, 30.1, 27.5, 26.1, 24.8 ms on disk h = 0.025
# (15,449 nodes), with 0.98, 1.24, 1.38, 1.72, 2.23 M stored entries; 0.95,
# 0.80, 0.73, 0.74, 0.73 s on the reflex octagon h = 0.005 (165,479 nodes),
# with 16.1, 16.9, 20.0, 22.7, 26.2 M.
FRONT_SIZE = 64


def _nested_dissection(nodes: np.ndarray, triangles: np.ndarray, n_interior: int):
    """A geometric nested-dissection order of the interior nodes (George
    1973) and its tree: each node's rank (boundary nodes keep their index)
    and the fronts, an (n_fronts, 3) array of [start, stop, parent] rows.

    Each part of the interior nodes is split at the median of its wider
    coordinate extent (ties in node order); the left ends of the mesh edges
    that cross the cut form the part's separator, so no edge joins the two
    halves. A part is ranked [left half, right half, separator], the halves
    split again, and parts of ``LEAF_SIZE`` nodes or fewer are ranked in node
    order. All parts of one level are split at once.

    The fronts pivot on contiguous ranks [start, stop). A half of at most
    ``FRONT_SIZE`` nodes (or the whole interior, if that small) is one leaf
    front, however far its nodes are split further; the separator of a
    larger part is a front too. A part's separator is the parent of its
    halves' top fronts (a leaf half is its own top front); the top
    separator's parent is -1. Empty fronts are left out, their children
    passed to the nearest non-empty ancestor. The rows are in the order of
    ``stop``, a postorder of the tree.
    """
    ni = n_interior
    rank = np.arange(len(nodes))
    if ni <= LEAF_SIZE:
        return rank, np.array([[0, ni, -1]] if ni else [], dtype=np.intp).reshape(-1, 3)
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
    above = np.full(1, -1, dtype=np.intp)   # each part's parent front
    in_leaf = np.array([ni <= FRONT_SIZE])  # each part, whether inside a leaf front
    right = np.zeros(ni, dtype=bool)
    separator = np.zeros(ni, dtype=bool)
    fronts = [np.array([[0, ni, -1]], dtype=np.intp)[in_leaf]]
    n_fronts = len(fronts[0])
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
        # outside the leaf fronts, a separator is a front and so is a half of
        # at most FRONT_SIZE nodes; a half's parent is its part's separator,
        # a separator's the part's own parent
        small = counts <= FRONT_SIZE
        small[:, 2] = True
        front = (small & ~in_leaf[:, None]).ravel()
        ids = np.cumsum(front) - 1 + n_fronts
        n_fronts += int(front.sum())
        sep = ids[2::3]
        parent = np.stack([sep, sep, above], axis=1).ravel()
        fronts.append(np.stack([sub_first, sub_first + counts.ravel(), parent], axis=1)[front])
        ranked = done[sub]
        rank[active[ranked]] = position[ranked]
        part[active[ranked]] = -1
        active, sub = active[~ranked], sub[~ranked]
        part[active] = (np.cumsum(~done) - 1)[sub]
        first = sub_first[~done]
        above = parent[~done]
        in_leaf = (small | in_leaf[:, None]).ravel()[~done]
    fronts = np.concatenate(fronts)
    parent = fronts[:, 2]
    empty = fronts[:, 0] == fronts[:, 1]
    while True:
        skip = (parent >= 0) & empty[np.maximum(parent, 0)]
        if not skip.any():
            break
        parent = np.where(skip, fronts[parent, 2], parent)
    keep = np.flatnonzero(~empty)
    keep = keep[np.argsort(fronts[keep, 1], kind="stable")]
    new_id = np.full(len(fronts) + 1, -1, dtype=np.intp)  # new_id[-1] maps -1 to -1
    new_id[keep] = np.arange(len(keep))
    return rank, np.stack([fronts[keep, 0], fronts[keep, 1], new_id[parent[keep]]], axis=1)


def front_plan(mesh: Mesh, stiffness: sparse.csr_matrix) -> FrontPlan:
    """The ``FrontPlan`` of the mesh's interior nodes, on the sparsity pattern
    of ``stiffness`` (shared by the mass matrix).

    Bottom-up, a front's update set is the later neighbours of its pivots
    and its children's update sets, less its own pivots: by the nested
    dissection these are ancestors' separators and boundary nodes only.
    Everything else is found for all fronts at once."""
    ni, n = mesh.n_interior, mesh.n_nodes
    rank, fronts = _nested_dissection(mesh.nodes, mesh.triangles, ni)
    start, stop, parent = (np.ascontiguousarray(col) for col in fronts.T)
    n_fronts = len(start)
    k = stop - start
    # the lower triangle of the matrix in rank order: entries in an interior
    # column belong to that column's front, entries in the boundary block to
    # the root
    rows = rank[np.repeat(np.arange(n), np.diff(stiffness.indptr))]
    cols = rank[stiffness.indices]
    lower = rows >= cols
    entry = np.flatnonzero(lower & (cols < ni))
    r, c = rows[entry], cols[entry]
    f = np.repeat(np.arange(n_fronts), k)[c]
    # each front's later neighbours, as sorted (front, rank) keys f * n + rank
    later = r >= stop[f]
    near = np.unique(f[later] * n + r[later])
    near_cut = np.searchsorted(near, np.arange(n_fronts + 1) * n)
    update = []
    children = [[] for _ in range(n_fronts)]
    for t in range(n_fronts):
        u = near[near_cut[t]:near_cut[t + 1]] - t * n
        if children[t]:
            b = stop[t]
            u = np.unique(np.concatenate([u] + [update[c][update[c] >= b] for c in children[t]]))
        if parent[t] >= 0:
            children[parent[t]].append(t)
        elif len(u) and u[0] < ni:
            raise FemError("a top front of the nested dissection has interior nodes "
                           "in its update set")
        else:
            u = np.arange(ni, n)  # the whole boundary: the root is its update matrix
        update.append(u)

    m = np.array([len(u) for u in update], dtype=np.intp)
    owner = np.repeat(np.arange(n_fronts), m)
    ranks = np.concatenate(update) if n_fronts else np.zeros(0, dtype=np.intp)
    keys = owner * n + ranks  # sorted, one search finds a rank in any update set
    first_update = np.cumsum(m) - m
    # where each update row of a front below the top lands in its parent: on
    # its pivots or on its update set
    moved = np.flatnonzero(parent[owner] >= 0)
    child = owner[moved]
    row = moved - first_update[child]  # the row in the child's update matrix
    q, u = parent[child], ranks[moved]
    pivots = u < stop[q]
    place = np.where(pivots, u - start[q], np.searchsorted(keys, q * n + u) - first_update[q])
    # the runs of update rows that land on consecutive places of the parent's
    # pivots or update set
    head = np.ones(len(moved), dtype=bool)
    head[1:] = (np.diff(place) != 1) | (pivots[1:] != pivots[:-1]) | (child[1:] != child[:-1])
    head = np.flatnonzero(head)
    length = np.diff(np.append(head, len(moved)))
    runs = [(slice(to, to + size), slice(first, first + size), bool(pivot))
            for to, first, size, pivot in zip(place[head].tolist(), row[head].tolist(),
                                              length.tolist(), pivots[head].tolist())]
    run_cut = np.searchsorted(child[head], np.arange(n_fronts + 1)).tolist()
    runs = tuple(tuple(runs[run_cut[t]:run_cut[t + 1]]) for t in range(n_fronts))

    offset = np.concatenate([[0], np.cumsum(k * k + m * k)])
    kf = k[f]
    col = c - start[f]
    in_update = np.searchsorted(keys, f * n + r) - first_update[f]
    slot = offset[f] + np.where(
        later, kf * kf + col * m[f] + in_update, col * kf + (r - start[f])
    )
    root_entry = np.flatnonzero(lower & (cols >= ni))
    root_slot = offset[-1] + (rows[root_entry] - ni) + (cols[root_entry] - ni) * (n - ni)
    return FrontPlan(
        rank=rank, start=start, stop=stop, parent=parent, update=tuple(update), runs=runs,
        offset=offset, entry=np.concatenate([entry, root_entry]),
        slot=np.concatenate([slot, root_slot]),
    )


class InteriorFactor:
    """The partial Cholesky factor of A = p*M + K over its interior nodes,
    and the root it leaves: the Schur complement of A onto the boundary.

    ``partition`` (optional, a ``BoundaryPartition``) moves neumann_zero
    nodes into the unknown set and eliminates dirichlet_zero nodes. With no
    partition every boundary node carries Dirichlet data.

    The factor is the one record of the problem it was built for: ``p``, the
    ``data_nodes`` (global indices), their boundary mass ``boundary_mass_s``
    and ``n_nodes``. ``solve_dirichlet`` and ``dtn`` read them from here and
    take no copy of their own.

    The interior nodes are eliminated front by front in the postorder of the
    mesh's ``FrontPlan`` (multifrontal Cholesky: Duff & Reid 1983, Liu
    1992). Each front is dense: its pivot block, the lower triangle of the
    matrix's entries in its pivot columns plus its children's update
    matrices, is factored by ``dpotrf`` into L11, its update rows by
    ``dtrsm`` into L21 = F21 L11^-T, and its update matrix, F22 - L21 L21^T,
    by ``dsyrk``, in the lower triangle only. A pivot block that is not
    positive definite raises ``FemError``. The boundary nodes form a root
    that is never eliminated: ``root`` is A_bb plus the top fronts' update
    matrices, the Schur complement of A onto all boundary nodes, exactly
    symmetric and read-only. A top front's update set is the whole boundary,
    so it adds its update into the root in place. The partition enters only
    at the root: its neumann_zero block is factored densely (``dpotrf``),
    and ``schur`` eliminates it and leaves out the dirichlet_zero rows and
    columns. ``panels`` holds every front's L11 and L21
    (``FrontPlan.offset``).

    Immutable; solves and ``schur`` are reusable and thread-safe.
    """

    def __init__(self, matrices: FemMatrices, p: float,
                 partition: BoundaryPartition | None = None):
        if not (np.isfinite(p) and p >= 0):
            raise FemError("p must be finite and >= 0")
        self.p = float(p)
        ni, nb = matrices.n_interior, matrices.n_boundary
        if partition is None:
            roles = np.full(nb, STEKLOV, dtype=np.int8)
        elif isinstance(partition, BoundaryPartition):
            roles = partition.roles
        else:
            raise TypeError(f"partition must be a BoundaryPartition, not {type(partition)}")
        if roles.shape != (nb,):
            raise FemError("partition must assign one role per boundary node")
        self._data = np.flatnonzero(roles == STEKLOV)        # boundary-local
        self._neumann = np.flatnonzero(roles == NEUMANN_ZERO)
        self.data_nodes = ni + self._data
        self.n_nodes = matrices.n_nodes
        self.boundary_mass_s = matrices.boundary_mass[self._data][:, self._data]
        self.plan = plan = matrices.fronts

        store = np.zeros(plan.offset[-1] + nb * nb)
        store[plan.slot] = (self.p * matrices.mass.data + matrices.stiffness.data)[plan.entry]
        self.panels = store[:plan.offset[-1]]
        root = store[plan.offset[-1]:].reshape((nb, nb), order="F")
        # each front's (L11, L21) views of the panels, for the solves
        self._fronts = []
        pending = [[] for _ in range(plan.n_fronts)]  # updates waiting for their parent
        for t in range(plan.n_fronts):
            k, m = plan.stop[t] - plan.start[t], len(plan.update[t])
            lo = plan.offset[t]
            l11 = self.panels[lo:lo + k * k].reshape((k, k), order="F")
            l21 = self.panels[lo + k * k:plan.offset[t + 1]].reshape((m, k), order="F")
            top = plan.parent[t] < 0
            f22 = root if top else np.zeros((m, m), order="F")
            for c, upd in pending[t]:
                _extend_add(l11, l21, f22, plan.runs[c], upd)
            pending[t] = None
            _, info = dpotrf(l11, lower=1, clean=0, overwrite_a=1)
            if info:
                raise FemError(f"the pivot block of front {t} is not positive definite")
            if m:
                dtrsm(1.0, l11, l21, side=1, lower=1, trans_a=1, overwrite_b=1)
                upd = dsyrk(-1.0, l21, beta=1.0, c=f22, lower=1, overwrite_c=1)
                if top:
                    root = upd
                else:
                    pending[plan.parent[t]].append((t, upd))
            self._fronts.append((l11, l21))
        # the updates fill the lower triangle only
        _mirror_lower(root)
        root.flags.writeable = False
        self.root = root
        self._neumann_factor = None
        if len(self._neumann):
            nn, info = dpotrf(root[np.ix_(self._neumann, self._neumann)], lower=1)
            if info:
                raise FemError("the neumann_zero block of the boundary Schur complement "
                               "is not positive definite")
            self._neumann_factor = nn

    def schur(self) -> np.ndarray:
        """Schur complement S = A_dd - A_du A_uu^{-1} A_ud of A = p*M + K onto
        the data nodes, dense and exactly symmetric.

        When every boundary node carries data, S is the root itself, read-only
        like the rest of the factor. With dirichlet_zero nodes only, it is a
        new array, the root's block on the data nodes. With neumann_zero
        nodes, W = L_nn^{-1} root_nd, by the neumann block's Cholesky factor
        L_nn, and S = root_dd - W^T W, a new array whose lower triangle comes
        from one ``dsyrk``, then mirrored."""
        d = self._data
        if len(d) == len(self.root):
            return self.root
        s = np.asfortranarray(self.root[np.ix_(d, d)])
        if self._neumann_factor is None:
            return s
        w = dtrsm(1.0, self._neumann_factor, self.root[np.ix_(self._neumann, d)], lower=1)
        s = dsyrk(-1.0, w, beta=1.0, c=s, trans=1, lower=1, overwrite_c=1)
        _mirror_lower(s)
        return s

    @property
    def lu(self):
        """The stored factor as sparse matrices, for size probes: ``L`` is
        the n_nodes x n_interior factor in rank order (rows of each front's
        L11 lower triangle and L21), ``U`` its transpose. Built on each read."""
        plan = self.plan
        rows, cols, vals = [], [], []
        for t, (l11, l21) in enumerate(self._fronts):
            k = len(l11)
            front = np.concatenate([np.arange(plan.start[t], plan.stop[t]), plan.update[t]])
            i, j = np.tril_indices(len(front), 0, k)
            rows.append(front[i])
            cols.append(plan.start[t] + j)
            vals.append(np.vstack([l11, l21])[i, j])
        n = self.n_nodes
        rows, cols, vals = (np.concatenate(parts or [[]]) for parts in (rows, cols, vals))
        L = sparse.csc_matrix((vals, (rows, cols)), shape=(n, n - len(self.root)))
        return _Factors(L, L.T.tocsc())


@dataclass(frozen=True)
class _Factors:
    L: sparse.csc_matrix
    U: sparse.csc_matrix


def _mirror_lower(a):
    """Copy the strict lower triangle of the square, column-major ``a`` onto
    its upper one, in place, so that ``a`` is exactly symmetric.

    It works in slabs of 64 columns, whose transposes write 64 consecutive
    entries of each upper column. Measured with one thread, for n = 433,
    952 and 3,803: 0.28, 0.93 and 19.6 ms, against 0.34, 1.28 and 41.8 ms
    copying one row at a time and 0.61, 1.81 and 22.5 ms with slabs of 256
    columns."""
    n = len(a)
    for j0 in range(0, n, 64):
        j1 = min(j0 + 64, n)
        diag = a[j0:j1, j0:j1]
        diag[...] = np.tril(diag) + np.tril(diag, -1).T
        a[j0:j1, j1:] = a[j1:, j0:j1].T


def _extend_add(l11, l21, f22, runs, upd):
    """Add a child's update matrix ``upd`` to its parent's front, one block
    per pair of the child's runs (``FrontPlan.runs``) in the lower triangle:
    into the parent's pivot block ``l11``, its update rows ``l21`` or its
    update matrix ``f22``."""
    for a, (rows, src_rows, pivot_rows) in enumerate(runs):
        for cols, src_cols, pivot_cols in runs[:a + 1]:
            view = (l11 if pivot_rows else l21 if pivot_cols else f22)[rows, cols]
            np.add(view, upd[src_rows, src_cols], out=view)


def factor_interior(matrices: FemMatrices, p: float,
                    partition: BoundaryPartition | None = None) -> InteriorFactor:
    return InteriorFactor(matrices, p, partition)


def solve_dirichlet(factor: InteriorFactor, f: np.ndarray) -> np.ndarray:
    """Solve (p - Lap)u = 0 at the factor's p with u = f on the data nodes;
    returns all node values.

    The boundary values come first: f on the data nodes, 0 on the
    dirichlet_zero nodes and, on the neumann_zero nodes, the solution of
    root_nn x = -root_nd f. Then one top-down sweep over the fronts gives
    the interior, each front's pivots from the values of its update set z:
    x = -L11^-T (L21^T z). The returned vector restricts to ``f`` exactly on
    the data nodes and to 0 on eliminated (dirichlet_zero) nodes.
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
    plan = factor.plan
    ni = factor.n_nodes - len(factor.root)
    x = np.zeros((factor.n_nodes, fcols.shape[1]))  # in rank order
    x[ni + factor._data] = fcols
    if factor._neumann_factor is not None:
        rhs = factor.root[np.ix_(factor._neumann, factor._data)] @ fcols
        x[ni + factor._neumann] = -cho_solve((factor._neumann_factor, True), rhs)
    for t in range(plan.n_fronts - 1, -1, -1):
        l11, l21 = factor._fronts[t]
        y = l21.T @ x[plan.update[t]]
        x[plan.start[t]:plan.stop[t]] = dtrsm(-1.0, l11, y, lower=1, trans_a=1)
    u = x[plan.rank]
    return u[:, 0] if single else u
