"""Discrete Dirichlet-to-Neumann operator via the boundary Schur complement.

The operator is never formed as M_b^{-1} S; eigenpairs come from the symmetric
pencil (S, M_b), which is mathematically identical and keeps eigenvalues real
and eigenvectors M_b-orthogonal in floating point. Mixed Steklov problems are
supported through per-node boundary roles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from .fem import FemMatrices, InteriorFactor, solve_dirichlet

STEKLOV = 0
DIRICHLET_ZERO = 1
NEUMANN_ZERO = 2

_ROLE_NAMES = {"steklov": STEKLOV, "dirichlet_zero": DIRICHLET_ZERO, "neumann_zero": NEUMANN_ZERO}


class DtnError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoundaryPartition:
    """Role of each boundary node; arcs of constant role along the CCW loop."""

    roles: np.ndarray  # (n_boundary,) int8

    def __post_init__(self):
        roles = np.asarray(self.roles, dtype=np.int8)
        object.__setattr__(self, "roles", roles)
        if not np.isin(roles, [STEKLOV, DIRICHLET_ZERO, NEUMANN_ZERO]).all():
            raise DtnError("unknown boundary role")
        if not (roles == STEKLOV).any():
            raise DtnError("partition needs at least one steklov node")

    @classmethod
    def full_steklov(cls, n_boundary: int) -> "BoundaryPartition":
        return cls(np.zeros(n_boundary, dtype=np.int8))

    @classmethod
    def from_arcs(cls, n_boundary: int, arcs) -> "BoundaryPartition":
        """``arcs`` is a list of (start, stop, role_name) with stop exclusive,
        wrapping allowed (start > stop wraps past node 0)."""
        roles = -np.ones(n_boundary, dtype=np.int8)
        for start, stop, name in arcs:
            role = _ROLE_NAMES[name] if isinstance(name, str) else int(name)
            idx = (
                np.arange(start, stop)
                if start < stop
                else np.concatenate([np.arange(start, n_boundary), np.arange(0, stop)])
            )
            roles[idx % n_boundary] = role
        if (roles < 0).any():
            raise DtnError("arcs do not cover every boundary node")
        return cls(roles)

    @property
    def steklov_mask(self) -> np.ndarray:
        return self.roles == STEKLOV


@dataclass
class DtnOperator:
    p: float
    schur: np.ndarray                    # (n_s, n_s) dense symmetric
    boundary_mass_s: sparse.csr_matrix  # (n_s, n_s)
    steklov_nodes: np.ndarray            # global node indices of steklov nodes
    partition: BoundaryPartition
    n_nodes: int

    @property
    def n_steklov(self) -> int:
        return len(self.steklov_nodes)


def build_dtn(
    matrices: FemMatrices,
    factor: InteriorFactor,
    p: float,
    partition: BoundaryPartition | None = None,
) -> DtnOperator:
    """Schur complement S = A_ss - A_su A_uu^{-1} A_us of A = p*M + K.

    For mixed problems the unknown block is enlarged by neumann_zero nodes and
    dirichlet_zero nodes are eliminated; both are baked into ``factor``.
    """
    if partition is None:
        partition = BoundaryPartition(factor.roles.copy())
    if factor.p != p:
        raise DtnError(f"factor was built for p={factor.p}, got p={p}")
    if not np.array_equal(factor.roles, partition.roles):
        raise DtnError("factor was built for a different boundary partition")

    if factor.u22 is None:  # the trailing block met an exactly zero pivot
        S = _schur_by_solves(factor)
        S = 0.5 * (S + S.T)
    else:
        S = _schur_from_factor(factor.u22)

    steklov_local = factor.data_nodes - matrices.n_interior
    mb_s = matrices.boundary_mass[steklov_local][:, steklov_local].tocsr()
    return DtnOperator(
        p=float(p),
        schur=S,
        boundary_mass_s=mb_s,
        steklov_nodes=factor.data_nodes.copy(),
        partition=partition,
        n_nodes=matrices.n_nodes,
    )


# columns per block of the in-place Schur product
_SCHUR_BLOCK = 256


def _schur_from_factor(u22: sparse.csc_matrix) -> np.ndarray:
    """S = U22^T D22^{-1} U22 from the trailing block of the boundary-last LU.

    S is formed in place in one dense array. Its block columns are computed
    from right to left, and each needs only the columns of U22 up to its own,
    which are not yet overwritten. Only the upper triangle is kept and then
    mirrored, so S is exactly symmetric."""
    s = u22.toarray(order="F")
    n = s.shape[0]
    d = s.diagonal().copy()
    for j1 in range(n, 0, -_SCHUR_BLOCK):
        j0 = max(0, j1 - _SCHUR_BLOCK)
        s[:j1, j0:j1] = s[:j1, :j1].T @ (s[:j1, j0:j1] / d[:j1, None])
    for j0 in range(0, n, _SCHUR_BLOCK):
        j1 = min(j0 + _SCHUR_BLOCK, n)
        diag = s[j0:j1, j0:j1]
        diag[...] = np.triu(diag) + np.triu(diag, 1).T
        s[j1:, j0:j1] = s[j0:j1, j1:].T
    return s


def _schur_by_solves(factor: InteriorFactor) -> np.ndarray:
    """S = A_ss - A_su A_uu^{-1} A_us, one block of interior solves at a time."""
    ns = len(factor.data_nodes)
    n_u = len(factor.unknown_nodes)
    S = factor.a_ss.copy()
    step = max(8, min(512, int(8e7 // max(8 * n_u, 1))))
    a_su = factor.a_us.T.tocsr()
    for s in range(0, ns, step):
        rhs = factor.a_us[:, s : s + step].toarray()
        S[:, s : s + step] -= a_su @ factor.solve_interior(rhs)
    return S


@dataclass
class Spectrum:
    p: float
    eigenvalues: np.ndarray        # (count,) ascending
    vectors: np.ndarray            # (n_s, count), M_b-orthonormal columns
    steklov_nodes: np.ndarray      # global node indices
    n_nodes: int
    multiplicity_tol: float = 1e-6
    extensions: np.ndarray | None = None  # (n_nodes, count)
    # first eigenvalue past the window (no vector kept): +inf when the window
    # holds the whole discrete spectrum, None when nothing computed it
    guard: float | None = None

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def degenerate_groups(self) -> list[list[int]]:
        """Indices clustered by eigenvalue within the multiplicity tolerance."""
        groups: list[list[int]] = []
        for k, mu in enumerate(self.eigenvalues):
            if groups and mu - self.eigenvalues[groups[-1][0]] <= self.multiplicity_tol * max(
                1.0, abs(mu)
            ):
                groups[-1].append(k)
            else:
                groups.append([k])
        return groups


def _fix_signs(vectors: np.ndarray, mb: sparse.csr_matrix) -> np.ndarray:
    """Normalize signs: boundary integral >= 0, first-node tie break."""
    weights = np.asarray(mb.sum(axis=0)).ravel()
    s = weights @ vectors
    tie = 1e-8 * np.sqrt(weights.sum())
    for k in range(vectors.shape[1]):
        if s[k] < -tie:
            vectors[:, k] = -vectors[:, k]
        elif abs(s[k]) <= tie:
            col = vectors[:, k]
            nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
            if len(nz) and col[nz[0]] < 0:
                vectors[:, k] = -col
    return vectors


def eigensolve(op: DtnOperator, count: int, multiplicity_tol: float = 1e-6) -> Spectrum:
    """Lowest ``count`` eigenpairs of S v = mu M_b v, M_b-orthonormalized.

    One more eigenvalue is computed as the spectrum's ``guard``, so callers
    can tell whether the last multiplet of the window is complete."""
    if count < 1 or count > op.n_steklov:
        raise DtnError(f"count must be in 1..{op.n_steklov}")
    n = min(count + 1, op.n_steklov)
    mb = op.boundary_mass_s.toarray()
    try:
        w, v = eigh(op.schur, mb, subset_by_index=[0, n - 1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DtnError(f"dense eigensolver failed: {exc}") from exc
    guard = float(w[count]) if n > count else math.inf
    v = _fix_signs(v[:, :count], op.boundary_mass_s)
    return Spectrum(
        p=op.p,
        eigenvalues=w[:count],
        vectors=v,
        steklov_nodes=op.steklov_nodes.copy(),
        n_nodes=op.n_nodes,
        multiplicity_tol=multiplicity_tol,
        guard=guard,
    )


def attach_extensions(
    spectrum: Spectrum, matrices: FemMatrices, factor: InteriorFactor
) -> Spectrum:
    spectrum.extensions = solve_dirichlet(matrices, factor, spectrum.p, spectrum.vectors)
    return spectrum


def eigenfunction_rmse(
    spectrum: Spectrum,
    oracle,
    boundary_points: np.ndarray,
    count: int | None = None,
    pairing_tol: float = 0.05,
) -> np.ndarray:
    """Per-mode boundary RMSE against an analytic oracle.

    Each numeric eigenvector is aligned by least squares to the analytic
    eigenspace whose eigenvalue matches (cos/sin-type pairs are handled by
    projecting onto the whole multiplet), then compared node by node:
    sqrt(mean((numeric - aligned)^2)).
    """
    count = spectrum.count if count is None else count
    mus = oracle.eigenvalues(count + 4)
    traces = oracle.trace_matrix(boundary_points, count + 4)
    # cluster analytic eigenvalues into multiplets
    clusters: list[list[int]] = []
    for i, mu in enumerate(mus):
        if clusters and mu - mus[clusters[-1][0]] <= 1e-6 * max(1.0, abs(mu)):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    centers = np.array([mus[c[0]] for c in clusters])

    out = np.empty(count)
    for k in range(count):
        mu_k = spectrum.eigenvalues[k]
        j = int(np.argmin(np.abs(centers - mu_k)))
        if abs(centers[j] - mu_k) > pairing_tol * max(1.0, abs(mu_k)):
            raise DtnError(
                f"eigenvalue {mu_k:.6g} (k={k}) matches no analytic multiplet "
                f"(closest {centers[j]:.6g})"
            )
        basis = traces[:, clusters[j]]
        coeff, *_ = np.linalg.lstsq(basis, spectrum.vectors[:, k], rcond=None)
        resid = spectrum.vectors[:, k] - basis @ coeff
        out[k] = np.sqrt(np.mean(resid**2))
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spectrum_to_csv(spectrum: Spectrum, path) -> None:
    with open(path, "w") as f:
        f.write("k,mu\n")
        for k, mu in enumerate(spectrum.eigenvalues):
            f.write(f"{k},{mu:.17g}\n")


def write_node_vector(values: np.ndarray, path) -> None:
    """One value per node line, same node ordering as the mesh file."""
    with open(path, "w") as f:
        for v in values:
            f.write(f"{v:.17g}\n")


def embed_boundary_vector(spectrum: Spectrum, k: int) -> np.ndarray:
    """Boundary eigenvector placed at its global node indices, zeros elsewhere."""
    out = np.zeros(spectrum.n_nodes)
    out[spectrum.steklov_nodes] = spectrum.vectors[:, k]
    return out
