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

from .fem import ROBIN_SHIFT, InteriorFactor, solve_dirichlet

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
    """The boundary Schur complement S of the factor's p*M + K onto its data
    (steklov) nodes. Everything else about the problem, p, the nodes and
    their boundary mass, is read from the factor."""

    schur: np.ndarray  # (n_s, n_s) dense symmetric
    factor: InteriorFactor

    @property
    def p(self) -> float:
        return self.factor.p

    @property
    def steklov_nodes(self) -> np.ndarray:
        """Global node indices of the steklov nodes."""
        return self.factor.data_nodes

    @property
    def boundary_mass_s(self) -> sparse.csr_matrix:
        return self.factor.boundary_mass_s

    @property
    def n_nodes(self) -> int:
        return self.factor.n_nodes

    @property
    def n_steklov(self) -> int:
        return len(self.steklov_nodes)


def build_dtn(factor: InteriorFactor) -> DtnOperator:
    """Schur complement S = A_ss - A_su A_uu^{-1} A_us of A = p*M + K, for the
    p and boundary partition the factor was built for.

    S is read off the factor's trailing block, which holds S + sigma*M_b,s
    (``fem.ROBIN_SHIFT``); the shift is subtracted again here. For mixed
    problems the unknown block is enlarged by neumann_zero nodes and
    dirichlet_zero nodes are eliminated; both are baked into ``factor``.
    """
    S = _schur_from_factor(factor.u22)
    shift = factor.boundary_mass_s.tocoo()  # symmetric, so S stays exactly symmetric
    S[shift.row, shift.col] -= ROBIN_SHIFT * shift.data
    return DtnOperator(schur=S, factor=factor)


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


@dataclass
class Spectrum:
    p: float
    eigenvalues: np.ndarray        # (count,) ascending
    vectors: np.ndarray            # (n_s, count), M_b-orthonormal columns
    steklov_nodes: np.ndarray      # global node indices
    n_nodes: int
    extensions: np.ndarray | None = None  # (n_nodes, count)
    # first eigenvalue past the window (no vector kept): +inf when the window
    # holds the whole discrete spectrum, None when nothing computed it
    guard: float | None = None

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def numerical_groups(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    """Chain-linked clusters of ascending eigenvalues: each joins the group of
    its predecessor when closer than tol * max(1, |mu|).

    With a tolerance wider than the discretization error this groups
    multiplets whose true splitting the mesh cannot resolve, where
    eigenvectors mix arbitrarily."""
    groups: list[list[int]] = []
    for k, mu in enumerate(eigenvalues):
        if groups and mu - eigenvalues[groups[-1][-1]] <= tol * max(1.0, abs(mu)):
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _fix_signs(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Normalize signs in place: boundary integral ``weights @ v`` >= 0, and
    the first significant node positive where that integral is a tie."""
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


def eigensolve(op: DtnOperator, count: int) -> Spectrum:
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
    v = _fix_signs(v[:, :count], np.asarray(op.boundary_mass_s.sum(axis=0)).ravel())
    return Spectrum(
        p=op.p,
        eigenvalues=w[:count],
        vectors=v,
        steklov_nodes=op.steklov_nodes.copy(),
        n_nodes=op.n_nodes,
        guard=guard,
    )


def attach_extensions(spectrum: Spectrum, factor: InteriorFactor) -> Spectrum:
    spectrum.extensions = solve_dirichlet(factor, spectrum.vectors)
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
    clusters = numerical_groups(mus, 1e-6)  # analytic multiplets
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

def write_csv(path, header, rows) -> None:
    """CSV with the column names ``header`` and one line per row; every cell is
    formatted with ``.17g``, so floats round-trip and ints and bools print as
    integers."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format(cell, ".17g") for cell in row) + "\n")


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
