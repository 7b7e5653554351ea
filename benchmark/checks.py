"""Output checks run after each operation, outside its timed section.

Each check returns a list of problems; an empty list means the output is
correct. The energy identity uses the benchmark's own sparse harmonic
extension, so it stays valid whichever route the solver takes to the pencil.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

ORTHO_TOL = 1e-8
ENERGY_TOL = 1e-8  # relative to max(1, max mu)


def oracle_error(eigenvalues: np.ndarray, exact: np.ndarray) -> float:
    """Largest relative eigenvalue error against the oracle values."""
    return float(np.max(np.abs(eigenvalues - exact) / np.abs(exact)))


def spectrum_shape(eigenvalues: np.ndarray, vectors: np.ndarray, count: int) -> list[str]:
    out = []
    if eigenvalues.shape != (count,) or vectors.shape[1] != count:
        out.append(f"expected {count} eigenpairs, got {eigenvalues.shape} / {vectors.shape}")
    elif not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(vectors))):
        out.append("non-finite eigenpairs")
    elif not np.all(np.diff(eigenvalues) >= 0):
        out.append("eigenvalues not ascending")
    return out


def orthonormality(vectors: np.ndarray, gram: sparse.spmatrix | np.ndarray) -> list[str]:
    """``vectors`` orthonormal in the boundary inner product ``gram``."""
    dev = float(np.abs(vectors.T @ (gram @ vectors) - np.eye(vectors.shape[1])).max())
    return [] if dev <= ORTHO_TOL else [f"boundary orthonormality error {dev:.2e}"]


def harmonic_extension(matrices, p: float, steklov_nodes: np.ndarray, vectors: np.ndarray):
    """Nodal values of the (p - Lap)-harmonic functions with the given boundary data.

    Solves the interior block directly; nodes outside ``steklov_nodes`` and the
    interior (none for a full Steklov partition) are held at zero.
    """
    A = (p * matrices.mass + matrices.stiffness).tocsr()
    n = A.shape[0]
    interior = np.arange(matrices.n_interior)
    V = np.zeros((n, vectors.shape[1]))
    V[steklov_nodes] = vectors
    rhs = -(A[interior][:, steklov_nodes] @ vectors)
    V[interior] = splu(A[interior][:, interior].tocsc()).solve(rhs)
    return A, V


def energy_identity(A, V: np.ndarray, eigenvalues: np.ndarray) -> list[str]:
    """``V^T (pM + K) V = diag(mu)`` for M_b-orthonormal harmonic eigenfunctions."""
    dev = float(np.abs(V.T @ (A @ V) - np.diag(eigenvalues)).max())
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    return [] if dev <= ENERGY_TOL * scale else [f"energy identity error {dev:.2e} (scale {scale:.3g})"]
