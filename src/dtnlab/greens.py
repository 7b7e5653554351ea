"""Spectral Green's-function route to the same boundary operator.

Builds a truncated Robin-Laplacian eigenbasis, expands the screened Green's
function over it, assembles the regularized boundary kernel
(G_0 - G_q)/q with lumped boundary quadrature weights, and recovers the
boundary spectrum through eta -> mu inversion. Serves as an independent
cross-check of the Schur-complement route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .fem import FemMatrices
from .dtn import Spectrum, _fix_signs


class GreensError(RuntimeError):
    pass


@dataclass
class RobinEigenbasis:
    q: float
    eigenvalues: np.ndarray   # (m,) ascending
    modes: np.ndarray         # (n_nodes, m), M-orthonormal columns
    boundary_slice: slice     # boundary node index range

    @property
    def truncation(self) -> int:
        return len(self.eigenvalues)


def boundary_mass_embedded(matrices: FemMatrices) -> sparse.csr_matrix:
    """M_b placed into the full node indexing (zero on interior rows/cols)."""
    n = matrices.n_nodes
    mb = matrices.boundary_mass.tocoo()
    rows = mb.row + matrices.n_interior
    cols = mb.col + matrices.n_interior
    return sparse.coo_matrix((mb.data, (rows, cols)), shape=(n, n)).tocsr()


def robin_eigenbasis(matrices: FemMatrices, q: float, m: int) -> RobinEigenbasis:
    """Lowest m eigenpairs of (K + q*B, M) where B is the embedded boundary mass.

    Deterministic: fixed shift-invert target and a fixed start vector. Mode
    signs are left as ARPACK returns them; the Green's function only uses
    products u_k(x0) u_k(x1).
    """
    if q < 0:
        raise GreensError("Robin parameter q must be >= 0")
    n = matrices.n_nodes
    if not (1 <= m <= n - 2):
        raise GreensError(f"truncation m must be in 1..{n - 2}")
    A = (matrices.stiffness + q * boundary_mass_embedded(matrices)).tocsc()
    M = matrices.mass.tocsc()
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        w, u = eigsh(A, k=m, M=M, sigma=-0.5, which="LM", v0=v0, maxiter=5000)
    except Exception as exc:
        raise GreensError(f"Robin eigensolver failed: {exc}") from exc
    order = np.argsort(w)
    return RobinEigenbasis(
        q=float(q),
        eigenvalues=w[order],
        modes=u[:, order],
        boundary_slice=slice(matrices.n_interior, matrices.n_nodes),
    )


def green_function(basis: RobinEigenbasis, p: float, idx0, idx1=None) -> np.ndarray:
    """Truncated expansion of the screened Green's function between node sets.

    Returns the (len(idx0), len(idx1)) matrix sum_k u_k(x0) u_k(x1) / (p + lambda_k).
    """
    denom = p + basis.eigenvalues
    if denom.min() <= 0:
        raise GreensError("p + lambda_0 must be positive")
    idx0 = np.atleast_1d(idx0)
    same = idx1 is None
    idx1 = idx0 if same else np.atleast_1d(idx1)
    u0 = basis.modes[idx0]
    u1 = basis.modes[idx1]
    g = (u0 / denom) @ u1.T
    if same:
        g = 0.5 * (g + g.T)  # enforce the symmetry the expansion has exactly
    return g


def boundary_weights(matrices: FemMatrices) -> np.ndarray:
    """Lumped boundary quadrature weights (half-sum of adjacent edge lengths)."""
    return np.asarray(matrices.boundary_mass.sum(axis=1)).ravel()


def dtn_spectrum_via_green(
    matrices: FemMatrices,
    q: float,
    p: float,
    m: int,
    count: int,
    basis0: RobinEigenbasis | None = None,
    basis_q: RobinEigenbasis | None = None,
) -> Spectrum:
    """Boundary spectrum from the regularized kernel (G_0 - G_q)/q.

    The kernel matrix is symmetrized with the quadrature weights, so eta and
    the recovered eigenvectors stay real; mu = sqrt(1/eta + q^2/4) - q/2.
    """
    if q <= 0:
        raise GreensError("kernel regularization needs q > 0")
    if basis0 is None:
        basis0 = robin_eigenbasis(matrices, 0.0, m)
    if basis_q is None:
        basis_q = robin_eigenbasis(matrices, q, m)
    bidx = np.arange(matrices.n_interior, matrices.n_nodes)
    g0 = green_function(basis0, p, bidx)
    gq = green_function(basis_q, p, bidx)
    kernel = (g0 - gq) / q

    w = boundary_weights(matrices)
    sw = np.sqrt(w)
    sym = sw[:, None] * kernel * sw[None, :]
    sym = 0.5 * (sym + sym.T)
    eta, vecs = np.linalg.eigh(sym)
    eta = eta[::-1][:count]          # largest eta = smallest mu
    vecs = vecs[:, ::-1][:, :count]
    if np.any(eta <= 1e-12 * eta.max(initial=0.0)):
        raise GreensError(
            "kernel produced non-positive or rank-deficient eta within the "
            "requested count; increase the truncation m"
        )
    mu = np.sqrt(1.0 / eta + q * q / 4.0) - q / 2.0
    order = np.argsort(mu)
    mu, vecs = mu[order], vecs[:, order]
    # back to nodal values, unit weighted-L2 norm
    v = _fix_signs(vecs / sw[:, None], w)
    return Spectrum(
        p=float(p),
        eigenvalues=mu,
        vectors=v,
        steklov_nodes=bidx,
        n_nodes=matrices.n_nodes,
    )


def eta_of_mu(mu: float, q: float) -> float:
    """Kernel eigenvalue for a boundary eigenvalue: 1 / (mu (mu + q))."""
    return 1.0 / (mu * (mu + q))


def extend_via_green(
    basis0: RobinEigenbasis, matrices: FemMatrices, spectrum: Spectrum, k: int
) -> np.ndarray:
    """Interior extension by boundary quadrature against G_0, at the
    spectrum's p.

    Not applicable at p = 0 for the constant mode (mu_0 = 0); callers use the
    known constant 1/sqrt(perimeter) there.
    """
    p = spectrum.p
    mu = spectrum.eigenvalues[k]
    if p == 0.0 and k == 0:
        raise GreensError(
            "extension via the Green's function is undefined for p=0, k=0; "
            "the constant mode is known in closed form"
        )
    w = boundary_weights(matrices)
    bidx = np.arange(matrices.n_interior, matrices.n_nodes)
    g0 = green_function(basis0, p, np.arange(matrices.n_nodes), bidx)
    return g0 @ (w * mu * spectrum.vectors[:, k])


def kernel_consistency_report(
    matrices: FemMatrices,
    basis0: RobinEigenbasis,
    basis_q: RobinEigenbasis,
    fem_spectrum: Spectrum,
) -> dict:
    """Diagnostic: kernel from two Robin bases vs its reconstruction from the
    Schur-route spectrum sum_k v_k v_k^T / (mu_k (mu_k + q)), at the
    spectrum's p and the q of ``basis_q``. Reports the max abs deviation and
    the truncation tail bound; no hard assertion."""
    p, q = fem_spectrum.p, basis_q.q
    bidx = np.arange(matrices.n_interior, matrices.n_nodes)
    g0 = green_function(basis0, p, bidx)
    gq = green_function(basis_q, p, bidx)
    kernel = (g0 - gq) / q
    mus = fem_spectrum.eigenvalues
    v = fem_spectrum.vectors
    recon = (v / (mus * (mus + q))) @ v.T
    tail = fem_spectrum.eigenvalues[-1]
    return {
        "max_abs_deviation": float(np.abs(kernel - recon).max()),
        "kernel_scale": float(np.abs(kernel).max()),
        "modes_fem": fem_spectrum.count,
        "modes_green": basis0.truncation,
        "dtn_tail_cut": float(1.0 / (tail * (tail + q))),
        "robin_tail_cut": float(1.0 / (p + basis0.eigenvalues[-1])),
    }
