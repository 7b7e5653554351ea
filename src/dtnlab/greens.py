"""Spectral Green's-function route to the same boundary operator.

Builds a truncated Robin-Laplacian eigenbasis, expands the screened Green's
function over it, assembles the regularized boundary kernel
(G_0 - G_q)/q with lumped boundary quadrature weights w, and recovers the
boundary spectrum through eta -> mu inversion, orthonormal in diag(w), its
``boundary_mass``. Serves as an independent cross-check of the Schur route.
The caller builds the two Robin bases (q = 0 and q) once and passes them in;
a basis whose q or truncation does not match raises ``GreensError``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .fem import FemMatrices
from .dtn import Spectrum, _check_count, _window


class GreensError(RuntimeError):
    pass


@dataclass(frozen=True)
class RobinEigenbasis:
    q: float
    eigenvalues: np.ndarray   # (m,) ascending
    modes: np.ndarray         # (n_nodes, m), M-orthonormal columns


def robin_eigenbasis(matrices: FemMatrices, q: float, m: int) -> RobinEigenbasis:
    """Lowest m eigenpairs of (K + q*B, M) where B is the boundary mass M_b
    placed into the full node indexing (zero on interior rows/cols).

    Deterministic: fixed shift-invert target and a fixed start vector. Mode
    signs are left as ARPACK returns them; the Green's function only uses
    products u_k(x0) u_k(x1).
    """
    if q < 0:
        raise GreensError("Robin parameter q must be >= 0")
    n = matrices.n_nodes
    if not (1 <= m <= n - 2):
        raise GreensError(f"truncation m must be in 1..{n - 2}")
    mb = matrices.boundary_mass.tocoo()
    rows, cols = mb.row + matrices.n_interior, mb.col + matrices.n_interior
    B = sparse.coo_matrix((mb.data, (rows, cols)), shape=(n, n)).tocsr()
    A = (matrices.stiffness + q * B).tocsc()
    M = matrices.mass.tocsc()
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        w, u = eigsh(A, k=m, M=M, sigma=-0.5, which="LM", v0=v0, maxiter=5000)
    except Exception as exc:
        raise GreensError(f"Robin eigensolver failed: {exc}") from exc
    order = np.argsort(w)
    return RobinEigenbasis(q=float(q), eigenvalues=w[order], modes=u[:, order])


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


def _check_basis(basis: RobinEigenbasis, name: str, q: float, m: int | None = None) -> None:
    if basis.q != q:
        raise GreensError(f"{name} is the q = {basis.q:g} Robin basis, expected q = {q:g}")
    if m is not None and basis.eigenvalues.size != m:
        raise GreensError(f"{name} holds {basis.eigenvalues.size} modes, expected m = {m}")


def dtn_spectrum_via_green(
    matrices: FemMatrices,
    q: float,
    p: float,
    m: int,
    count: int,
    basis0: RobinEigenbasis,
    basis_q: RobinEigenbasis,
) -> Spectrum:
    """Boundary spectrum from the regularized kernel (G_0 - G_q)/q between the
    boundary nodes, G_0 and G_q expanded over ``basis0`` (q = 0) and
    ``basis_q`` at pressure ``p``, each of m modes.

    The kernel matrix is symmetrized with the lumped boundary weights w
    (``M_b``'s row sums), so eta and the recovered eigenvectors stay real;
    mu = sqrt(1/eta + q^2/4) - q/2 falls as eta grows, so the largest eta
    come out in ascending mu. ``count`` is bounded by the boundary nodes as
    in ``dtn.eigensolve``, and as there one more pair gives the spectrum's
    ``guard``: +inf when its eta is at or below the truncation floor, the
    magnitude of the kernel's most negative eigenvalue, since mu grows
    without bound as eta falls to 0.
    """
    if q <= 0:
        raise GreensError("kernel regularization needs q > 0")
    n_b = matrices.n_boundary
    _check_count(count, n_b)
    _check_basis(basis0, "basis0", 0.0, m)
    _check_basis(basis_q, "basis_q", q, m)
    bidx = np.arange(matrices.n_interior, matrices.n_nodes)
    kernel = (green_function(basis0, p, bidx) - green_function(basis_q, p, bidx)) / q
    w = np.asarray(matrices.boundary_mass.sum(axis=1)).ravel()
    sw = np.sqrt(w)
    sym = sw[:, None] * kernel * sw[None, :]
    # eigh reads one triangle of sym, so it needs no symmetrizing
    eta, vecs = eigh(sym, subset_by_index=[max(n_b - count - 1, 0), n_b - 1])
    eta, vecs = eta[::-1], vecs[:, ::-1]  # largest eta = smallest mu
    # the kernel is indefinite only through its truncation error: an eta no
    # larger than the most negative one is that error, not a mode
    lowest = eigh(sym, eigvals_only=True, subset_by_index=[0, 0])[0]
    floor = max(-lowest, 1e-12 * eta[0], 0.0)
    if np.any(eta[:count] <= floor):
        raise GreensError(
            "kernel eta at or below its truncation floor within the requested "
            "count; increase the truncation m"
        )
    mu = np.full(len(eta), np.inf)
    live = eta > floor
    mu[live] = np.sqrt(1.0 / eta[live] + q * q / 4.0) - q / 2.0
    # back to nodal values, orthonormal in the lumped weights
    return _window(mu, vecs / sw[:, None], count, float(p), bidx, matrices.n_nodes,
                   sparse.diags(w))


def extend_via_green(basis0: RobinEigenbasis, spectrum: Spectrum, k: int) -> np.ndarray:
    """Interior extension by boundary quadrature against G_0 (``basis0``, the
    q = 0 basis), at the spectrum's p, over its boundary nodes weighted by
    the row sums of its ``boundary_mass``.

    Not applicable at p = 0 for the constant mode (mu_0 = 0); callers use the
    known constant 1/sqrt(perimeter) there.
    """
    _check_basis(basis0, "basis0", 0.0)
    p = spectrum.p
    mu = spectrum.eigenvalues[k]
    if p == 0.0 and k == 0:
        raise GreensError(
            "extension via the Green's function is undefined for p=0, k=0; "
            "the constant mode is known in closed form"
        )
    w = np.asarray(spectrum.boundary_mass.sum(axis=1)).ravel()
    g0 = green_function(basis0, p, np.arange(spectrum.n_nodes), spectrum.steklov_nodes)
    return g0 @ (w * mu * spectrum.vectors[:, k])
