"""Spectral Green's-function route to the same boundary operator.

Builds a truncated Robin-Laplacian eigenbasis from one shift-invert Lanczos
run, its shift inside the wanted window with an inertia count of the
eigenvalues below it, and its Gram-Schmidt pass in cache-sized blocks of the
stored vectors, expands the screened Green's function over it, assembles the
regularized boundary kernel (G_0 - G_q)/q with lumped boundary quadrature
weights w, and recovers the boundary spectrum through eta -> mu inversion,
orthonormal in diag(w), its ``boundary_mass``. The interior eigenfunctions
come as that spectrum's ``extensions`` (``extend_via_green``), boundary
quadrature against G_0 for every mode in one low-rank product through the
q = 0 basis. Serves as an independent cross-check of the Schur route. The
caller builds the two Robin bases (q = 0 and q) once and passes them in; a
basis whose q or truncation does not match raises ``GreensError``, and so
does p = 0, where G_0 is singular.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.blas import dgemv
from scipy.sparse.linalg import splu

from .fem import FemMatrices
from .dtn import Spectrum, _check_count, _window


class GreensError(RuntimeError):
    pass


@dataclass(frozen=True)
class RobinEigenbasis:
    q: float
    eigenvalues: np.ndarray   # (m,) ascending
    modes: np.ndarray         # (n_nodes, m), M-orthonormal columns
    shift: float              # the Lanczos run's spectral shift sigma
    below: int                # eigenvalues below the shift, by inertia count
    steps: int                # Lanczos steps the run took


# SuperLU options of the inertia-count factor: no pivoting (the diagonal
# stays the pivot wherever it is nonzero) on a symmetric structure
SPD_LU_OPTIONS = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

# the fallback shift: A - _SHIFT*M is SPD for every q >= 0, so no eigenvalue
# lies below it and the low end of the spectrum maps to the operator's largest
# values
_SHIFT = -0.5
# Lanczos steps at most (and at most the node count). The disk at h = 0.04
# with m = 131 meets the tolerance after 232 steps from its window shift, at
# either q, and after 312 from _SHIFT
MAX_LANCZOS_STEPS = 5000
# the first convergence check comes after 1.5m + _CHECK_FROM steps, and the
# next ones every _CHECK_EVERY steps
_CHECK_FROM, _CHECK_EVERY = 20, 16
# bytes of stored Lanczos vectors per block of the Gram-Schmidt pass: a block
# this size stays in cache between its two products, so each stored vector is
# read from memory once per step, not twice
_GS_BLOCK_BYTES = 1 << 20


def robin_eigenbasis(matrices: FemMatrices, q: float, m: int) -> RobinEigenbasis:
    """Lowest m eigenpairs of (K + q*B, M) where B is the boundary mass M_b
    placed into the full node indexing (zero on interior rows/cols).

    Shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1980) with the
    shift inside the wanted window (Grimes, Lewis & Simon, SIAM J. Matrix
    Anal. Appl. 15, 1994): one run on ``(A - sigma*M)^-1 M``, A = K + q*B, in
    the M inner product, never restarted. sigma is half the two-term Weyl
    estimate of lambda_m, ``m = |Omega| lam/(4 pi) + |dOmega| sqrt(lam)/(4 pi)``
    with ``|Omega| = 1'M1`` and ``|dOmega| = 1'M_b1``, so the wanted
    eigenvalues map to both ends of the operator's spectrum, and the
    unwanted ones crowd at 0 between them. An unpivoted LU factor of the
    symmetric ``A - sigma*M`` is its LDL' factor, U's diagonal D: by
    Sylvester's law of inertia, its negative pivots count ``below``, the
    eigenvalues under sigma. When that count is m or more (small m), or
    SuperLU pivoted, so that the count is not an inertia, the run falls back
    to ``_SHIFT``, below the whole spectrum, with ``below = 0``. The run
    solves with a second, pivoted factor of the same matrix.

    Each step follows the three-term recurrence with one classical
    Gram-Schmidt pass against every stored Lanczos vector (Parlett, The
    Symmetric Eigenvalue Problem, 1980). The pass runs over blocks of about
    1 MiB of stored vectors: all its coefficients come from the vector
    before the pass (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976),
    so each block's two products share one read of it from memory. The run
    stops when exactly ``below`` Ritz values are negative and each wanted
    one (those, and the ``m - below`` largest) meets ARPACK's own tolerance,
    ``|beta_d s_{d,i}| <= eps*|theta_i|``, or when the Krylov space is the
    whole space; a run that reaches ``MAX_LANCZOS_STEPS`` first raises
    ``GreensError``.

    Deterministic: the start vector is drawn from a fixed seed (a constant
    is an exact eigenvector at q = 0 and would end the run at its first
    step). A one-vector Krylov space holds one direction of an exactly
    degenerate eigenspace. Mode signs, and the rotation of a pair's vectors,
    are left as they fall out; the Green's function only uses the sums of
    products u_k(x0) u_k(x1), which do not depend on them.
    """
    if q < 0:
        raise GreensError("Robin parameter q must be >= 0")
    n = matrices.n_nodes
    if not (1 <= m <= n - 2):
        raise GreensError(f"truncation m must be in 1..{n - 2}")
    mb = matrices.boundary_mass.tocoo()
    rows, cols = mb.row + matrices.n_interior, mb.col + matrices.n_interior
    B = sparse.coo_matrix((mb.data, (rows, cols)), shape=(n, n))
    M = matrices.mass.tocsr()
    A = matrices.stiffness + q * B
    # sqrt(lambda_m) from Weyl's law: area*s^2 + perimeter*s - 4 pi m = 0
    area, perimeter = M.sum(), matrices.boundary_mass.sum()
    root = (np.sqrt(perimeter**2 + 16 * np.pi * area * m) - perimeter) / (2 * area)
    shift = root**2 / 2
    try:
        lu = splu((A - shift * M).tocsc(), permc_spec="MMD_AT_PLUS_A", **SPD_LU_OPTIONS)
        below = int(np.count_nonzero(lu.U.diagonal() < 0))
        if below >= m or not np.array_equal(lu.perm_r, lu.perm_c):
            shift, below = _SHIFT, 0
        lu = splu((A - shift * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=1.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise GreensError(f"Robin eigensolver failed: {exc}") from exc
    theta, vecs, steps = _lanczos(lu.solve, M, m, min(n, MAX_LANCZOS_STEPS), below)
    lam = shift + 1.0 / theta
    order = np.argsort(lam)
    return RobinEigenbasis(q=float(q), eigenvalues=lam[order], modes=vecs[:, order],
                           shift=float(shift), below=below, steps=steps)


def _lanczos(solve, M, m: int, cap: int, below: int):
    """The m wanted eigenpairs of the M-symmetric operator ``x -> solve(M x)``,
    its ``below`` negative ones and its ``m - below`` largest, in at most
    ``cap`` steps: (theta ascending, M-orthonormal vectors, steps taken)."""
    n = M.shape[0]
    first = 3 * m // 2 + _CHECK_FROM
    rows = max(1, _GS_BLOCK_BYTES // (8 * n))
    Q = np.empty((min(cap, 3 * m + 32), n))  # the Lanczos vectors, one per row
    alpha, beta = np.empty(cap), np.empty(cap)
    w = np.random.default_rng(0).standard_normal(n)
    mw = M @ w
    norm = np.sqrt(w @ mw)
    found = below
    for d in range(1, cap + 1):
        j = d - 1
        if j == len(Q):
            Q = np.concatenate((Q, np.empty((min(j, cap - j), n))))
        Q[j], mq = w / norm, mw / norm
        w = solve(mq)
        alpha[j] = w @ mq
        w -= alpha[j] * Q[j]
        if j:
            w -= beta[j - 1] * Q[j - 1]
        # one classical Gram-Schmidt pass, block by block, w updated in place
        mw = M @ w
        for k0 in range(0, d, rows):
            Qk = Q[k0:min(k0 + rows, d)].T  # Fortran-ordered: dgemv makes no copy
            w = dgemv(-1.0, Qk, dgemv(1.0, Qk, mw, trans=1), beta=1.0, y=w, overwrite_y=1)
        mw = M @ w
        norm = beta[j] = np.sqrt(w @ mw)
        due = d == cap or (d >= first and (d - first) % _CHECK_EVERY == 0)
        if due and d >= m:
            theta, s = eigh_tridiagonal(alpha[:d], beta[:j])
            # fewer negative Ritz values than the inertia count is a wanted
            # pair not yet found, more is one not yet converged
            found = np.count_nonzero(theta < 0)
            if found != below:
                continue
            wanted = np.r_[:below, d - m + below:d]
            theta, s = theta[wanted], s[:, wanted]
            if d == n or np.all(norm * np.abs(s[-1]) <= np.finfo(float).eps * np.abs(theta)):
                return theta, Q[:d].T @ s, d
    count = "" if found == below else f" ({found} Ritz values below the shift, {below} by inertia)"
    raise GreensError(f"Robin eigensolver: the lowest {m} pairs did not converge "
                      f"in {cap} Lanczos steps{count}")


def green_function(basis: RobinEigenbasis, p: float, idx) -> np.ndarray:
    """Truncated expansion of the screened Green's function on one node set.

    Returns the (len(idx), len(idx)) matrix sum_k u_k(x0) u_k(x1) / (p + lambda_k),
    exactly symmetric.
    """
    u = basis.modes[np.atleast_1d(idx)]
    g = (u / _screen(basis, p)) @ u.T
    return 0.5 * (g + g.T)  # enforce the symmetry the expansion has exactly


def _screen(basis: RobinEigenbasis, p: float) -> np.ndarray:
    """The expansion's denominators p + lambda_k, each positive."""
    denom = p + basis.eigenvalues
    if denom.min() <= 0:
        raise GreensError("p + lambda_0 must be positive")
    return denom


def _check_pressure(p: float) -> None:
    if p <= 0:
        raise GreensError(
            "the Green route needs p > 0: at p = 0, G_0 is the Neumann Green's "
            "function, singular on the constants"
        )


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
    _check_pressure(p)
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


def extend_via_green(basis0: RobinEigenbasis, spectrum: Spectrum) -> Spectrum:
    """A copy of ``spectrum`` with the interior extensions of its vectors, as
    ``dtn.attach_extensions`` gives the Schur route's: boundary quadrature
    against G_0 (``basis0``, the q = 0 basis) at the spectrum's p, over its
    boundary nodes weighted by the row sums w of its ``boundary_mass``.

    Mode k's extension is G_0 (w mu_k v_k). With U the basis modes and U_b
    their rows at the boundary nodes, every mode comes from one low-rank
    product, ``U diag(1/(p + lambda)) (U_b^T (diag(w) V diag(mu)))``, so no
    n_nodes x n_b Green matrix is formed.

    A spectrum at p = 0 raises ``GreensError`` before any product, as
    ``dtn_spectrum_via_green`` does: G_0 is singular there.
    """
    _check_basis(basis0, "basis0", 0.0)
    _check_pressure(spectrum.p)
    denom = _screen(basis0, spectrum.p)
    w = np.asarray(spectrum.boundary_mass.sum(axis=1)).ravel()
    weighted = w[:, None] * spectrum.vectors * spectrum.eigenvalues
    coeffs = basis0.modes[spectrum.steklov_nodes].T @ weighted
    return replace(spectrum, extensions=basis0.modes @ (coeffs / denom[:, None]))
