"""Discrete Dirichlet-to-Neumann spectrum from the pencil S v = mu M_b v.

The boundary Schur complement S comes from the root of the factor's partial
Cholesky factorization, the boundary nodes that it never eliminates
(``fem.InteriorFactor.schur``). The operator is never formed as M_b^{-1} S;
eigenpairs come from the symmetric pencil (S, M_b), which is mathematically
identical and keeps eigenvalues real and eigenvectors M_b-orthogonal in
floating point. A ``Spectrum`` carries the Gram matrix its vectors are
orthonormal in, ``boundary_mass`` (M_b on the data nodes here, the lumped
weights on the Green route); every boundary inner product of a spectrum
reads it. Mixed Steklov problems are supported through per-node boundary
roles (``fem.BoundaryPartition``), which the factor reads. Also here: the
interior extensions of a spectrum, the boundary RMSE against an analytic
oracle, and CSV and JSON output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from .fem import InteriorFactor, solve_dirichlet


# relative distance within which a computed eigenvalue pairs with an analytic
# multiplet (``eigenfunction_rmse``)
PAIRING_TOL = 0.05


class DtnError(RuntimeError):
    pass


@dataclass(frozen=True)
class DtnOperator:
    """The boundary Schur complement S of the factor's p*M + K onto its data
    (steklov) nodes. Everything else about the problem, p, the nodes and
    their boundary mass, is read from the factor."""

    schur: np.ndarray  # (n_s, n_s) dense symmetric
    factor: InteriorFactor


def build_dtn(factor: InteriorFactor) -> DtnOperator:
    """S for the p and boundary partition the factor was built for."""
    return DtnOperator(factor.schur(), factor)


@dataclass(frozen=True)
class Spectrum:
    p: float
    eigenvalues: np.ndarray        # (count,) ascending
    vectors: np.ndarray            # (n_s, count), orthonormal in boundary_mass
    steklov_nodes: np.ndarray      # global node indices
    n_nodes: int
    boundary_mass: sparse.spmatrix  # (n_s, n_s) Gram matrix of the vectors
    # first eigenvalue past the window (no vector kept): +inf when the window
    # holds the whole discrete spectrum
    guard: float
    extensions: np.ndarray | None = None  # (n_nodes, count)

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


def _fix_signs(vectors: np.ndarray, boundary_mass: sparse.spmatrix) -> np.ndarray:
    """Normalize signs in place: boundary integral ``1^T boundary_mass v`` >= 0,
    and the first significant node positive where that integral is a tie."""
    weights = np.asarray(boundary_mass.sum(axis=0)).ravel()
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


def _check_count(count: int, n_s: int) -> None:
    """The bound on a requested mode count over ``n_s`` data nodes, shared by
    both routes to the spectrum."""
    if count < 1 or count > n_s:
        raise DtnError(f"count must be in 1..{n_s}")


def _window(w: np.ndarray, v: np.ndarray, count: int, p: float, steklov_nodes: np.ndarray,
            n_nodes: int, boundary_mass: sparse.spmatrix) -> Spectrum:
    """The spectrum of the lowest ``count`` of the ascending eigenpairs (w, v),
    the vectors sign-fixed in their Gram matrix ``boundary_mass``. Both routes
    build their spectrum here. The guard is ``w[count]``, or +inf when the
    pairs given are all the discrete spectrum has."""
    return Spectrum(
        p=p,
        eigenvalues=w[:count],
        vectors=_fix_signs(v[:, :count], boundary_mass),
        steklov_nodes=steklov_nodes,
        n_nodes=n_nodes,
        boundary_mass=boundary_mass,
        guard=float(w[count]) if len(w) > count else math.inf,
    )


def eigensolve(op: DtnOperator, count: int) -> Spectrum:
    """Lowest ``count`` eigenpairs of S v = mu M_b v, orthonormal in the
    factor's M_b, which the spectrum carries as its ``boundary_mass``.

    One more eigenvalue is computed as the spectrum's ``guard``, so callers
    can tell whether the last multiplet of the window is complete."""
    fac = op.factor
    n_s = len(fac.data_nodes)
    _check_count(count, n_s)
    try:
        # the dense M_b is made for this call alone, in Fortran order, so
        # LAPACK works in it instead of in a copy (n_s^2 doubles less at peak)
        w, v = eigh(op.schur, fac.boundary_mass_s.toarray(order="F"), overwrite_b=True,
                    subset_by_index=[0, min(count, n_s - 1)])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DtnError(f"dense eigensolver failed: {exc}") from exc
    return _window(w, v, count, fac.p, fac.data_nodes.copy(), fac.n_nodes,
                   fac.boundary_mass_s)


def attach_extensions(spectrum: Spectrum, factor: InteriorFactor) -> Spectrum:
    """A copy of ``spectrum`` with the interior extensions of its vectors."""
    return replace(spectrum, extensions=solve_dirichlet(factor, spectrum.vectors))


def eigenfunction_rmse(spectrum: Spectrum, oracle, boundary_points: np.ndarray) -> np.ndarray:
    """Per-mode boundary RMSE against an analytic oracle.

    Each numeric eigenvector is aligned by least squares to the analytic
    eigenspace whose eigenvalue matches (cos/sin-type pairs are handled by
    projecting onto the whole multiplet), then compared node by node:
    sqrt(mean((numeric - aligned)^2)).
    """
    count = spectrum.count
    mus = oracle.eigenvalues(count + 4)
    traces = oracle.trace_matrix(boundary_points, count + 4)
    clusters = numerical_groups(mus, 1e-6)  # analytic multiplets
    centers = np.array([mus[c[0]] for c in clusters])

    out = np.empty(count)
    for k in range(count):
        mu_k = spectrum.eigenvalues[k]
        j = int(np.argmin(np.abs(centers - mu_k)))
        if abs(centers[j] - mu_k) > PAIRING_TOL * max(1.0, abs(mu_k)):
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


def summary_to_json(path, **payload) -> None:
    """``payload`` as indented JSON with sorted keys; numpy arrays and scalars
    are written as lists and numbers."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON-serializable: {type(o)}")

    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=default, sort_keys=True)
        f.write("\n")

