"""Derived spectral quantities: boundary-integral coefficients and their
symmetry audit, pressure sweeps, the quadratic-form identities tying
eigenvalues to volume norms of the extended eigenfunctions, and
``localization``, which gives the amplified map B_k, the decay profile U_k and
the multiplet peak of one mode from one distance-to-boundary field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain
from .mesh import Mesh
from .fem import FemMatrices
from .dtn import Spectrum, numerical_groups
from .pipeline import solve


# relative gap under which neighbouring eigenvalues count as one multiplet
# (``numerical_groups``)
GROUP_TOL = 1e-3

# |A_k| at or below this counts as cancelled by symmetry (``symmetry_audit``)
CANCEL_TOL = 1e-3


class AnalysisError(RuntimeError):
    pass


def _extensions(spectrum: Spectrum) -> np.ndarray:
    if spectrum.extensions is None:
        raise AnalysisError("spectrum has no interior extensions attached")
    return spectrum.extensions


# ---------------------------------------------------------------------------
# boundary-integral coefficients
# ---------------------------------------------------------------------------

def ak_coefficients(spectrum: Spectrum) -> np.ndarray:
    """A_k = (1^T M_b v_k) / sqrt(1^T M_b 1), M_b the spectrum's own: weight of
    mode k in the expansion of a constant over the boundary eigenbasis. With
    the eigensolver's sign convention these are >= 0 up to quadrature noise."""
    weights = np.asarray(spectrum.boundary_mass.sum(axis=0)).ravel()
    measure = weights.sum()
    return (weights @ spectrum.vectors) / math.sqrt(measure)


def ak_via_volume(spectrum: Spectrum, matrices: FemMatrices) -> np.ndarray:
    """Volume route to the same coefficients: p/(mu_k sqrt(|dOmega|)) int V_k,
    at the spectrum's p, with |dOmega| measured by its ``boundary_mass``."""
    p = spectrum.p
    if p <= 0:
        raise AnalysisError("the volume formula degenerates at p = 0")
    measure = float(spectrum.boundary_mass.sum())
    vol = np.asarray(matrices.mass.sum(axis=0)).ravel() @ _extensions(spectrum)
    return p * vol / (spectrum.eigenvalues * math.sqrt(measure))


def symmetry_audit(ak: np.ndarray) -> list[int]:
    """Indices of the coefficients that survive symmetry cancellation,
    |A_k| > ``CANCEL_TOL``."""
    return np.flatnonzero(np.abs(np.asarray(ak)) > CANCEL_TOL).tolist()


def complete_groups(spectrum: Spectrum) -> list[list[int]]:
    """``numerical_groups`` of the window, less its last group when the
    spectrum's guard (the first eigenvalue past the window) chains onto it
    under the same rule, so that the window may have cut it. A guard of
    +inf (the window holds the whole discrete spectrum) cuts nothing."""
    groups = numerical_groups(spectrum.eigenvalues, GROUP_TOL)
    # numerical_groups chains an infinite guard too: inf - x <= tol * inf
    guarded = numerical_groups(np.append(spectrum.eigenvalues, spectrum.guard), GROUP_TOL)
    cut = math.isfinite(spectrum.guard) and len(guarded) == len(groups)
    return groups[:-1] if cut else groups


def concentrate_degenerate_ak(spectrum: Spectrum) -> np.ndarray:
    """Boundary-integral coefficients with each numerically degenerate group
    rotated so its weight sits on a single member.

    Within a degenerate eigenspace the coefficients are defined only up to an
    orthogonal rotation; the rotation-invariant content is the root sum of
    squares, which is placed on the group's last (highest) index, the
    convention that matches how symmetric benchmark domains order the
    boundary-coupled member. A group at the end of the window is rotated only
    when the spectrum's guard shows it is complete (``complete_groups``);
    otherwise its last computed member need not be the group's last, and its
    coefficients are returned unrotated."""
    ak = ak_coefficients(spectrum)
    out = ak.copy()
    for group in complete_groups(spectrum):
        if len(group) > 1:
            weight = float(np.sqrt(np.sum(ak[group] ** 2)))
            out[group] = 0.0
            out[group[-1]] = weight
    return out


# ---------------------------------------------------------------------------
# localization diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Localization:
    k: int
    mu: float
    distances: np.ndarray     # d, distance to the boundary at every node
    values: np.ndarray        # V_k at every node
    amplified: np.ndarray     # B_k = sqrt(|dOmega|) |V_k| exp(mu d) at every node
    bin_centers: np.ndarray   # occupied bands of d, the first (boundary) one at 0
    profile: np.ndarray       # U_k per band: sqrt(|dOmega|) max |V_k|
    group_max: float          # peak of B over unit combinations of k's multiplet


def localization(
    spectrum: Spectrum, k: int, mesh: Mesh, domain: Domain, bin_width: float | None = None
) -> Localization:
    """The amplified map B_k, the decay profile U_k and the multiplet peak of
    mode k, from one distance-to-boundary field.

    B_k is flat only where |V_k| decays at rate mu_k exactly, so its peaks
    locate slower-than-expected decay. U_k is the max of |V_k| over bands of
    distance to the boundary (a binned stand-in for the exact contour-line
    maximum; the band width defaults to 2h). ``group_max`` is the maximum of
    the amplified |sum_i c_i V_i| over unit coefficient vectors on the
    numerically degenerate group of k, the pointwise root sum of squares, so it
    does not depend on the eigenbasis; for a well-separated eigenvalue it is
    the peak of B_k. The group must be one ``complete_groups`` vouches for: a
    group the window may have cut raises ``AnalysisError``."""
    ext = _extensions(spectrum)
    group = next((g for g in complete_groups(spectrum) if k in g), None)
    if group is None:
        raise AnalysisError(
            "the group containing this mode touches the end of the computed "
            "window, so it may be truncated; compute more modes"
        )
    dist = domain.distance_to_boundary(mesh.nodes)
    mu = float(spectrum.eigenvalues[k])
    sqrt_per = math.sqrt(domain.perimeter)
    growth = np.exp(mu * dist)

    def amplified(cols: list[int]) -> np.ndarray:
        return sqrt_per * np.sqrt((ext[:, cols] ** 2).sum(axis=1)) * growth

    # band b is [b w, (b + 1) w), labelled by its middle; the first occupied
    # band holds the boundary nodes themselves and is labelled 0
    w = 2.0 * mesh.h_max if bin_width is None else bin_width
    if dist.max() >= w * 2.0**62:
        raise AnalysisError(f"bin width {w:g} makes more bands than an int64 can number")
    bands, of_node = np.unique((dist / w).astype(int), return_inverse=True)
    band_max = np.zeros(len(bands))
    np.maximum.at(band_max, of_node, np.abs(ext[:, k]))
    centers = bands * w + w / 2
    centers[0] = 0.0
    return Localization(
        k=k,
        mu=mu,
        distances=dist,
        values=ext[:, k],
        amplified=amplified([k]),
        bin_centers=centers,
        profile=sqrt_per * band_max,
        group_max=float(amplified(group).max()),
    )


# ---------------------------------------------------------------------------
# norm identities
# ---------------------------------------------------------------------------

def match_branches(ref: Spectrum, other: Spectrum) -> np.ndarray:
    """For each mode of ``ref``, the index of the matching mode of ``other``
    by maximal |inner product| in ref's M_b (sorted indices swap at crossings)."""
    from scipy.optimize import linear_sum_assignment  # its one call: not loaded with the module

    overlap = np.abs(ref.vectors.T @ (ref.boundary_mass @ other.vectors))
    rows, cols = linear_sum_assignment(-overlap)
    out = np.empty(ref.count, dtype=int)
    out[rows] = cols
    return out


def default_dp(p: float) -> float:
    """The central-difference step of ``norm_identities`` when none is given."""
    return max(1e-3, 1e-2 * p)


def norm_identities(
    matrices: FemMatrices, p: float, count: int, dp: float | None = None
) -> list[dict]:
    """Residuals of the three quadratic-form identities per mode:

    (a) V^T (pM + K) V = mu  (exact Schur algebra, solver-precision check);
    (b) V^T M V = d(mu)/dp   (central difference, branch-tracked);
    (c) V^T K V = mu - p d(mu)/dp.
    """
    if dp is None:
        dp = default_dp(p)
    if p - dp < 0:
        raise AnalysisError("need p - dp >= 0 for the central difference")

    wide = min(count + 4, matrices.n_boundary)
    spec0 = solve(matrices, p, count, extensions=True)[1]
    lo = solve(matrices, p - dp, wide)[1]
    hi = solve(matrices, p + dp, wide)[1]
    i_lo = match_branches(spec0, lo)
    i_hi = match_branches(spec0, hi)

    A = (p * matrices.mass + matrices.stiffness).tocsr()
    K = matrices.stiffness
    M = matrices.mass
    mb = spec0.boundary_mass
    rows = []
    for k in range(count):
        V = spec0.extensions[:, k]
        mu = spec0.eigenvalues[k]
        energy = float(V @ (A @ V))
        l2 = float(V @ (M @ V))
        grad = float(V @ (K @ V))
        dmu = (hi.eigenvalues[i_hi[k]] - lo.eigenvalues[i_lo[k]]) / (2 * dp)
        o_lo = abs(spec0.vectors[:, k] @ (mb @ lo.vectors[:, i_lo[k]]))
        o_hi = abs(spec0.vectors[:, k] @ (mb @ hi.vectors[:, i_hi[k]]))
        rows.append(
            {
                "k": k,
                "mu": mu,
                "energy_residual_rel": abs(energy - mu) / max(abs(mu), 1e-300),
                "l2_volume": l2,
                "dmu_dp": dmu,
                "l2_residual_rel": abs(l2 - dmu) / max(abs(l2), 1e-300),
                "grad_sq": grad,
                "grad_residual_rel": abs(grad - (mu - p * dmu)) / max(abs(grad), 1e-300),
                "tracked": bool(min(o_lo, o_hi) > 0.5),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# pressure sweep
# ---------------------------------------------------------------------------

def p_sweep(matrices: FemMatrices, p_grid, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues at each p of an increasing pressure
    grid: a (len(p_grid), count) array, each row ascending."""
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(np.diff(p_grid) <= 0) or np.any(p_grid < 0):
        raise AnalysisError("pressure grid must be nonnegative and strictly increasing")
    rows = np.empty((len(p_grid), count))
    for i, p in enumerate(p_grid):
        rows[i] = solve(matrices, p, count)[1].eigenvalues
    return rows
