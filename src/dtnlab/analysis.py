"""Derived spectral quantities: boundary-integral coefficients, pressure sweeps,
localization maps and radial decay profiles, and the quadratic-form identities
tying eigenvalues to volume norms of the extended eigenfunctions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Domain
from .mesh import Mesh
from .fem import FemMatrices
from .dtn import BoundaryPartition, Spectrum, numerical_groups
from .pipeline import solve
from .conjecture import effective_angle_sequence


class AnalysisError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# boundary-integral coefficients
# ---------------------------------------------------------------------------

def ak_coefficients(spectrum: Spectrum, matrices: FemMatrices) -> np.ndarray:
    """A_k = (1^T M_b v_k) / sqrt(1^T M_b 1): weight of mode k in the expansion
    of a constant over the boundary eigenbasis. With the sign convention of the
    eigensolver these are >= 0 up to quadrature noise."""
    mb_s = matrices.boundary_mass_at(spectrum.steklov_nodes)
    weights = np.asarray(mb_s.sum(axis=0)).ravel()
    measure = weights.sum()
    return (weights @ spectrum.vectors) / math.sqrt(measure)


def ak_via_volume(spectrum: Spectrum, matrices: FemMatrices) -> np.ndarray:
    """Volume route to the same coefficients: p/(mu_k sqrt(|dOmega|)) int V_k,
    at the spectrum's p."""
    p = spectrum.p
    if p <= 0:
        raise AnalysisError("the volume formula degenerates at p = 0")
    if spectrum.extensions is None:
        raise AnalysisError("spectrum has no interior extensions attached")
    measure = float(matrices.boundary_mass.sum())
    vol = np.asarray(matrices.mass.sum(axis=0)).ravel() @ spectrum.extensions
    return p * vol / (spectrum.eigenvalues * math.sqrt(measure))


@dataclass
class SymmetryAudit:
    threshold: float
    survivors: list[int]
    cancelled: list[int]
    magnitudes: np.ndarray


def symmetry_audit(ak: np.ndarray, threshold: float = 1e-3) -> SymmetryAudit:
    """Split coefficient indices into survivors (|A_k| > threshold) and the
    symmetry-cancelled rest."""
    mags = np.abs(np.asarray(ak))
    surv = np.flatnonzero(mags > threshold)
    gone = np.flatnonzero(mags <= threshold)
    return SymmetryAudit(threshold, surv.tolist(), gone.tolist(), mags)


def last_group_complete(spectrum: Spectrum, group_tol: float) -> bool:
    """Whether the window's last numerical group is known to be complete.

    It is when the spectrum's guard (the first eigenvalue past the window)
    does not chain onto that group under the ``numerical_groups`` rule, or is
    +inf (the window holds the whole discrete spectrum). A spectrum without a
    guard cannot tell, so its last group counts as possibly truncated."""
    guard = spectrum.guard
    if guard is None:
        return False
    if math.isinf(guard):
        return True
    groups = numerical_groups(np.append(spectrum.eigenvalues, guard), group_tol)
    return groups[-1] == [spectrum.count]


def concentrate_degenerate_ak(
    spectrum: Spectrum, matrices: FemMatrices, group_tol: float = 1e-3
) -> np.ndarray:
    """Boundary-integral coefficients with each numerically degenerate group
    rotated so its weight sits on a single member.

    Within a degenerate eigenspace the coefficients are defined only up to an
    orthogonal rotation; the rotation-invariant content is the root sum of
    squares, which is placed on the group's last (highest) index, the
    convention that matches how symmetric benchmark domains order the
    boundary-coupled member. A group at the end of the window is rotated only
    when the spectrum's guard shows it is complete (``last_group_complete``);
    otherwise its last computed member need not be the group's last, and its
    coefficients are returned unrotated."""
    ak = ak_coefficients(spectrum, matrices)
    out = ak.copy()
    groups = numerical_groups(spectrum.eigenvalues, group_tol)
    if not last_group_complete(spectrum, group_tol):
        groups = groups[:-1]
    for group in groups:
        if len(group) > 1:
            weight = float(np.sqrt(np.sum(ak[group] ** 2)))
            out[group] = 0.0
            out[group[-1]] = weight
    return out


def bk_group_max(
    spectrum: Spectrum,
    k: int,
    mesh: Mesh,
    domain: Domain,
    group_tol: float = 1e-3,
) -> float:
    """Peak amplified value over all unit combinations within the numerically
    degenerate group containing mode k.

    The maximum of |sum_i c_i V_i(x)| over unit coefficient vectors is the
    pointwise root sum of squares, so the group version is closed-form. For a
    well-separated eigenvalue this reduces to the single-mode peak. A group
    that ends on the last computed mode is accepted only when the spectrum's
    guard eigenvalue shows it is complete (``last_group_complete``); a group
    the window may have cut, or any such group of a spectrum without a guard,
    raises ``AnalysisError``."""
    if spectrum.extensions is None:
        raise AnalysisError("spectrum has no interior extensions attached")
    group = next(
        g for g in numerical_groups(spectrum.eigenvalues, group_tol) if k in g
    )
    if group[-1] == spectrum.count - 1 and not last_group_complete(spectrum, group_tol):
        raise AnalysisError(
            "the group containing this mode touches the end of the computed "
            "window, so it may be truncated; compute more modes"
        )
    V = spectrum.extensions[:, group]
    dist = domain.distance_to_boundary(mesh.nodes)
    mu = float(spectrum.eigenvalues[k])
    amp = math.sqrt(domain.perimeter) * np.sqrt((V**2).sum(axis=1)) * np.exp(mu * dist)
    return float(amp.max())


# ---------------------------------------------------------------------------
# localization diagnostics
# ---------------------------------------------------------------------------

@dataclass
class LocalizationMap:
    k: int
    mu: float
    values: np.ndarray        # V_k at every node
    amplified: np.ndarray     # B_k = |sqrt(|dOmega|) V_k exp(mu * dist)|
    distances: np.ndarray
    floor: float = 1e-4       # display mask only, never used in computations

    def max_amplified(self) -> float:
        return float(self.amplified.max())

    def masked_log10(self) -> np.ndarray:
        out = np.full_like(self.values, np.nan)
        big = np.abs(self.values) >= self.floor
        out[big] = np.log10(np.abs(self.values[big]))
        return out


def bk_map(spectrum: Spectrum, k: int, mesh: Mesh, domain: Domain, floor: float = 1e-4) -> LocalizationMap:
    """Exponentially amplified eigenfunction map; flat only where the decay
    rate equals mu_k exactly, so its peaks locate slower-than-expected decay."""
    if spectrum.extensions is None:
        raise AnalysisError("spectrum has no interior extensions attached")
    v = spectrum.extensions[:, k]
    dist = domain.distance_to_boundary(mesh.nodes)
    mu = spectrum.eigenvalues[k]
    sqrt_per = math.sqrt(domain.perimeter)
    return LocalizationMap(
        k=k,
        mu=float(mu),
        values=v,
        amplified=np.abs(sqrt_per * v * np.exp(mu * dist)),
        distances=dist,
        floor=floor,
    )


@dataclass
class RadialProfile:
    k: int
    mu: float
    bin_centers: np.ndarray
    values: np.ndarray        # U_k per band: sqrt(|dOmega|) max |V_k|
    half_width: float

    def guide(self) -> np.ndarray:
        """U(0) exp(-mu delta) reference decay."""
        return self.values[0] * np.exp(-self.mu * self.bin_centers)


def uk_profile(
    spectrum: Spectrum, k: int, mesh: Mesh, domain: Domain, bin_width: float | None = None
) -> RadialProfile:
    """Max |V_k| over bands of distance-to-boundary (binned stand-in for the
    exact contour-line maximum; band width defaults to 2h)."""
    if spectrum.extensions is None:
        raise AnalysisError("spectrum has no interior extensions attached")
    w = 2.0 * mesh.h_max if bin_width is None else bin_width
    v = np.abs(spectrum.extensions[:, k])
    dist = domain.distance_to_boundary(mesh.nodes)
    nbin = int(dist.max() / w) + 1
    idx = np.minimum((dist / w).astype(int), nbin - 1)
    sqrt_per = math.sqrt(domain.perimeter)
    centers, values = [], []
    for b in range(nbin):
        mask = idx == b
        if mask.any():
            centers.append(b * w)  # band [b*w, (b+1)*w); label by inner edge + w/2
            values.append(sqrt_per * v[mask].max())
    centers = np.asarray(centers) + w / 2
    centers[0] = 0.0  # the first band contains the boundary nodes themselves
    return RadialProfile(
        k=k,
        mu=float(spectrum.eigenvalues[k]),
        bin_centers=centers,
        values=np.asarray(values),
        half_width=w / 2,
    )


# ---------------------------------------------------------------------------
# norm identities
# ---------------------------------------------------------------------------

def match_branches(ref: Spectrum, other: Spectrum, matrices: FemMatrices) -> np.ndarray:
    """For each mode of ``ref``, the index of the matching mode of ``other``
    by maximal |M_b inner product| (sorted indices swap at crossings)."""
    mb = matrices.boundary_mass_at(ref.steklov_nodes)
    overlap = np.abs(ref.vectors.T @ (mb @ other.vectors))
    rows, cols = linear_sum_assignment(-overlap)
    out = np.empty(ref.count, dtype=int)
    out[rows] = cols
    return out


def norm_identities(
    matrices: FemMatrices,
    p: float,
    count: int,
    dp: float | None = None,
    partition: BoundaryPartition | None = None,
) -> list[dict]:
    """Residuals of the three quadratic-form identities per mode:

    (a) V^T (pM + K) V = mu  (exact Schur algebra, solver-precision check);
    (b) V^T M V = d(mu)/dp   (central difference, branch-tracked);
    (c) V^T K V = mu - p d(mu)/dp.
    """
    if dp is None:
        dp = max(1e-3, 1e-2 * p)
    if p - dp < 0:
        raise AnalysisError("need p - dp >= 0 for the central difference")

    wide = min(count + 4, matrices.n_boundary)
    spec0 = solve(matrices, p, count, partition, extensions=True)[2]
    lo = solve(matrices, p - dp, wide, partition)[2]
    hi = solve(matrices, p + dp, wide, partition)[2]
    i_lo = match_branches(spec0, lo, matrices)
    i_hi = match_branches(spec0, hi, matrices)

    A = (p * matrices.mass + matrices.stiffness).tocsr()
    K = matrices.stiffness
    M = matrices.mass
    mb = matrices.boundary_mass_at(spec0.steklov_nodes)
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

@dataclass
class PSweep:
    p_grid: np.ndarray
    eigenvalues: np.ndarray      # (len(grid), count), each row ascending
    small_p_slope: float         # area / perimeter
    conjecture_c: np.ndarray | None  # per-k large-p prefactors for polygons

    def sqrt_reference(self) -> np.ndarray:
        return np.sqrt(self.p_grid)

    def small_p_reference(self) -> np.ndarray:
        return self.small_p_slope * self.p_grid


def p_sweep(
    domain: Domain,
    matrices: FemMatrices,
    p_grid,
    count: int,
    partition: BoundaryPartition | None = None,
) -> PSweep:
    """Spectra over an increasing pressure grid (sorted-index bookkeeping)."""
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(np.diff(p_grid) <= 0) or np.any(p_grid < 0):
        raise AnalysisError("pressure grid must be nonnegative and strictly increasing")
    rows = np.empty((len(p_grid), count))
    for i, p in enumerate(p_grid):
        rows[i] = solve(matrices, p, count, partition)[2].eigenvalues
    conj = None
    if domain.is_polygon:
        conj = effective_angle_sequence(domain.angle_sequence(), count).coefficients
    return PSweep(
        p_grid=p_grid,
        eigenvalues=rows,
        small_p_slope=domain.area / domain.perimeter,
        conjecture_c=conj,
    )


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def summary_to_json(path, **payload) -> None:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON-serializable: {type(o)}")

    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=default, sort_keys=True)
        f.write("\n")
