"""Effective-angle iteration: predicted large-p eigenvalue prefactors for polygons.

Each eigenvalue index k gets a coefficient c_k = sin(min(pi, a_k)/2) from the
current smallest effective angle; that slot is then incremented by twice its
original angle. Slots at or above pi stop participating, and once every slot
is retired all further coefficients are 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain

_TIE_TOL = 1e-9  # radians; inputs mix exact multiples of pi with 4-decimal values


class ConjectureError(ValueError):
    pass


@dataclass
class EffectiveAngleTrace:
    original: np.ndarray          # (n_slots,)
    sequences: np.ndarray         # (steps, n_slots) effective angles BEFORE step k
    chosen: np.ndarray            # (steps,) slot updated at step k, -1 if none active
    coefficients: np.ndarray      # (steps,) c_k


def effective_angle_sequence(angles, steps: int) -> EffectiveAngleTrace:
    """Run the iteration for ``steps`` coefficients.

    Ties on the smallest effective angle go to the slot with the largest
    original-angle increment, then to the lowest slot index.
    """
    original = np.asarray(angles, dtype=float)
    if original.size == 0:
        raise ConjectureError("empty angle list")
    if steps < 1:
        raise ConjectureError("steps must be >= 1")
    if np.any(original <= 0) or np.any(original >= 2 * math.pi):
        raise ConjectureError("polygon angles must lie in (0, 2*pi)")

    eff = original.copy()
    seqs = np.empty((steps, len(original)))
    chosen = np.full(steps, -1, dtype=int)
    coeff = np.ones(steps)
    for k in range(steps):
        seqs[k] = eff
        active = np.flatnonzero(eff < math.pi - _TIE_TOL)
        if len(active) == 0:
            coeff[k] = 1.0
            continue
        smallest = eff[active].min()
        tied = active[eff[active] <= smallest + _TIE_TOL]
        # largest increment 2*alpha_i^(0); argmax takes the lowest index on ties
        best = tied[np.argmax(original[tied])]
        coeff[k] = math.sin(min(math.pi, eff[best]) / 2.0)
        chosen[k] = best
        eff = eff.copy()
        eff[best] = eff[best] + 2.0 * original[best]
    return EffectiveAngleTrace(original, seqs, chosen, coeff)


def extract_ck(eigenvalues, p: float) -> np.ndarray:
    """Measured prefactors mu_k / sqrt(p) at a large fixed p."""
    if p <= 0:
        raise ConjectureError("p must be positive to extract prefactors")
    return np.asarray(eigenvalues, dtype=float) / math.sqrt(p)


@dataclass
class ConjectureRow:
    k: int
    effective_angles: np.ndarray
    c_conjecture: float
    c_numeric: float

    @property
    def abs_diff(self) -> float:
        return abs(self.c_conjecture - self.c_numeric)


@dataclass
class ConjectureReport:
    domain: Domain
    p: float
    rows: list[ConjectureRow]
    tolerance: float

    def flagged(self) -> list[ConjectureRow]:
        return [r for r in self.rows if r.abs_diff > self.tolerance]

    def max_abs_diff(self) -> float:
        return max(r.abs_diff for r in self.rows)

    def format_table(self) -> str:
        lines = [f"{'k':>3} {'c_conj':>10} {'c_num':>10} {'|diff|':>10} flag"]
        for r in self.rows:
            flag = "  *" if r.abs_diff > self.tolerance else ""
            lines.append(
                f"{r.k:>3} {r.c_conjecture:>10.4f} {r.c_numeric:>10.4f} {r.abs_diff:>10.4f}{flag}"
            )
        return "\n".join(lines)


def compare_conjecture(
    domain: Domain, p: float, eigenvalues, tolerance: float = 1e-2
) -> ConjectureReport:
    """Conjectured vs measured prefactors for a polygonal domain, from its
    lowest ``eigenvalues`` at pressure ``p``; one row per eigenvalue."""
    if not domain.is_polygon:
        raise ConjectureError("conjecture comparison needs a polygonal domain")
    count = len(eigenvalues)
    trace = effective_angle_sequence(domain.angle_sequence(), count)
    numeric = extract_ck(eigenvalues, p)
    rows = [
        ConjectureRow(
            k=k,
            effective_angles=trace.sequences[k],
            c_conjecture=float(trace.coefficients[k]),
            c_numeric=float(numeric[k]),
        )
        for k in range(count)
    ]
    return ConjectureReport(domain=domain, p=p, rows=rows, tolerance=tolerance)
