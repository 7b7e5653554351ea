"""Disk benchmark: both solver routes against the closed-form spectrum.

Prints eigenvalues from the Schur-complement route (fine mesh) and the
Green's-function route (coarse mesh, truncated Robin basis) next to the
Bessel-ratio values, plus boundary RMSEs of the eigenfunctions, and the
seconds of each route's stages.
"""
import argparse
import time

import numpy as np

from dtnlab import analytic, dtn, fem, greens, mesh
from dtnlab.geometry import DiskSpec, build_domain
from dtnlab.pipeline import solve_steklov

# the Schur route's solve counts its mesh; the Green route's mesh and
# assembly are a stage of their own
STAGES = ("schur solve", "green mesh", "robin bases", "kernel")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h-fine", type=float, default=0.01)
    ap.add_argument("--h-coarse", type=float, default=0.022)
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--count", type=int, default=11)
    ap.add_argument("--m", type=int, default=131)
    ap.add_argument("--q", type=float, default=1.0)
    args = ap.parse_args()

    domain = build_domain(DiskSpec(1.0))
    oracle = analytic.DiskOracle(1.0, args.p)
    exact = oracle.eigenvalues(args.count)

    marks = [time.perf_counter()]  # the end of each stage in STAGES
    res = solve_steklov(domain, args.h_fine, args.p, args.count)
    marks.append(time.perf_counter())
    msh2 = mesh.generate_mesh(domain, args.h_coarse)
    mats2 = fem.assemble(msh2)
    marks.append(time.perf_counter())
    basis0 = greens.robin_eigenbasis(mats2, 0.0, args.m)
    basis_q = greens.robin_eigenbasis(mats2, args.q, args.m)
    marks.append(time.perf_counter())
    spec2 = greens.dtn_spectrum_via_green(
        mats2, args.q, args.p, args.m, args.count, basis0, basis_q
    )
    marks.append(time.perf_counter())
    bpts = res.mesh.nodes[res.mesh.boundary_indices]
    rmse1 = dtn.eigenfunction_rmse(res.spectrum, oracle, bpts)

    print(f"unit disk, p={args.p} (schur: h={args.h_fine}; "
          f"green: h={args.h_coarse}, m={args.m}, q={args.q})")
    print(f"{'k':>3} {'exact':>8} {'schur':>8} {'green':>8} {'rmse':>9}")
    for k in range(args.count):
        print(
            f"{k:>3} {exact[k]:8.4f} {res.spectrum.eigenvalues[k]:8.4f} "
            f"{spec2.eigenvalues[k]:8.4f} {rmse1[k]:9.2e}"
        )
    print(f"max |schur-exact| = {np.abs(res.spectrum.eigenvalues - exact).max():.2e}")
    print(f"max |green-exact| = {np.abs(spec2.eigenvalues - exact).max():.2e}")
    print(f"seconds (green mesh: {msh2.n_nodes} nodes): "
          + ", ".join(f"{stage} {t:.3f}" for stage, t in zip(STAGES, np.diff(marks))))


if __name__ == "__main__":
    main()
