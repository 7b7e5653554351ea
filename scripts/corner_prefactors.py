"""Large-p prefactor tables for polygons: effective-angle prediction vs solver.

Covers the sharp triangle (pi/12, pi/3, 7pi/12), the octagon with two reflex
corners, regular N-gons, and Koch prefractals. Expensive at the default mesh
sizes; pass a coarser --h for a quick look.
"""
import argparse
import math

import numpy as np

from dtnlab import conjecture, geometry
from dtnlab.pipeline import solve_steklov


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=1e3)
    ap.add_argument("--h", type=float, default=None, help="override all mesh sizes")
    ap.add_argument("--skip-octagon", action="store_true")
    args = ap.parse_args()

    tri = geometry.build_domain(geometry.TriangleSpec(2.0, math.pi / 12, math.pi / 3))
    h_tri = args.h or 0.003
    print(f"== sharp triangle (pi/12, pi/3, 7pi/12), h={h_tri}, p={args.p}")
    mu = solve_steklov(tri, h_tri, args.p, 9).spectrum.eigenvalues
    rep = conjecture.compare_conjecture(tri, args.p, mu)
    print(rep.format_table())

    if not args.skip_octagon:
        octa = geometry.build_domain(
            geometry.PolygonSpec(tuple(map(tuple, geometry.reflex_octagon_vertices())))
        )
        h_oct = args.h or 0.005
        print(f"\n== reflex octagon, h={h_oct}, p={args.p}")
        mu = solve_steklov(octa, h_oct, args.p, 18).spectrum.eigenvalues
        rep = conjecture.compare_conjecture(octa, args.p, mu)
        print(rep.format_table())

    h_ngon = args.h or 0.01
    print(f"\n== regular polygons, h={h_ngon}, p={args.p}")
    print(f"{'N':>3} {'c0 measured':>12} {'sin(angle/2)':>13}")
    for n in (3, 4, 5, 6, 8):
        dom = geometry.build_domain(geometry.RegularPolygonSpec(n, 1.0))
        res = solve_steklov(dom, h_ngon, args.p, 1)
        c0 = res.spectrum.eigenvalues[0] / math.sqrt(args.p)
        pred = math.sin(math.pi * (1 - 2 / n) / 2)
        print(f"{n:>3} {c0:12.4f} {pred:13.4f}")

    print(f"\n== Koch prefractals, h={h_ngon}, p={args.p}")
    for g in (0, 1):
        dom = geometry.build_domain(geometry.KochSpec(g, 2.0))
        res = solve_steklov(dom, h_ngon, args.p, 12)
        ck = res.spectrum.eigenvalues / math.sqrt(args.p)
        below = int(np.sum(ck < 0.75))
        print(f"generation {g}: {below} prefactors below 0.75; ratios {np.round(ck, 3)}")


if __name__ == "__main__":
    main()
