"""Stage table of the Schur route on the acceptance problem sizes.

Each case runs in a fresh process with one BLAS thread: mesh (with its
retries and validation), assemble, factor, Schur, eigh and extensions, timed
one by one, then the node count, n_b, the stored entries of the factor the
solve keeps (nnz(L + U)) and the process's peak RSS (``ru_maxrss``).
``--quick`` runs the same cases on coarse meshes, in a few seconds.

    python scripts/bench.py [--quick] [--out bench.json]

``--out`` also writes each case's eigenvalues, so two runs can be compared.
"""
import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np
import scipy

# name: (acceptance use, h, quick h, p, count)
CASES = {
    "disk": ("criterion 1", 0.01, 0.1, 1.0, 11),
    "square": ("criterion 11", 0.0075, 0.1, 0.0, 17),
    "triangle": ("criterion 5", 0.003, 0.04, 1e3, 9),
    "octagon": ("criterion 5", 0.005, 0.05, 1e3, 18),
}
STAGES = ("mesh", "assemble", "factor", "schur", "eigh", "extensions")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def domain_spec(name: str, geometry):
    return {
        "disk": lambda: geometry.DiskSpec(1.0),
        "square": lambda: geometry.RectangleSpec(2.0, 2.0),
        "triangle": lambda: geometry.TriangleSpec(2.0, math.pi / 12, math.pi / 3),
        "octagon": lambda: geometry.PolygonSpec(tuple(map(tuple, geometry.reflex_octagon_vertices()))),
    }[name]()


def run_case(name: str, quick: bool) -> dict:
    """One solve of case ``name``, stage by stage, in this process."""
    from dtnlab import dtn, fem, geometry, mesh

    _, h, h_quick, p, count = CASES[name]
    h = h_quick if quick else h
    seconds = {}

    def timed(stage, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        seconds[stage] = time.perf_counter() - t
        return out

    msh = timed("mesh", lambda: mesh.generate_mesh(geometry.build_domain(domain_spec(name, geometry)), h))
    mats = timed("assemble", fem.assemble, msh)
    factor = timed("factor", fem.factor_interior, mats, p)
    op = timed("schur", dtn.build_dtn, factor)
    spectrum = timed("eigh", dtn.eigensolve, op, count)
    timed("extensions", dtn.attach_extensions, spectrum, factor)
    return {
        "h": h, "p": p, "count": count, "seconds": seconds,
        "nodes": msh.n_nodes, "n_b": msh.n_boundary,
        "kept_nnz": int(factor.lu.L.nnz + factor.lu.U.nnz),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "eigenvalues": spectrum.eigenvalues.tolist(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="coarse meshes, a few seconds in all")
    ap.add_argument("--out", help="write the table and the eigenvalues to this JSON file")
    ap.add_argument("--case", choices=list(CASES), help=argparse.SUPPRESS)  # one case, in this process
    args = ap.parse_args()

    if args.case:
        print(json.dumps(run_case(args.case, args.quick)))
        return

    env = dict(os.environ, **{var: "1" for var in BLAS_THREADS})
    results = {}
    print(f"{'case':<9}{'nodes':>8}{'n_b':>6}" + "".join(f"{s:>11}" for s in STAGES)
          + f"{'kept nnz':>12}{'RSS MB':>8}")
    for name in CASES:
        cmd = [sys.executable, __file__, "--case", name] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"case {name} failed with exit {proc.returncode}")
        r = results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name:<9}{r['nodes']:>8}{r['n_b']:>6}" + "".join(f"{r['seconds'][s]:>11.3f}" for s in STAGES)
              + f"{r['kept_nnz']:>12}{r['peak_rss_mb']:>8.0f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "quick": args.quick, "blas_threads": 1, "nproc": os.cpu_count(),
                "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
                "use": {name: use for name, (use, *_) in CASES.items()}, "cases": results,
            }, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
