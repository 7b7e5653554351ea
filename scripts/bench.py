"""Stage table of the Schur route on the acceptance problem sizes.

Each case runs in a fresh process with one BLAS thread: mesh (with its
retries and validation), assemble, factor, Schur, eigh and extensions, timed
one by one, then the node count, n_b, the entries of the fronts the factor
keeps (every front's pivot block and update rows, ``InteriorFactor.panels``)
and the process's peak RSS (``ru_maxrss``). The assemble stage includes the
mesh's front plan (``fem.front_plan``); a second call of it, after the solve,
gives the plan's own seconds.
``--quick`` runs the same cases on coarse meshes, in a few seconds.
``--rounds N`` runs every case N times, a fresh process each, the cases
interleaved (all cases once, then all again), and reports each stage's
median and the median peak RSS.

    python scripts/bench.py [--quick] [--rounds N] [--out bench.json]

``--out`` also writes each round's numbers and each case's eigenvalues (of
the first round), so two runs can be compared.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

# name: (acceptance use, h, quick h, p, count)
CASES = {
    "disk": ("criterion 1", 0.01, 0.1, 1.0, 11),
    "rectangle": ("criterion 3", 0.01, 0.1, 1.0, 11),
    "koch": ("criterion 7", 0.01, 0.1, 1e3, 12),
    "square": ("criterion 11", 0.0075, 0.1, 0.0, 17),
    "triangle": ("criterion 5", 0.003, 0.04, 1e3, 9),
    "octagon": ("criterion 5", 0.005, 0.05, 1e3, 18),
}
STAGES = ("mesh", "assemble", "plan", "factor", "schur", "eigh", "extensions")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def domain_spec(name: str, geometry):
    return {
        "disk": lambda: geometry.DiskSpec(1.0),
        "rectangle": lambda: geometry.RectangleSpec(1.0, 2.0),
        "koch": lambda: geometry.KochSpec(1, 2.0),
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
    timed("plan", fem.front_plan, msh, mats.stiffness)
    return {
        "h": h, "p": p, "count": count, "seconds": seconds,
        "nodes": msh.n_nodes, "n_b": msh.n_boundary,
        "kept_nnz": int(factor.panels.size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "eigenvalues": spectrum.eigenvalues.tolist(),
    }


def run_round(name: str, quick: bool, env: dict) -> dict:
    """One solve of case ``name`` in a fresh process."""
    cmd = [sys.executable, __file__, "--case", name] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"case {name} failed with exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(rounds: list[dict]) -> dict:
    """A case's rounds as one row: each stage's median and the median peak
    RSS; sizes and eigenvalues from the first round."""
    first = rounds[0]
    return {
        "h": first["h"], "p": first["p"], "count": first["count"],
        "seconds": {s: statistics.median(r["seconds"][s] for r in rounds) for s in STAGES},
        "nodes": first["nodes"], "n_b": first["n_b"], "kept_nnz": first["kept_nnz"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "eigenvalues": first["eigenvalues"],
        "rounds": [{"seconds": r["seconds"], "peak_rss_mb": r["peak_rss_mb"]} for r in rounds],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="coarse meshes, a few seconds in all")
    ap.add_argument("--rounds", type=int, default=1, help="runs of every case, interleaved (default 1)")
    ap.add_argument("--out", help="write the table, the rounds and the eigenvalues to this JSON file")
    ap.add_argument("--case", choices=list(CASES), help=argparse.SUPPRESS)  # one case, in this process
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    if args.case:
        print(json.dumps(run_case(args.case, args.quick)))
        return

    env = dict(os.environ, **{var: "1" for var in BLAS_THREADS})
    runs = {name: [] for name in CASES}
    for _ in range(args.rounds):
        for name in CASES:
            runs[name].append(run_round(name, args.quick, env))
    results = {name: summary(rounds) for name, rounds in runs.items()}
    print(f"{'case':<10}{'nodes':>8}{'n_b':>6}" + "".join(f"{s:>11}" for s in STAGES)
          + f"{'kept nnz':>12}{'RSS MB':>8}")
    for name, r in results.items():
        print(f"{name:<10}{r['nodes']:>8}{r['n_b']:>6}" + "".join(f"{r['seconds'][s]:>11.3f}" for s in STAGES)
              + f"{r['kept_nnz']:>12}{r['peak_rss_mb']:>8.0f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "quick": args.quick, "rounds": args.rounds, "blas_threads": 1, "nproc": os.cpu_count(),
                "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
                "use": {name: use for name, (use, *_) in CASES.items()}, "cases": results,
            }, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
