"""dtnlab benchmark: one closed-loop client, one workload per process.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload catalog_solve --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process, and prints
their metrics together. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones. Each run also
writes its environment, operation list, per-operation records and (traced)
spans to ``benchmark/out/``. See ``benchmark/NOTES.md`` for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"  # single-threaded BLAS: steadier timings on a shared 2-core box
SETUP_REPS = 3
WORKLOAD_NAMES = ("catalog_solve", "pressure_sweep", "green_crosscheck")
SIZE_METRICS = ("mesh.nodes", "mesh.n_boundary", "mesh.min_angle_deg", "fem.nnz_lu", "dtn.schur_mb")
UNITS = {  # every other metric is in seconds
    "peak_rss_mb": "MiB", "eig_err_max": "ratio", "mesh.attempts": "count", "mesh.nodes": "count",
    "mesh.n_boundary": "count", "mesh.min_angle_deg": "deg", "fem.nnz_lu": "count",
    "dtn.schur_mb": "MiB", "trace.missing": "count",
}


def import_dtnlab() -> dict:
    """Import the checkout's own dtnlab, with BLAS on ``BLAS_THREADS`` threads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import dtnlab
    from dtnlab import analytic, fem, geometry, greens, mesh, pipeline

    if Path(dtnlab.__file__).resolve().parent != ROOT / "src" / "dtnlab":
        raise SystemExit(f"dtnlab imported from {dtnlab.__file__}, not from this checkout")
    return dict(analytic=analytic, fem=fem, geometry=geometry, greens=greens, mesh=mesh, pipeline=pipeline)


def fresh_import_seconds() -> float:
    """Time to import dtnlab in a new interpreter, as a user's process pays it."""
    probe = "import time; t = time.perf_counter(); import dtnlab; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_op(wl, state, op, tracer=None, op_id=None):
    """One timed operation, then its checks; never raises."""
    rec = {"s": None, "problems": [], "err": None, "sizes": {}}
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = wl.run(state, op)
            rec["s"] = time.perf_counter() - t0
        else:
            tracer.op = op_id
            with tracer.installed(), tracer.span("op"):
                out = wl.run(state, op)
            tracer.op = None
            root = tracer.rows(op_id)[0]
            rec["s"] = root[2] - root[1]
            rec["sizes"] = wl.sizes(state, out)
    except Exception as exc:  # a failed operation is counted, never fatal
        rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return rec
    try:
        problems, rec["err"] = wl.check(state, op, out)
        rec["problems"] += problems
    except Exception as exc:
        rec["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    return rec


def layer_metrics(tracer, records, setup_attempts) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus the names that are absent or missing."""
    from spans import LAYER_SPANS, WRAP_TARGETS

    traced = [r for r in records if r["traced"] is not None and r["traced"]["s"] is not None]
    selfs = [tracer.self_times(r["id"]) for r in traced]
    # a span is unresolved when none of the places it is wrapped still exists
    resolved = {name for mod, attr, name in WRAP_TARGETS if f"{mod}.{attr}" not in tracer.missing}
    out, absent, missing = {}, [], []
    for metric, span in LAYER_SPANS.items():
        vals = [st.get(span, 0.0) for st in selfs]
        if span not in resolved:
            missing.append(metric)
        elif not any(vals):
            absent.append(metric)
        out[metric] = median(vals)
    attempts = [a for r in traced for a in tracer.mesh_attempts(r["id"])] or setup_attempts
    out["mesh.attempts"] = median(attempts)
    for name in SIZE_METRICS:
        # a key the workload does not report is absent; a None value is missing
        vals = [r["traced"]["sizes"][name] for r in traced if name in r["traced"]["sizes"]]
        if not vals:
            absent.append(name)
        elif None in vals:
            missing.append(name)
        out[name] = median([v for v in vals if v is not None])
    pairs = [(r["traced"]["s"], r["untraced"]["s"]) for r in traced if r["untraced"]["s"] is not None]
    out["trace.op_s_p50"] = median([t for t, _ in pairs])
    out["trace.untraced_op_s_p50"] = median([u for _, u in pairs])
    out["trace.overhead_s"] = median([t - u for t, u in pairs])
    out["trace.unattributed_s"] = median([st.get("op", 0.0) for st in selfs])
    out["trace.missing"] = len(missing)
    return out, {"absent": absent, "missing": missing, "unresolved names": sorted(tracer.missing)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    mods = import_dtnlab()
    import numpy as np

    from spans import Tracer
    from speed import REFERENCE_S, SpeedProbe
    from workloads import WORKLOADS

    wl = WORKLOADS[name](mods)
    tracer = Tracer(mods) if trace else None
    probe = SpeedProbe()

    # each set-up: a fresh interpreter's import, the warm-up call, shared mesh/assembly
    setups, setup_attempts = [], []
    for k in range(SETUP_REPS):
        probe()
        imp = fresh_import_seconds()
        t0 = time.perf_counter()
        if tracer is None:
            state = wl.setup()
        else:
            tracer.op = f"setup{k}"
            with tracer.installed():
                state = wl.setup()
            setup_attempts += tracer.mesh_attempts(tracer.op)[-1:]
            tracer.op = None
        setups.append(imp + time.perf_counter() - t0)

    ops = wl.ops(np.random.default_rng(seed))
    # Whole passes over the list; another pass starts only if it should end
    # within --seconds.
    records, passes = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for op in ops:
            rec = {"id": len(records), "pass": len(passes), **op}
            probe()
            rec["untraced"] = run_op(wl, state, op)
            rec["traced"] = None
            if tracer is not None:
                probe()
                rec["traced"] = run_op(wl, state, op, tracer, rec["id"])
            records.append(rec)
        passes.append(sum(r["untraced"]["s"] or 0.0 for r in records[-len(ops):]))
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            break

    runs = [r["untraced"] for r in records] + [r["traced"] for r in records if r["traced"] is not None]
    failed = sum(1 for r in runs if r["problems"])
    for r in records:
        for kind in ("untraced", "traced"):
            for problem in (r[kind] or {}).get("problems", []):
                print(f"FAILED op {r['id']} ({r['shape']}, p={r['p']:.6g}, {kind}): {problem}", file=sys.stderr)
    errs = [r["err"] for r in runs if r["err"] is not None]
    ok_times = [r["untraced"]["s"] for r in records if not r["untraced"]["problems"]]

    if trace:
        wall, notes = layer_metrics(tracer, records, setup_attempts)
    else:
        notes = {}
        wall = {
            "op_s_p50": median(ok_times),
            "run_s": median(passes),
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eig_err_max": max(errs, default=0.0),
        }

    scale = probe.scale()
    metrics = {k: v * scale if UNITS.get(k, "s") == "s" else v for k, v in wall.items()}

    print(f"{name}: seed {seed}, trace {int(trace)}, {len(records)} ops in {len(passes)} pass(es), "
          f"BLAS threads {BLAS_THREADS}")
    print(f"speed probe: median {REFERENCE_S / scale * 1e3:.2f} ms, reference {REFERENCE_S * 1e3:.2f} ms; "
          f"seconds below are wall seconds x {scale:.4f}")
    print("ops: " + ", ".join(f"{r['shape']}@p={r['p']:.4g}" for r in records[: len(ops)]))
    for k, v in metrics.items():
        unit = UNITS.get(k, "s")
        print(f"  {k:24s} {v:.6g} {unit}" + (f"  (wall {wall[k]:.6g} s)" if unit == "s" else ""))
    print(f"  {'fail_ratio':24s} {failed / len(runs):.6g} ({failed}/{len(runs)})")
    for kind, names in notes.items():
        if names:
            print(f"  {kind}: {', '.join(names)}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "operation_list": ops, "setup_runs_s": setups,
        "passes_s": passes, "records": records, "probe": probe.picks,
        "scale": scale, "wall_metrics": wall, "metrics": metrics,
        "notes": notes, "spans": tracer.dump() if tracer else None,
    }
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
