"""Command-line driver: meshes, solves, validations, sweeps, figure-data export.

Every run writes ``report.json`` (config echo, domain metrics, node counts,
timings, tolerances) plus command-specific CSVs into the output directory.
Exit codes: 0 success, 2 bad configuration, 3 solver failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import analysis, analytic, conjecture, dtn, fem, geometry, greens, mesh as meshmod
from .pipeline import solve_steklov

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

TOLERANCES = {
    "linear_solve_rel": 1e-10,
    "orthonormality_tol": 1e-8,
    "root_residual": 1e-10,
    "csv_significant_digits": 17,
}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass
class RunConfig:
    command: str
    domain: str | None = None
    h: float = 0.05
    p: float = 1.0
    count: int = 11
    q: float = 1.0
    m: int = 131
    out: str = "."
    p_min: float = 1e-2
    p_max: float = 1e3
    n_p: int = 11
    p_list: str | None = None
    k: int = 0
    dp: float | None = None
    bin_width: float | None = None
    radius: float = 1.0
    b1: float = 1.0
    b2: float = 2.0
    vectors: bool = False
    artifacts: str | None = None


# ---------------------------------------------------------------------------
# domain string syntax
# ---------------------------------------------------------------------------

def parse_domain(text: str) -> geometry.DomainSpec:
    """Compact shape syntax, e.g. disk:R=1, rect:b1=1,b2=2, poly:file=v.json."""
    if ":" in text:
        tag, _, rest = text.partition(":")
    else:
        tag, rest = text, ""
    kv = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            kv[key.strip()] = val.strip()
    try:
        if tag == "disk":
            return geometry.DiskSpec(radius=float(kv.get("R", kv.get("radius", 1.0))))
        if tag == "ellipse":
            return geometry.EllipseSpec(a=float(kv["a"]), b=float(kv["b"]))
        if tag in ("rect", "rectangle"):
            return geometry.RectangleSpec(b1=float(kv["b1"]), b2=float(kv["b2"]))
        if tag in ("ngon", "regular_polygon"):
            return geometry.RegularPolygonSpec(
                n_sides=int(kv["N"]), circumradius=float(kv.get("R", 1.0))
            )
        if tag == "triangle":
            return geometry.TriangleSpec(
                side=float(kv.get("side", 2.0)),
                angle1=float(kv.get("a1", math.pi / 12)),
                angle2=float(kv.get("a2", math.pi / 3)),
            )
        if tag in ("poly", "polygon"):
            if "file" in kv:
                spec = geometry.spec_from_json(Path(kv["file"]).read_text())
                if not isinstance(spec, geometry.PolygonSpec):
                    raise CliError("polygon file must hold a polygon spec", EXIT_CONFIG)
                return spec
            raise CliError("poly domain needs file=<path.json>", EXIT_CONFIG)
        if tag == "octagon":
            return geometry.PolygonSpec(
                vertices=tuple(map(tuple, geometry.reflex_octagon_vertices()))
            )
        if tag == "koch":
            return geometry.KochSpec(generation=int(kv["g"]), side=float(kv.get("side", 2.0)))
        if tag == "deformed":
            return geometry.DeformedDiskSpec(
                amplitude=float(kv.get("gamma", 0.02)), mode=int(kv.get("m", 5))
            )
    except CliError:
        raise
    except FileNotFoundError as exc:
        raise CliError(f"domain file not found: {exc}", EXIT_IO) from exc
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad domain parameters in {text!r}: {exc}", EXIT_CONFIG) from exc
    raise CliError(f"unknown domain tag {tag!r}", EXIT_CONFIG)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class Reporter:
    def __init__(self, config: RunConfig):
        self.config = config
        self.out = Path(config.out)
        self.timings: dict[str, float] = {}
        self.payload: dict = {}
        self._t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        return self.out / name

    def time(self, label: str):
        reporter = self

        class _Timer:
            def __enter__(self):
                self.start = time.perf_counter()

            def __exit__(self, *exc):
                reporter.timings[label] = reporter.timings.get(label, 0.0) + (
                    time.perf_counter() - self.start
                )

        return _Timer()

    def domain_metrics(self, domain: geometry.Domain, msh=None):
        self.payload["domain"] = json.loads(geometry.spec_to_json(domain.spec))
        self.payload["area"] = domain.area
        self.payload["perimeter"] = domain.perimeter
        if msh is not None:
            self.payload["n_interior"] = msh.n_interior
            self.payload["n_boundary"] = msh.n_boundary
            self.payload["n_triangles"] = len(msh.triangles)

    def finish(self) -> None:
        self.timings["total"] = time.perf_counter() - self._t0
        report = {
            "config": asdict(self.config),
            "tolerances": TOLERANCES,
            "timings_s": self.timings,
            **self.payload,
        }
        analysis.summary_to_json(self.path("report.json"), **report)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_mesh(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    meshmod.export_mesh(msh, rep.path("mesh.txt"))
    report = meshmod.validate_mesh(msh, domain)
    rep.domain_metrics(domain, msh)
    rep.payload["mesh_valid"] = report.ok
    rep.payload["mesh_violations"] = report.violations


def cmd_solve(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("solve"):
        res = solve_steklov(domain, cfg.h, cfg.p, cfg.count, extensions=cfg.vectors)
    rep.domain_metrics(domain, res.mesh)
    dtn.write_csv(rep.path("eigenvalues.csv"), ["k", "mu"], enumerate(res.spectrum.eigenvalues))
    meshmod.export_mesh(res.mesh, rep.path("mesh.txt"))
    if cfg.vectors:
        for k in range(res.spectrum.count):
            dtn.write_node_vector(
                res.spectrum.extensions[:, k], rep.path(f"eigenvector_{k:03d}.txt")
            )
    rep.payload["eigenvalues"] = res.spectrum.eigenvalues
    rep.payload["method"] = "fem"


def cmd_green_solve(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    matrices = fem.assemble(msh)
    with rep.time("robin_bases"):
        basis0 = greens.robin_eigenbasis(matrices, 0.0, cfg.m)
        basis_q = greens.robin_eigenbasis(matrices, cfg.q, cfg.m)
    with rep.time("kernel"):
        spec = greens.dtn_spectrum_via_green(
            matrices, cfg.q, cfg.p, cfg.m, cfg.count, basis0, basis_q
        )
    rep.domain_metrics(domain, msh)
    dtn.write_csv(rep.path("eigenvalues.csv"), ["k", "mu"], enumerate(spec.eigenvalues))
    rep.payload["eigenvalues"] = spec.eigenvalues
    rep.payload["method"] = "green"
    rep.payload["green_q"] = cfg.q
    rep.payload["green_m"] = cfg.m


def cmd_validate_disk(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(geometry.DiskSpec(radius=cfg.radius))
    with rep.time("solve"):
        res = solve_steklov(domain, cfg.h, cfg.p, cfg.count)
    oracle = analytic.DiskOracle(cfg.radius, cfg.p)
    exact = oracle.eigenvalues(cfg.count)
    bpts = res.mesh.nodes[res.mesh.boundary_indices]
    rmse = dtn.eigenfunction_rmse(res.spectrum, oracle, bpts)
    mus = res.spectrum.eigenvalues
    dtn.write_csv(
        rep.path("validation.csv"),
        ["k", "exact", "fem", "abs_err", "rmse"],
        zip(range(cfg.count), exact, mus, np.abs(mus - exact), rmse),
    )
    rep.domain_metrics(domain, res.mesh)
    rep.payload["max_abs_err"] = float(np.abs(mus - exact).max())
    rep.payload["max_rmse"] = float(rmse.max())


def cmd_validate_rect(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(geometry.RectangleSpec(b1=cfg.b1, b2=cfg.b2))
    with rep.time("roots"):
        pairs = analytic.rectangle_spectrum(cfg.b1, cfg.b2, cfg.p, cfg.count)
    with rep.time("solve"):
        res = solve_steklov(domain, cfg.h, cfg.p, cfg.count)
    exact = np.array([e.mu for e in pairs])
    mus = res.spectrum.eigenvalues
    dtn.write_csv(
        rep.path("validation.csv"),
        ["k", "exact", "fem", "abs_err", "root_residual"],
        zip(range(cfg.count), exact, mus, np.abs(mus - exact), [e.residual for e in pairs]),
    )
    rep.domain_metrics(domain, res.mesh)
    rep.payload["max_abs_err"] = float(np.abs(mus - exact).max())
    rep.payload["max_root_residual"] = float(max(e.residual for e in pairs))


def cmd_sweep(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    matrices = fem.assemble(msh)
    grid = np.logspace(math.log10(cfg.p_min), math.log10(cfg.p_max), cfg.n_p)
    with rep.time("sweep"):
        sweep = analysis.p_sweep(domain, matrices, grid, cfg.count)
    dtn.write_csv(
        rep.path("sweep.csv"),
        ["p", "k", "mu"],
        ((p, k, mu) for p, row in zip(sweep.p_grid, sweep.eigenvalues) for k, mu in enumerate(row)),
    )
    rep.domain_metrics(domain, msh)
    rep.payload["small_p_slope"] = sweep.small_p_slope


def cmd_ck(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("ck"):
        eigenvalues = solve_steklov(domain, cfg.h, cfg.p, cfg.count).spectrum.eigenvalues
        report = conjecture.compare_conjecture(domain, cfg.p, eigenvalues)
    dtn.write_csv(
        rep.path("ck.csv"),
        ["k", "c_conjecture", "c_numeric", "abs_diff"],
        ((r.k, r.c_conjecture, r.c_numeric, r.abs_diff) for r in report.rows),
    )
    rep.path("ck.txt").write_text(report.format_table() + "\n")
    rep.domain_metrics(domain)
    rep.payload["max_abs_diff"] = report.max_abs_diff()
    rep.payload["flagged"] = [r.k for r in report.flagged()]


def cmd_ak(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    matrices = fem.assemble(msh)
    p_values = (
        [float(t) for t in cfg.p_list.split(",")] if cfg.p_list else [cfg.p]
    )
    rows = []
    survivors = {}
    with rep.time("ak"):
        for p in p_values:
            res = solve_steklov(
                domain, cfg.h, p, cfg.count, mesh=msh, matrices=matrices
            )
            ak = analysis.ak_coefficients(res.spectrum, matrices)
            rows.append((p, ak))
            survivors[str(p)] = analysis.symmetry_audit(ak).survivors
    dtn.write_csv(
        rep.path("ak.csv"),
        ["p", "k", "abs_ak"],
        ((p, k, abs(a)) for p, ak in rows for k, a in enumerate(ak)),
    )
    rep.domain_metrics(domain, msh)
    rep.payload["survivors"] = survivors


def cmd_localize(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("solve"):
        res = solve_steklov(domain, cfg.h, cfg.p, cfg.k + 1, extensions=True)
    with rep.time("maps"):
        loc = analysis.bk_map(res.spectrum, cfg.k, res.mesh, domain)
        prof = analysis.uk_profile(res.spectrum, cfg.k, res.mesh, domain, cfg.bin_width)
    dtn.write_csv(
        rep.path("bkmap.csv"),
        ["node", "x", "y", "dist", "V", "B"],
        zip(range(res.mesh.n_nodes), *res.mesh.nodes.T, loc.distances, loc.values, loc.amplified),
    )
    dtn.write_csv(
        rep.path("profile.csv"),
        ["k", "delta", "U"],
        ((prof.k, d, u) for d, u in zip(prof.bin_centers, prof.values)),
    )
    rep.domain_metrics(domain, res.mesh)
    rep.payload["k"] = cfg.k
    rep.payload["mu_k"] = loc.mu
    rep.payload["max_B"] = loc.max_amplified()


def cmd_norms(cfg: RunConfig, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    matrices = fem.assemble(msh)
    with rep.time("norms"):
        rows = analysis.norm_identities(matrices, cfg.p, cfg.count, cfg.dp)
    header = ["k", "mu", "energy_residual_rel", "l2_volume", "dmu_dp", "l2_residual_rel",
              "grad_sq", "grad_residual_rel", "tracked"]
    dtn.write_csv(rep.path("norms.csv"), header, ([r[h] for h in header] for r in rows))
    rep.domain_metrics(domain, msh)
    rep.payload["max_energy_residual_rel"] = max(r["energy_residual_rel"] for r in rows)


_PLOT_SWEEP = '''\
"""Self-contained plot of a pressure sweep (log-log, with reference lines)."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

SLOPE = {slope}

by_k = defaultdict(list)
with open("sweep.csv") as f:
    for row in csv.DictReader(f):
        by_k[int(row["k"])].append((float(row["p"]), float(row["mu"])))

fig, ax = plt.subplots()
for k, pts in sorted(by_k.items()):
    pts.sort()
    ax.loglog([p for p, _ in pts], [mu for _, mu in pts], "o-", ms=3, label=f"k={{k}}")
ps = sorted({{p for pts in by_k.values() for p, _ in pts}})
ax.loglog(ps, [p ** 0.5 for p in ps], "k-", lw=1, label="sqrt(p)")
ax.loglog(ps, [SLOPE * p for p in ps], "k:", lw=1, label=f"{{SLOPE:.4g}} p")
ax.set_xlabel("p")
ax.set_ylabel("mu_k")
ax.legend(fontsize=7, ncol=2)
fig.savefig("sweep.png", dpi=150)
'''

_PLOT_PROFILE = '''\
"""Semilog-y decay profile with the exponential guide U(0) exp(-mu delta)."""
import csv

import matplotlib.pyplot as plt

MU = {mu}

deltas, values = [], []
with open("profile.csv") as f:
    for row in csv.DictReader(f):
        deltas.append(float(row["delta"]))
        values.append(float(row["U"]))

fig, ax = plt.subplots()
ax.semilogy(deltas, values, "o-", ms=3, label="U(delta)")
ax.semilogy(deltas, [values[0] * 2.718281828459045 ** (-MU * d) for d in deltas],
            "k-", lw=1, label="U(0) exp(-mu delta)")
ax.set_xlabel("delta")
ax.set_ylabel("U")
ax.legend()
fig.savefig("profile.png", dpi=150)
'''

_PLOT_BKMAP = '''\
"""Log-scaled localization maps from the node table."""
import csv
import math

import matplotlib.pyplot as plt

xs, ys, vs, bs = [], [], [], []
with open("bkmap.csv") as f:
    for row in csv.DictReader(f):
        xs.append(float(row["x"]))
        ys.append(float(row["y"]))
        vs.append(abs(float(row["V"])))
        bs.append(float(row["B"]))

FLOOR = 1e-4
logv = [math.log10(v) if v >= FLOOR else float("nan") for v in vs]
fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.5))
s1 = ax1.scatter(xs, ys, c=logv, s=2, cmap="viridis")
fig.colorbar(s1, ax=ax1, label="log10 |V|")
s2 = ax2.scatter(xs, ys, c=bs, s=2, cmap="magma")
fig.colorbar(s2, ax=ax2, label="B")
for ax in (ax1, ax2):
    ax.set_aspect("equal")
fig.savefig("bkmap.png", dpi=150)
'''


def cmd_emit_plots(cfg: RunConfig, rep: Reporter) -> None:
    art = Path(cfg.artifacts or cfg.out)
    written = []
    if (art / "sweep.csv").exists():
        slope = 0.0
        report = art / "report.json"
        if report.exists():
            slope = json.loads(report.read_text()).get("small_p_slope", 0.0)
        (art / "plot_sweep.py").write_text(_PLOT_SWEEP.format(slope=slope))
        written.append("plot_sweep.py")
    if (art / "profile.csv").exists():
        mu = 1.0
        report = art / "report.json"
        if report.exists():
            mu = json.loads(report.read_text()).get("mu_k", 1.0)
        (art / "plot_profile.py").write_text(_PLOT_PROFILE.format(mu=mu))
        written.append("plot_profile.py")
    if (art / "bkmap.csv").exists():
        (art / "plot_bkmap.py").write_text(_PLOT_BKMAP)
        written.append("plot_bkmap.py")
    if not written:
        raise CliError(
            f"no plottable artifacts in {art} (expected sweep.csv, profile.csv or bkmap.csv)",
            EXIT_IO,
        )
    rep.payload["plot_scripts"] = written


# command -> (function, the RunConfig fields it reads besides ``out``); each
# field is a flag of that command and a key of its --config file
_COMMANDS = {
    "mesh": (cmd_mesh, ("domain", "h")),
    "solve": (cmd_solve, ("domain", "h", "p", "count", "vectors")),
    "green-solve": (cmd_green_solve, ("domain", "h", "p", "count", "q", "m")),
    "validate-disk": (cmd_validate_disk, ("radius", "h", "p", "count")),
    "validate-rect": (cmd_validate_rect, ("b1", "b2", "h", "p", "count")),
    "sweep": (cmd_sweep, ("domain", "h", "count", "p_min", "p_max", "n_p")),
    "ck": (cmd_ck, ("domain", "h", "p", "count")),
    "ak": (cmd_ak, ("domain", "h", "p", "count", "p_list")),
    "localize": (cmd_localize, ("domain", "h", "p", "k", "bin_width")),
    "norms": (cmd_norms, ("domain", "h", "p", "count", "dp")),
    "emit-plots": (cmd_emit_plots, ("artifacts",)),
}

# RunConfig field -> (flag, argparse keywords); the defaults are RunConfig's
_FLAGS = {
    "domain": ("--domain", dict(help="shape, e.g. disk:R=1 or rect:b1=1,b2=2")),
    "h": ("--h", dict(type=float)),
    "p": ("--p", dict(type=float)),
    "count": ("--count", dict(type=int)),
    "q": ("--q", dict(type=float)),
    "m": ("--m", dict(type=int)),
    "out": ("--out", {}),
    "p_min": ("--p-min", dict(type=float)),
    "p_max": ("--p-max", dict(type=float)),
    "n_p": ("--n-p", dict(type=int)),
    "p_list": ("--p-list", {}),
    "k": ("--k", dict(type=int)),
    "dp": ("--dp", dict(type=float)),
    "bin_width": ("--bin-width", dict(type=float)),
    "radius": ("--R", dict(type=float)),
    "b1": ("--b1", dict(type=float)),
    "b2": ("--b2", dict(type=float)),
    "vectors": ("--vectors", dict(action="store_true")),
    "artifacts": ("--artifacts", {}),
}


def _fields(command: str) -> tuple[str, ...]:
    return _COMMANDS[command][1] + ("out",)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dtnlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # a flag left out is absent from the namespace, so RunConfig's default holds
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON file with the flag values")
        for dest in _fields(name):
            flag, kwargs = _FLAGS[dest]
            sp.add_argument(flag, dest=dest, **kwargs)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args).copy()
    config = values.pop("config", None)
    if config:
        try:
            overrides = json.loads(Path(config).read_text())
        except FileNotFoundError as exc:
            raise CliError(f"config file not found: {exc}", EXIT_IO) from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed config JSON: {exc}", EXIT_CONFIG) from exc
        unknown = set(overrides) - set(_fields(args.command))
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_CONFIG)
        values.update(overrides)
    cfg = RunConfig(**values)
    if "domain" in _fields(cfg.command) and not cfg.domain:
        raise CliError(f"command {cfg.command!r} requires --domain", EXIT_CONFIG)
    if cfg.h <= 0:
        raise CliError("h must be positive", EXIT_CONFIG)
    if cfg.count < 1:
        raise CliError("count must be >= 1", EXIT_CONFIG)
    if cfg.p < 0:
        raise CliError("p must be >= 0", EXIT_CONFIG)
    return cfg


def run(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory: {exc}", EXIT_IO) from exc
    rep = Reporter(cfg)
    try:
        _COMMANDS[cfg.command][0](cfg, rep)
    except CliError:
        raise
    except (geometry.GeometryError, dtn.DtnError, conjecture.ConjectureError) as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    except (meshmod.MeshError, fem.FemError, greens.GreensError,
            analysis.AnalysisError, analytic.AnalyticError) as exc:
        raise CliError(str(exc), EXIT_SOLVER) from exc
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO) from exc
    rep.finish()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except CliError as exc:
        record = {"error": str(exc), "exit_code": exc.exit_code, "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
