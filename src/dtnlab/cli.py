"""Command-line driver: meshes, solves, validations, sweeps, figure-data export.

Each setting is declared once, in ``_FLAGS`` (flag, argparse keywords,
default); ``_COMMANDS`` names the settings each command reads, and those are
its only flags and ``--config`` keys. Every run writes ``report.json``
(``config``: the command and its settings; domain metrics, node counts,
timings, and the ``tolerances`` of ``TOLERANCES`` that the run checked) plus
command-specific CSVs into the output directory.
Exit codes: 0 success, 2 bad configuration, 3 solver failure, 4 I/O failure.

The module imports only the solve path, which ``import dtnlab`` loads anyway;
a command that calls ``analysis``, ``conjecture`` or ``greens`` imports it
itself, so ``solve``, ``mesh`` and the validations never load them.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analytic, dtn, fem, geometry, mesh as meshmod
from .pipeline import solve

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# measured quantity -> the bound a run is checked against (a breach exits 3)
TOLERANCES = {
    "root_residual": 1e-10,  # validate-rect: max_root_residual
}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# domain string syntax
# ---------------------------------------------------------------------------

# tag -> (spec tag, short key -> spec field, defaults that differ from the spec's)
_SHAPES = {
    "disk": ("disk", {"R": "radius"}, {}),
    "ellipse": ("ellipse", {}, {}),
    "rect": ("rectangle", {}, {}),
    "ngon": ("regular_polygon", {"N": "n_sides", "R": "circumradius"}, {}),
    "triangle": ("triangle", {"a1": "angle1", "a2": "angle2"}, {}),
    "koch": ("koch_snowflake", {"g": "generation"}, {}),
    "deformed": ("deformed_disk", {"gamma": "amplitude", "m": "mode"}, {"amplitude": 0.02}),
}
_SHAPES.update(rectangle=_SHAPES["rect"], regular_polygon=_SHAPES["ngon"])


def parse_domain(text: str) -> geometry.DomainSpec:
    """Compact shape syntax, e.g. disk:R=1, rect:b1=1,b2=2, poly:file=v.json.

    Keys are the short names of ``_SHAPES`` or the spec's field names; an
    unknown key raises ``GeometryError``."""
    tag, _, rest = text.partition(":")
    pairs = (part.partition("=") for part in rest.split(",")) if rest else ()
    kv = {key.strip(): val.strip() for key, _, val in pairs}
    if tag == "octagon":
        if kv:
            raise CliError("octagon takes no keys", EXIT_CONFIG)
        return geometry.PolygonSpec(vertices=tuple(map(tuple, geometry.reflex_octagon_vertices())))
    if tag in ("poly", "polygon"):
        if list(kv) != ["file"]:
            raise CliError("poly domain needs file=<path.json> and no other key", EXIT_CONFIG)
        spec = geometry.spec_from_json(Path(kv["file"]).read_text())
        if not isinstance(spec, geometry.PolygonSpec):
            raise CliError("polygon file must hold a polygon spec", EXIT_CONFIG)
        return spec
    if tag not in _SHAPES:
        raise CliError(f"unknown domain tag {tag!r}", EXIT_CONFIG)
    spec_tag, short, defaults = _SHAPES[tag]
    return geometry.make_spec(spec_tag, {**defaults, **{short.get(k, k): v for k, v in kv.items()}})


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class Reporter:
    def __init__(self, config: argparse.Namespace):
        self.config = config
        self.out = Path(config.out)
        self.timings: dict[str, float] = {}
        self.payload: dict = {}
        self._t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        return self.out / name

    @contextlib.contextmanager
    def time(self, label: str):
        start = time.perf_counter()
        yield
        self.timings[label] = self.timings.get(label, 0.0) + time.perf_counter() - start

    def domain_metrics(self, domain: geometry.Domain, msh: meshmod.Mesh):
        self.payload["domain"] = json.loads(geometry.spec_to_json(domain.spec))
        self.payload["area"] = domain.area
        self.payload["perimeter"] = domain.perimeter
        self.payload["n_interior"] = msh.n_interior
        self.payload["n_boundary"] = msh.n_boundary
        self.payload["n_triangles"] = len(msh.triangles)

    def finish(self) -> None:
        self.timings["total"] = time.perf_counter() - self._t0
        report = {"config": vars(self.config), "timings_s": self.timings, **self.payload}
        dtn.summary_to_json(self.path("report.json"), **report)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _mesh(cfg: argparse.Namespace, rep: Reporter, spec: geometry.DomainSpec | None = None):
    """The command's domain (``spec``, else ``--domain``), its mesh (timed as
    "mesh") and the assembled matrices.

    The bounds the mesh sets on the command's settings (``count`` and
    ``localize --k`` by the boundary nodes, ``green-solve --m`` by all nodes)
    are checked before assembly, so a setting past them exits 2 at once."""
    domain = geometry.build_domain(parse_domain(cfg.domain) if spec is None else spec)
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    rep.domain_metrics(domain, msh)
    if "count" in cfg:
        dtn._check_count(cfg.count, msh.n_boundary)
    if "k" in cfg and cfg.k >= msh.n_boundary:
        raise CliError(f"k must be in 0..{msh.n_boundary - 1} on this mesh", EXIT_CONFIG)
    if "m" in cfg and cfg.m > msh.n_nodes - 2:
        raise CliError(f"m must be in 1..{msh.n_nodes - 2} on this mesh", EXIT_CONFIG)
    return domain, msh, fem.assemble(msh)


def cmd_mesh(cfg: argparse.Namespace, rep: Reporter) -> None:
    domain = geometry.build_domain(parse_domain(cfg.domain))
    with rep.time("mesh"):
        msh = meshmod.generate_mesh(domain, cfg.h)
    meshmod.export_mesh(msh, rep.path("mesh.txt"))
    rep.domain_metrics(domain, msh)


def cmd_solve(cfg: argparse.Namespace, rep: Reporter) -> None:
    _, msh, matrices = _mesh(cfg, rep)
    with rep.time("solve"):
        spectrum = solve(matrices, cfg.p, cfg.count, extensions=cfg.vectors)[1]
    _write_spectrum(rep, msh, spectrum)
    rep.payload["method"] = "fem"


def _write_spectrum(rep: Reporter, msh: meshmod.Mesh, spectrum: dtn.Spectrum) -> None:
    """``eigenvalues.csv``, ``mesh.txt`` and, when the spectrum carries
    extensions, one ``eigenvector_XXX.txt`` per mode, a value per node in
    mesh order; the report gets the eigenvalues."""
    dtn.write_csv(rep.path("eigenvalues.csv"), ["k", "mu"], enumerate(spectrum.eigenvalues))
    meshmod.export_mesh(msh, rep.path("mesh.txt"))
    if spectrum.extensions is not None:
        for k, values in enumerate(spectrum.extensions.T):
            np.savetxt(rep.path(f"eigenvector_{k:03d}.txt"), values, fmt="%.17g")
    rep.payload["eigenvalues"] = spectrum.eigenvalues


def cmd_green_solve(cfg: argparse.Namespace, rep: Reporter) -> None:
    from . import greens

    _, msh, matrices = _mesh(cfg, rep)
    # the p > 0 rule needs no basis: fail (exit 3) before building them
    greens._check_pressure(cfg.p)
    with rep.time("robin_bases"):
        basis0 = greens.robin_eigenbasis(matrices, 0.0, cfg.m)
        basis_q = greens.robin_eigenbasis(matrices, cfg.q, cfg.m)
    with rep.time("kernel"):
        spec = greens.dtn_spectrum_via_green(
            matrices, cfg.q, cfg.p, cfg.m, cfg.count, basis0, basis_q
        )
    if cfg.vectors:
        with rep.time("extensions"):
            spec = greens.extend_via_green(basis0, spec)
    _write_spectrum(rep, msh, spec)
    rep.payload["method"] = "green"
    rep.payload["green_q"] = cfg.q
    rep.payload["green_m"] = cfg.m
    rep.payload["robin_bases"] = {
        name: {"q": b.q, "shift": b.shift, "below": b.below, "steps": b.steps}
        for name, b in (("basis0", basis0), ("basis_q", basis_q))
    }


def cmd_validate_disk(cfg: argparse.Namespace, rep: Reporter) -> None:
    _, msh, matrices = _mesh(cfg, rep, geometry.DiskSpec(radius=cfg.radius))
    with rep.time("solve"):
        spectrum = solve(matrices, cfg.p, cfg.count)[1]
    oracle = analytic.DiskOracle(cfg.radius, cfg.p)
    exact = oracle.eigenvalues(cfg.count)
    rmse = dtn.eigenfunction_rmse(spectrum, oracle, msh.nodes[msh.boundary_indices])
    mus = spectrum.eigenvalues
    dtn.write_csv(
        rep.path("validation.csv"),
        ["k", "exact", "fem", "abs_err", "rmse"],
        zip(range(cfg.count), exact, mus, np.abs(mus - exact), rmse),
    )
    rep.payload["max_abs_err"] = float(np.abs(mus - exact).max())
    rep.payload["max_rmse"] = float(rmse.max())


def cmd_validate_rect(cfg: argparse.Namespace, rep: Reporter) -> None:
    _, _, matrices = _mesh(cfg, rep, geometry.RectangleSpec(b1=cfg.b1, b2=cfg.b2))
    with rep.time("roots"):
        pairs = analytic.rectangle_spectrum(cfg.b1, cfg.b2, cfg.p, cfg.count)
    with rep.time("solve"):
        mus = solve(matrices, cfg.p, cfg.count)[1].eigenvalues
    exact = np.array([e.mu for e in pairs])
    dtn.write_csv(
        rep.path("validation.csv"),
        ["k", "exact", "fem", "abs_err", "root_residual"],
        zip(range(cfg.count), exact, mus, np.abs(mus - exact), [e.residual for e in pairs]),
    )
    rep.payload["max_abs_err"] = float(np.abs(mus - exact).max())
    residual = float(max(e.residual for e in pairs))
    rep.payload["max_root_residual"] = residual
    rep.payload["tolerances"] = {"root_residual": TOLERANCES["root_residual"]}
    if residual > TOLERANCES["root_residual"]:
        raise CliError(
            f"max root residual {residual:.3g} exceeds the tolerance "
            f"{TOLERANCES['root_residual']:.3g}",
            EXIT_SOLVER,
        )


def cmd_sweep(cfg: argparse.Namespace, rep: Reporter) -> None:
    from . import analysis

    domain, _, matrices = _mesh(cfg, rep)
    grid = np.logspace(math.log10(cfg.p_min), math.log10(cfg.p_max), cfg.n_p)
    with rep.time("sweep"):
        eigenvalues = analysis.p_sweep(matrices, grid, cfg.count)
    dtn.write_csv(
        rep.path("sweep.csv"),
        ["p", "k", "mu"],
        ((p, k, mu) for p, row in zip(grid, eigenvalues) for k, mu in enumerate(row)),
    )
    rep.payload["small_p_slope"] = domain.area / domain.perimeter


def cmd_ck(cfg: argparse.Namespace, rep: Reporter) -> None:
    from . import conjecture

    domain, _, matrices = _mesh(cfg, rep)
    with rep.time("ck"):
        eigenvalues = solve(matrices, cfg.p, cfg.count)[1].eigenvalues
        report = conjecture.compare_conjecture(domain, cfg.p, eigenvalues)
    dtn.write_csv(
        rep.path("ck.csv"),
        ["k", "c_conjecture", "c_numeric", "abs_diff"],
        ((r.k, r.c_conjecture, r.c_numeric, r.abs_diff) for r in report.rows),
    )
    rep.path("ck.txt").write_text(report.format_table() + "\n")
    rep.payload["max_abs_diff"] = report.max_abs_diff()
    rep.payload["flagged"] = [r.k for r in report.flagged()]


def cmd_ak(cfg: argparse.Namespace, rep: Reporter) -> None:
    from . import analysis

    _, _, matrices = _mesh(cfg, rep)
    p_values = cfg.p_list or [cfg.p]
    rows = []
    survivors = {}
    with rep.time("ak"):
        for p in p_values:
            # A_k of a degenerate multiplet depend on its eigenbasis; the
            # concentrated ones do not, so the CSV and the audit read those
            ak = analysis.concentrate_degenerate_ak(solve(matrices, p, cfg.count)[1])
            rows.append((p, ak))
            survivors[str(p)] = analysis.symmetry_audit(ak)
    dtn.write_csv(
        rep.path("ak.csv"),
        ["p", "k", "abs_ak"],
        ((p, k, abs(a)) for p, ak in rows for k, a in enumerate(ak)),
    )
    rep.payload["survivors"] = survivors


def cmd_localize(cfg: argparse.Namespace, rep: Reporter) -> None:
    from . import analysis

    domain, msh, matrices = _mesh(cfg, rep)
    with rep.time("solve"):
        op, spectrum = solve(matrices, cfg.p, cfg.k + 1)
        # max_B spans mode k's whole multiplet: while the window may cut it,
        # solve the pencil of the same factor again with twice the modes
        while not any(cfg.k in g for g in analysis.complete_groups(spectrum)):
            count = min(2 * spectrum.count, len(spectrum.steklov_nodes))
            spectrum = dtn.eigensolve(op, count)
        spectrum = dtn.attach_extensions(spectrum, op.factor)
    with rep.time("maps"):
        loc = analysis.localization(spectrum, cfg.k, msh, domain, cfg.bin_width)
    dtn.write_csv(
        rep.path("bkmap.csv"),
        ["node", "x", "y", "dist", "V", "B"],
        zip(range(msh.n_nodes), *msh.nodes.T, loc.distances, loc.values, loc.amplified),
    )
    dtn.write_csv(
        rep.path("profile.csv"),
        ["k", "delta", "U"],
        ((loc.k, d, u) for d, u in zip(loc.bin_centers, loc.profile)),
    )
    rep.payload["k"] = cfg.k
    rep.payload["mu_k"] = loc.mu
    rep.payload["max_B"] = loc.group_max


def cmd_norms(cfg: argparse.Namespace, rep: Reporter) -> None:
    from . import analysis

    _, _, matrices = _mesh(cfg, rep)
    with rep.time("norms"):
        rows = analysis.norm_identities(matrices, cfg.p, cfg.count, cfg.dp)
    header = ["k", "mu", "energy_residual_rel", "l2_volume", "dmu_dp", "l2_residual_rel",
              "grad_sq", "grad_residual_rel", "tracked"]
    dtn.write_csv(rep.path("norms.csv"), header, ([r[h] for h in header] for r in rows))
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


def cmd_emit_plots(cfg: argparse.Namespace, rep: Reporter) -> None:
    art = Path(cfg.artifacts or cfg.out)
    # carry the artifacts' report forward: with --out equal to --artifacts this one replaces it
    report = art / "report.json"
    previous = json.loads(report.read_text()) if report.exists() else {}
    for key in ("config", "timings_s", "tolerances"):
        previous.pop(key, None)
    rep.payload.update(previous)
    written = []
    if (art / "sweep.csv").exists():
        slope = previous.get("small_p_slope", 0.0)
        (art / "plot_sweep.py").write_text(_PLOT_SWEEP.format(slope=slope))
        written.append("plot_sweep.py")
    if (art / "profile.csv").exists():
        (art / "plot_profile.py").write_text(_PLOT_PROFILE.format(mu=previous.get("mu_k", 1.0)))
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


# command -> (function, the settings it reads besides ``out``); each setting is
# a flag of that command and a key of its --config file
_COMMANDS = {
    "mesh": (cmd_mesh, ("domain", "h")),
    "solve": (cmd_solve, ("domain", "h", "p", "count", "vectors")),
    "green-solve": (cmd_green_solve, ("domain", "h", "p", "count", "q", "m", "vectors")),
    "validate-disk": (cmd_validate_disk, ("radius", "h", "p", "count")),
    "validate-rect": (cmd_validate_rect, ("b1", "b2", "h", "p", "count")),
    "sweep": (cmd_sweep, ("domain", "h", "count", "p_min", "p_max", "n_p")),
    "ck": (cmd_ck, ("domain", "h", "p", "count")),
    "ak": (cmd_ak, ("domain", "h", "p", "count", "p_list")),
    "localize": (cmd_localize, ("domain", "h", "p", "k", "bin_width")),
    "norms": (cmd_norms, ("domain", "h", "p", "count", "dp")),
    "emit-plots": (cmd_emit_plots, ("artifacts",)),
}


def _p_list(text: str) -> list[float]:
    """A comma-separated list of pressures, each finite and >= 0."""
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from None
    if not all(0 <= p < math.inf for p in values):
        raise argparse.ArgumentTypeError(f"every p must be finite and >= 0: {text!r}")
    return values


def _norms_step_fits(cfg: argparse.Namespace) -> bool:
    """Whether the central difference of ``norms`` stays at p >= 0; the
    default step is ``analysis.default_dp`` (analysis loads with norms only)."""
    from .analysis import default_dp

    return cfg.p - (default_dp(cfg.p) if cfg.dp is None else cfg.dp) >= 0


# setting -> (flag, argparse keywords, default): the one table of settings
_FLAGS = {
    "domain": ("--domain", dict(help="shape, e.g. disk:R=1 or rect:b1=1,b2=2"), None),
    "h": ("--h", dict(type=float), 0.05),
    "p": ("--p", dict(type=float), 1.0),
    "count": ("--count", dict(type=int), 11),
    "q": ("--q", dict(type=float), 1.0),
    "m": ("--m", dict(type=int), 131),
    "out": ("--out", {}, "."),
    "p_min": ("--p-min", dict(type=float), 1e-2),
    "p_max": ("--p-max", dict(type=float), 1e3),
    "n_p": ("--n-p", dict(type=int), 11),
    "p_list": ("--p-list", dict(type=_p_list), None),
    "k": ("--k", dict(type=int), 0),
    "dp": ("--dp", dict(type=float), None),
    "bin_width": ("--bin-width", dict(type=float), None),
    "radius": ("--R", dict(type=float), 1.0),
    "b1": ("--b1", dict(type=float), 1.0),
    "b2": ("--b2", dict(type=float), 2.0),
    "vectors": ("--vectors", dict(action="store_true"), False),
    "artifacts": ("--artifacts", {}, None),
}

# fail-fast checks, each applied when the command has the setting
_CHECKS = (
    ("domain", lambda c: bool(c.domain), "this command requires --domain"),
    ("h", lambda c: c.h > 0, "h must be positive"),
    ("count", lambda c: c.count >= 1, "count must be >= 1"),
    ("p", lambda c: 0 <= c.p < math.inf, "p must be finite and >= 0"),
    ("p_min", lambda c: 0 < c.p_min < c.p_max < math.inf,
     "the sweep needs 0 < p-min < p-max, both finite"),
    ("n_p", lambda c: c.n_p >= 1, "n-p must be >= 1"),
    ("k", lambda c: c.k >= 0, "k must be >= 0"),
    ("m", lambda c: c.m >= 1, "m must be >= 1"),
    ("q", lambda c: 0 < c.q < math.inf, "q must be positive and finite"),
    ("dp", lambda c: c.dp is None or 0 < c.dp < math.inf, "dp must be positive and finite"),
    ("dp", _norms_step_fits, "the central difference in p needs p - dp >= 0"),
    ("bin_width", lambda c: c.bin_width is None or c.bin_width > 0, "bin-width must be positive"),
)


def _fields(command: str) -> tuple[str, ...]:
    return _COMMANDS[command][1] + ("out",)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dtnlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # a flag left out is absent from the namespace, so its default holds
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON file with the flag values")
        for dest in _fields(name):
            flag, kwargs, _ = _FLAGS[dest]
            sp.add_argument(flag, dest=dest, **kwargs)
    return ap


def _config_value(name: str, value):
    """A ``--config`` value converted as the flag's text would be; null
    stands for a default of None."""
    _, kwargs, default = _FLAGS[name]
    if value is None and default is None:
        return None
    if kwargs.get("action") == "store_true":
        if isinstance(value, bool):
            return value
    else:
        try:
            return kwargs.get("type", str)(str(value))
        except (ValueError, argparse.ArgumentTypeError):
            pass
    raise CliError(f"bad value for config key {name!r}: {value!r}", EXIT_CONFIG)


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The command and its own settings: defaults, then flags, then ``--config``."""
    given = vars(args).copy()
    config = given.pop("config", None)
    names = _fields(args.command)
    values = {name: _FLAGS[name][2] for name in names} | given
    if config:
        try:
            overrides = json.loads(Path(config).read_text())
        except FileNotFoundError as exc:
            raise CliError(f"config file not found: {exc}", EXIT_IO) from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed config JSON: {exc}", EXIT_CONFIG) from exc
        if not isinstance(overrides, dict):
            raise CliError("config JSON must be an object of flag values", EXIT_CONFIG)
        unknown = set(overrides) - set(names)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_CONFIG)
        values.update((name, _config_value(name, v)) for name, v in overrides.items())
    cfg = argparse.Namespace(**values)
    for name, ok, message in _CHECKS:
        if name in names and not ok(cfg):
            raise CliError(message, EXIT_CONFIG)
    return cfg


# dtnlab error class -> exit code; named, not imported, so that mapping an
# error loads no module the command did not
_EXIT_CODES = {
    "GeometryError": EXIT_CONFIG,
    "DtnError": EXIT_CONFIG,
    "ConjectureError": EXIT_CONFIG,
    "MeshError": EXIT_SOLVER,
    "FemError": EXIT_SOLVER,
    "GreensError": EXIT_SOLVER,
    "AnalysisError": EXIT_SOLVER,
    "AnalyticError": EXIT_SOLVER,
}


def run(cfg: argparse.Namespace) -> int:
    rep = Reporter(cfg)
    try:
        rep.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[cfg.command][0](cfg, rep)
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO) from exc
    except Exception as exc:
        code = _EXIT_CODES.get(type(exc).__name__)
        if code is None:
            raise
        raise CliError(str(exc), code) from exc
    rep.finish()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except CliError as exc:
        record = {"error": str(exc), "exit_code": exc.exit_code, "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
