"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into dtnlab from outside the package: the
public functions are replaced, for the duration of one traced operation, in
the module namespace where their caller resolves them. Nothing under
``src/`` is changed. A name that no longer exists is recorded as missing
instead of failing the run.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# (module attribute, span name); one span name may be resolved in several
# modules, e.g. the pipeline calls ``generate_mesh`` through its own import
# while the benchmark's set-up calls it through ``dtnlab.mesh``.
WRAP_TARGETS = [
    ("pipeline", "build_domain", "geometry.build_domain"),
    ("geometry", "build_domain", "geometry.build_domain"),
    ("pipeline", "generate_mesh", "mesh.generate_mesh"),
    ("mesh", "generate_mesh", "mesh.generate_mesh"),
    ("mesh", "validate_mesh", "mesh.validate_mesh"),
    ("pipeline", "assemble", "fem.assemble"),
    ("fem", "assemble", "fem.assemble"),
    ("pipeline", "factor_interior", "fem.factor_interior"),
    ("pipeline", "build_dtn", "dtn.build_dtn"),
    ("pipeline", "eigensolve", "dtn.eigensolve"),
    ("pipeline", "attach_extensions", "dtn.attach_extensions"),
    ("greens", "robin_eigenbasis", "greens.robin_eigenbasis"),
    ("greens", "dtn_spectrum_via_green", "greens.dtn_spectrum_via_green"),
]

# per-layer self-time metric -> span whose self time it is
LAYER_SPANS = {
    "geometry.build_s": "geometry.build_domain",
    "mesh.generate_s": "mesh.generate_mesh",
    "mesh.validate_s": "mesh.validate_mesh",
    "fem.assemble_s": "fem.assemble",
    "fem.factor_s": "fem.factor_interior",
    "fem.extend_s": "dtn.attach_extensions",
    "dtn.schur_s": "dtn.build_dtn",
    "dtn.eigensolve_s": "dtn.eigensolve",
    "greens.basis_s": "greens.robin_eigenbasis",
    "greens.kernel_s": "greens.dtn_spectrum_via_green",
}

ROOT = "op"


class Tracer:
    """Spans as ``[name, start, end, parent, op]`` rows, kept until the run ends."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrap target that exists; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, name in WRAP_TARGETS:
                mod = self.modules[mod_name]
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def rows(self, op) -> list[list]:
        return [r for r in self.spans if r[4] == op]

    def self_times(self, op) -> dict[str, float]:
        """Span name -> summed self time (duration minus child durations) in ``op``."""
        child = {}
        for r in self.spans:
            if r[4] == op and r[3] is not None:
                child[r[3]] = child.get(r[3], 0.0) + (r[2] - r[1])
        out: dict[str, float] = {}
        for i, r in enumerate(self.spans):
            if r[4] == op:
                out[r[0]] = out.get(r[0], 0.0) + (r[2] - r[1]) - child.get(i, 0.0)
        return out

    def mesh_attempts(self, op) -> list[int]:
        """``validate_mesh`` calls under each ``generate_mesh`` span of ``op``."""
        gens = [i for i, r in enumerate(self.spans) if r[4] == op and r[0] == "mesh.generate_mesh"]
        return [
            sum(1 for r in self.spans if r[3] == g and r[0] == "mesh.validate_mesh")
            for g in gens
        ]

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
