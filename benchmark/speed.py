"""Machine-speed probe: pick the least contended vCPU and record its speed.

On a shared virtual machine each vCPU's speed drifts by 20-40 % over tens of
seconds, independently of the other vCPUs, as neighbours load the physical
cores beneath them; whole runs come out 20 % slower or faster. Before each
set-up and operation the benchmark times a short fixed numpy/scipy kernel
(no dtnlab code) on every vCPU it may use, pins itself to the fastest, and
keeps that time. A run's seconds are reported at reference speed: wall
seconds times ``REFERENCE_S / median(kept kernel times)``. Only this
process's own CPU affinity changes.
"""
from __future__ import annotations

import os
import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay

# median kept kernel time on the 2-core x86-64 box the benchmark was sized on
# (numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31, one BLAS thread)
REFERENCE_S = 0.013


class SpeedProbe:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        n = 60
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.eye(n)
        self.laplacian = (sparse.kron(t, eye) + sparse.kron(eye, t)).tocsc()
        rng = np.random.default_rng(0)
        self.rhs = rng.standard_normal((n * n, 4))
        self.points = rng.random((1500, 2))
        self.picks: list[dict] = []
        self._kernel()  # first call pays lazy library set-up

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        splu(self.laplacian).solve(self.rhs)
        tris = Delaunay(self.points).simplices
        np.add.at(np.zeros(len(self.points)), tris.ravel(), 1.0)
        return time.perf_counter() - t0

    def __call__(self) -> None:
        """Pin this process to the vCPU where the kernel ran fastest just now."""
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(self._kernel(), self._kernel()))
        best = int(np.argmin(times))
        os.sched_setaffinity(0, {self.cpus[best]})
        self.picks.append({"cpu": self.cpus[best], "kernel_s": times})

    def scale(self) -> float:
        """Factor from this run's wall seconds to seconds at reference speed."""
        return REFERENCE_S / statistics.median(min(p["kernel_s"]) for p in self.picks)
