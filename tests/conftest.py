import math

import numpy as np
import pytest
from hypothesis import settings

from dtnlab import geometry, mesh as meshmod, fem
from dtnlab.pipeline import solve_steklov

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a
# seed-dependent failure of a random-shape property cannot fail an unrelated
# change; local runs stay random
settings.register_profile("ci", derandomize=True)

# boundary partitions of the factor tests, as fractions of the boundary loop
PARTITION_ARCS = [
    None,
    [(0, 0.25, "dirichlet_zero"), (0.25, 1.0, "steklov")],
    [(0, 0.25, "neumann_zero"), (0.25, 0.6, "steklov"), (0.6, 0.8, "dirichlet_zero"),
     (0.8, 1.0, "steklov")],
]


def star_polygon(angles, radii):
    """The polygon with vertices at ``radii`` along the sorted ``angles``,
    star-shaped about the origin, coordinates rounded to 4 decimals."""
    return geometry.PolygonSpec(tuple(
        (round(r * math.cos(t), 4), round(r * math.sin(t), 4))
        for t, r in zip(sorted(angles), radii)
    ))


def seeded_star_polygon(seed):
    """Pinned star polygon ``seed`` (of 30): 5 to 12 vertices at radii in
    [0.5, 1]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 13))
    return star_polygon(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.5, 1.0, n))


def partition_of(n, arcs):
    return None if arcs is None else fem.BoundaryPartition.from_arcs(
        n, [(int(a * n), int(b * n), name) for a, b, name in arcs]
    )


def reference_blocks(mats, p, partition=None):
    """A_uu (CSC), A_ud and dense A_dd of A = p*M + K, and the unknowns u (the
    interior, then the neumann_zero nodes), with d the data (steklov) nodes:
    built from the partition alone, apart from any factor."""
    roles = np.zeros(mats.n_boundary, dtype=np.int8) if partition is None else partition.roles
    ni = mats.n_interior
    u = np.concatenate([np.arange(ni), ni + np.flatnonzero(roles == fem.NEUMANN_ZERO)])
    d = ni + np.flatnonzero(roles == fem.STEKLOV)
    A = (p * mats.mass + mats.stiffness).tocsr()
    return A[u][:, u].tocsc(), A[u][:, d], A[d][:, d].toarray(), u


# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def disk_domain():
    return geometry.build_domain(geometry.DiskSpec(1.0))


@pytest.fixture(scope="session")
def square_domain():
    return geometry.build_domain(geometry.RectangleSpec(2.0, 2.0))


@pytest.fixture(scope="session")
def disk_mesh(disk_domain):
    return meshmod.generate_mesh(disk_domain, 0.05)


@pytest.fixture(scope="session")
def disk_matrices(disk_mesh):
    return fem.assemble(disk_mesh)


@pytest.fixture(scope="session")
def square_mesh(square_domain):
    return meshmod.generate_mesh(square_domain, 0.1)


@pytest.fixture(scope="session")
def square_matrices(square_mesh):
    return fem.assemble(square_mesh)


@pytest.fixture(scope="session")
def disk_solution(disk_domain, disk_mesh, disk_matrices):
    """Disk at p=1 with extensions, reused across test modules."""
    return solve_steklov(
        disk_domain, h=0.05, p=1.0, count=11, extensions=True,
        mesh=disk_mesh, matrices=disk_matrices,
    )


@pytest.fixture(scope="session")
def square_solution(square_domain, square_mesh, square_matrices):
    return solve_steklov(
        square_domain, h=0.1, p=1.0, count=12, extensions=True,
        mesh=square_mesh, matrices=square_matrices,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def four_triangle_square():
    """Hand-built valid mesh: unit square, one interior node at the center."""
    nodes = np.array(
        [[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    )
    triangles = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
    return meshmod.Mesh(nodes=nodes, n_interior=1, triangles=triangles, h_max=1.5)
