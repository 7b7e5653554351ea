import dataclasses
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from dtnlab import analytic, geometry
from dtnlab.fem import (
    LEAF_SIZE,
    SPD_LU_OPTIONS,
    FemError,
    FemMatrices,
    assemble,
    factor_interior,
    solve_dirichlet,
)
from dtnlab.mesh import Mesh, generate_mesh

from conftest import PARTITION_ARCS, four_triangle_square, partition_of


def reference_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes=nodes, n_interior=0, triangles=np.array([[0, 1, 2]]), h_max=2.0)


def test_reference_triangle_element_matrices():
    mats = assemble(reference_triangle_mesh())
    k_exact = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    m_exact = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(mats.stiffness.toarray(), k_exact, atol=1e-15)
    assert np.allclose(mats.mass.toarray(), m_exact, atol=1e-15)


def test_stiffness_annihilates_constants(disk_matrices):
    ones = np.ones(disk_matrices.n_nodes)
    assert np.abs(disk_matrices.stiffness @ ones).max() < 1e-12


def test_mass_total_is_area(disk_matrices, disk_mesh):
    assert abs(disk_matrices.mass.sum() - disk_mesh.signed_areas().sum()) < 1e-12


def test_boundary_mass_total_is_perimeter(disk_matrices, disk_mesh):
    pa = disk_mesh.nodes[disk_mesh.boundary_edges[:, 0]]
    pb = disk_mesh.nodes[disk_mesh.boundary_edges[:, 1]]
    blen = np.hypot(*(pb - pa).T).sum()
    assert abs(disk_matrices.boundary_mass.sum() - blen) < 1e-12


def test_matrices_exactly_symmetric(disk_matrices):
    for mat in (disk_matrices.stiffness, disk_matrices.mass, disk_matrices.boundary_mass):
        diff = (mat - mat.T).tocoo()
        assert np.abs(diff.data).max() if diff.nnz else 0.0 == 0.0


def test_assemble_is_deterministic(disk_mesh):
    a = assemble(disk_mesh)
    b = assemble(disk_mesh)
    assert np.array_equal(a.stiffness.data, b.stiffness.data)
    assert np.array_equal(a.mass.data, b.mass.data)


def test_assemble_rejects_degenerate_triangle():
    m = four_triangle_square()
    nodes = m.nodes.copy()
    nodes[0] = nodes[1]  # collapse the interior node onto a corner
    with pytest.raises(FemError):
        assemble(dataclasses.replace(m, nodes=nodes))


# the counts, read off the matrices' shapes, are read-only too
@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(FemMatrices)] + ["n_interior", "n_boundary"]
)
def test_fem_matrices_are_frozen(disk_matrices, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(disk_matrices, field, getattr(disk_matrices, field))


def test_matrix_counts_follow_the_mesh(disk_mesh, disk_matrices):
    fields = [f.name for f in dataclasses.fields(FemMatrices)]
    assert fields == ["stiffness", "mass", "boundary_mass", "elimination_rank"]
    counts = (disk_matrices.n_interior, disk_matrices.n_boundary, disk_matrices.n_nodes)
    assert counts == (disk_mesh.n_interior, disk_mesh.n_boundary, disk_mesh.n_nodes)


# the benchmark's cold-solve catalog meshes and its p-sweep mesh
CATALOG = [
    (geometry.DiskSpec(1.0), 0.04),
    (geometry.RectangleSpec(1.0, 2.0), 0.04),
    (geometry.TriangleSpec(2.0, math.pi / 12, math.pi / 3), 0.016),
    (geometry.KochSpec(1, 2.0), 0.04),
    (geometry.DiskSpec(1.0), 0.025),
]


@functools.lru_cache(maxsize=None)
def catalog_mesh(i):
    spec, h = CATALOG[i]
    return generate_mesh(geometry.build_domain(spec), h)


def boundary_last_fill(mats, interior_order, p=1.0):
    """nnz(L + U) of p*M + K factored in ``interior_order``, boundary last."""
    order = np.concatenate([interior_order, np.arange(mats.n_interior, mats.n_nodes)])
    a = (p * mats.mass + mats.stiffness).tocsr()[order][:, order].tocsc()
    lu = splu(a, permc_spec="NATURAL", **SPD_LU_OPTIONS)
    assert np.array_equal(lu.perm_r, np.arange(len(order)))
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("i", range(len(CATALOG)))
def test_elimination_rank_permutes_interior_only(i):
    mesh = catalog_mesh(i)
    rank = assemble(mesh).elimination_rank
    ni = mesh.n_interior
    assert np.array_equal(np.sort(rank[:ni]), np.arange(ni))
    assert np.array_equal(rank[ni:], np.arange(ni, mesh.n_nodes))


def test_elimination_rank_of_tiny_interior_is_node_order():
    rank = assemble(four_triangle_square()).elimination_rank
    assert np.array_equal(rank, np.arange(5))


def test_elimination_rank_is_deterministic(disk_mesh):
    """The hex-lattice rows share y, so the coordinate sorts meet ties."""
    assert np.array_equal(
        assemble(disk_mesh).elimination_rank, assemble(disk_mesh).elimination_rank
    )


def nested_dissection_by_recursion(mesh):
    """The nested-dissection order one part at a time, as the rule states it.

    Returns each node's rank and, per split, the rank bounds (a, b, c, d) of
    its left half [a, b), right half [b, c) and separator [c, d)."""
    ni = mesh.n_interior
    edges = mesh.edges()[0]
    edges = edges[(edges < ni).all(axis=1)]
    rank = np.arange(mesh.n_nodes)
    splits = []

    def order(part, first):  # part in node order
        if len(part) <= LEAF_SIZE:
            rank[part] = first + np.arange(len(part))
            return
        extent = np.ptp(mesh.nodes[part], axis=0)
        axis = int(extent[1] > extent[0])
        by_coord = part[np.argsort(mesh.nodes[part, axis], kind="stable")]
        half = len(part) // 2
        is_left = np.isin(edges, by_coord[:half])
        is_right = np.isin(edges, by_coord[half:])
        crossing = (is_left[:, 0] & is_right[:, 1]) | (is_right[:, 0] & is_left[:, 1])
        separator = np.unique(edges[crossing][is_left[crossing]])
        left = np.setdiff1d(by_coord[:half], separator)
        right = np.sort(by_coord[half:])
        b, c = first + len(left), first + len(left) + len(right)
        splits.append((first, b, c, first + len(part)))
        order(left, first)
        order(right, b)
        rank[separator] = c + np.arange(len(separator))

    order(np.arange(ni), 0)
    return rank, splits


@pytest.mark.parametrize("i", range(4))
def test_nested_dissection_matches_recursion_and_separates(i):
    """The level-by-level order equals the recursive one, and no mesh edge
    joins the two halves of any split."""
    mesh = catalog_mesh(i)
    rank, splits = nested_dissection_by_recursion(mesh)
    assert np.array_equal(assemble(mesh).elimination_rank, rank)
    ni = mesh.n_interior
    edges = mesh.edges()[0]
    ra, rb = rank[edges[(edges < ni).all(axis=1)]].T
    assert len(splits) > 1
    for a, b, c, d in splits:
        joins = ((a <= ra) & (ra < b) & (b <= rb) & (rb < c)) | (
            (a <= rb) & (rb < b) & (b <= ra) & (ra < c)
        )
        assert not joins.any()


@pytest.mark.parametrize("i", range(len(CATALOG)))
def test_nested_dissection_fill_at_most_minimum_degree(i):
    """The boundary-last factor fills no more than in SuperLU's MMD_AT_PLUS_A
    order of the interior block."""
    mats = assemble(catalog_mesh(i))
    ni = mats.n_interior
    a_uu = (mats.mass + mats.stiffness).tocsr()[:ni, :ni].tocsc()
    mmd = splu(a_uu, permc_spec="MMD_AT_PLUS_A", **SPD_LU_OPTIONS).perm_c
    nested = boundary_last_fill(mats, np.argsort(mats.elimination_rank[:ni]))
    assert nested <= boundary_last_fill(mats, np.argsort(mmd))


def test_factor_arrays_unchanged_by_extensions(disk_matrices, rng):
    """For every partition and p, repeated and threaded extensions and Schur
    products are bit-identical and leave the kept factor as it was."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for arcs in PARTITION_ARCS:
            for p in (0.0, 1.0, 1e3):
                fac = factor_interior(disk_matrices, p, partition_of(disk_matrices.n_boundary, arcs))
                s_first = fac.schur()
                lu = fac.lu
                kept = [(m, m.data.copy(), m.indices.copy(), m.indptr.copy()) for m in (lu.L, lu.U)]
                f = rng.standard_normal((len(fac.data_nodes), 4))
                first = solve_dirichlet(fac, f)
                assert np.array_equal(solve_dirichlet(fac, f), first)
                assert np.array_equal(fac.schur(), s_first)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(solve_dirichlet, fac, f) for _ in range(8)]
                    schurs = [pool.submit(fac.schur) for _ in range(4)]
                    results = [fut.result(timeout=60) for fut in futures]
                    s_results = [fut.result(timeout=60) for fut in schurs]
                assert all(np.array_equal(r, first) for r in results)
                assert all(np.array_equal(s, s_first) for s in s_results)
                assert fac.lu is lu
                for mat, (cached, data, indices, indptr) in zip((lu.L, lu.U), kept):
                    assert mat is cached
                    assert np.array_equal(mat.data, data)
                    assert np.array_equal(mat.indices, indices)
                    assert np.array_equal(mat.indptr, indptr)
    finally:
        sys.setswitchinterval(interval)


def test_negative_p_rejected(disk_matrices):
    with pytest.raises(FemError):
        factor_interior(disk_matrices, p=-1.0)


def test_zero_data_gives_zero_solution(disk_matrices):
    fac = factor_interior(disk_matrices, p=1.0)
    u = solve_dirichlet(fac, np.zeros(disk_matrices.n_boundary))
    assert np.abs(u).max() == 0.0


def test_constant_is_discrete_harmonic(disk_matrices):
    fac = factor_interior(disk_matrices, p=0.0)
    u = solve_dirichlet(fac, np.ones(disk_matrices.n_boundary))
    assert np.abs(u - 1.0).max() < 1e-10


def test_boundary_values_reproduced_exactly(disk_matrices, rng):
    fac = factor_interior(disk_matrices, p=2.0)
    f = rng.standard_normal(disk_matrices.n_boundary)
    u = solve_dirichlet(fac, f)
    bidx = disk_matrices.n_interior + np.arange(disk_matrices.n_boundary)
    assert np.array_equal(u[bidx], f)


def test_disk_harmonic_extension_matches_bessel(disk_mesh, disk_matrices):
    # u = I_0(r)/I_0(1) / sqrt(2 pi) solves (1 - Lap) u = 0 with the constant trace
    fac = factor_interior(disk_matrices, p=1.0)
    pair = analytic.disk_spectrum(1.0, 1.0, 1)[0]
    bpts = disk_mesh.nodes[disk_mesh.boundary_indices]
    f = pair.value(bpts)
    u = solve_dirichlet(fac, f)
    exact = pair.value(disk_mesh.nodes)
    rms = np.sqrt(np.mean((u - exact) ** 2))
    assert rms < 5e-3


def test_dirichlet_energy_minimality(disk_matrices, rng):
    p = 1.0
    fac = factor_interior(disk_matrices, p=p)
    f = rng.standard_normal(disk_matrices.n_boundary)
    u = solve_dirichlet(fac, f)
    A = p * disk_matrices.mass + disk_matrices.stiffness
    e0 = u @ (A @ u)
    pert = u.copy()
    pert[: disk_matrices.n_interior] += 0.01 * rng.standard_normal(disk_matrices.n_interior)
    assert pert @ (A @ pert) > e0


def test_discrete_maximum_principle_sane(disk_matrices, rng):
    fac = factor_interior(disk_matrices, p=0.0)
    f = np.abs(rng.standard_normal(disk_matrices.n_boundary))
    u = solve_dirichlet(fac, f)
    assert u.min() >= -1e-10


def test_dimension_mismatch(disk_matrices):
    fac = factor_interior(disk_matrices, p=1.0)
    with pytest.raises(FemError):
        solve_dirichlet(fac, np.zeros(3))
    with pytest.raises(FemError):
        solve_dirichlet(fac, np.full(disk_matrices.n_boundary, np.nan))
