import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from dtnlab import analytic, geometry
from dtnlab.fem import SPD_LU_OPTIONS, FemError, assemble, factor_interior, solve_dirichlet
from dtnlab.mesh import Mesh, generate_mesh

from conftest import four_triangle_square


def reference_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(
        nodes=nodes,
        n_interior=0,
        n_boundary=3,
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        h_max=2.0,
    )


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
    m.nodes = m.nodes.copy()
    m.nodes[0] = m.nodes[1]  # collapse the interior node onto a corner
    with pytest.raises(FemError):
        assemble(m)


def unknown_block(mats, fac):
    """A_uu of A = p*M + K, unknowns in the factor's elimination order."""
    A = (fac.p * mats.mass + mats.stiffness).tocsr()
    return A[fac.unknown_nodes][:, fac.unknown_nodes]


def test_factor_solve_round_trip(disk_matrices, rng):
    fac = factor_interior(disk_matrices, p=1.0)
    a_uu = unknown_block(disk_matrices, fac)
    x = rng.standard_normal(a_uu.shape[0])
    b = a_uu @ x
    x2 = fac.solve_interior(b)
    assert np.linalg.norm(x - x2) <= 1e-10 * np.linalg.norm(x)


def test_factor_residual_contract(disk_matrices, rng):
    for p in (0.0, 1.0, 100.0):
        fac = factor_interior(disk_matrices, p=p)
        a_uu = unknown_block(disk_matrices, fac)
        b = rng.standard_normal(a_uu.shape[0])
        x = fac.solve_interior(b)
        assert np.linalg.norm(a_uu @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("spec, h", [
    (geometry.DiskSpec(1.0), 0.05),
    (geometry.RectangleSpec(1.0, 2.0), 0.08),
    (geometry.TriangleSpec(2.0, math.pi / 12, math.pi / 3), 0.04),
    (geometry.KochSpec(1, 2.0), 0.06),
])
def test_elimination_order_is_superlu_order(spec, h):
    """assemble's order is SuperLU's own MMD_AT_PLUS_A order of the interior
    block at every p, so the one factor has the fill of a factor of A_uu."""
    mats = assemble(generate_mesh(geometry.build_domain(spec), h))
    ni = mats.n_interior
    for p in (0.0, 1.0, 1e3):
        a_uu = (p * mats.mass + mats.stiffness).tocsr()[:ni, :ni].tocsc()
        lu = splu(a_uu, permc_spec="MMD_AT_PLUS_A", **SPD_LU_OPTIONS)
        assert np.array_equal(mats.elimination_rank[:ni], lu.perm_c)
    order = np.argsort(mats.elimination_rank[:ni])
    natural = splu(a_uu[order][:, order], permc_spec="NATURAL", **SPD_LU_OPTIONS)
    assert natural.L.nnz + natural.U.nnz == lu.L.nnz + lu.U.nnz
    assert np.array_equal(mats.elimination_rank[ni:], np.arange(ni, mats.n_nodes))


def test_factor_arrays_unchanged_by_extensions(disk_matrices, rng):
    """Extensions leave the factor as it was, also when threads share it."""
    fac = factor_interior(disk_matrices, p=1.0)
    kept = {name: [getattr(fac, name)] for name in ("l11t", "l21t", "u22")}
    for name, entry in kept.items():
        entry += [entry[0].data.copy(), entry[0].indices.copy(), entry[0].indptr.copy()]
    d11 = fac.d11.copy()
    f = rng.standard_normal((disk_matrices.n_boundary, 4))
    first = solve_dirichlet(disk_matrices, fac, 1.0, f)
    second = solve_dirichlet(disk_matrices, fac, 1.0, f)
    assert np.array_equal(first, second)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve_dirichlet, disk_matrices, fac, 1.0, f) for _ in range(8)]
            results = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(r, first) for r in results)
    assert np.array_equal(fac.d11, d11)
    for name, (mat, data, indices, indptr) in kept.items():
        assert getattr(fac, name) is mat
        assert np.array_equal(mat.data, data)
        assert np.array_equal(mat.indices, indices)
        assert np.array_equal(mat.indptr, indptr)
def test_negative_p_rejected(disk_matrices):
    with pytest.raises(FemError):
        factor_interior(disk_matrices, p=-1.0)


def test_zero_data_gives_zero_solution(disk_matrices):
    fac = factor_interior(disk_matrices, p=1.0)
    u = solve_dirichlet(disk_matrices, fac, 1.0, np.zeros(disk_matrices.n_boundary))
    assert np.abs(u).max() == 0.0


def test_constant_is_discrete_harmonic(disk_matrices):
    fac = factor_interior(disk_matrices, p=0.0)
    u = solve_dirichlet(disk_matrices, fac, 0.0, np.ones(disk_matrices.n_boundary))
    assert np.abs(u - 1.0).max() < 1e-10


def test_boundary_values_reproduced_exactly(disk_matrices, rng):
    fac = factor_interior(disk_matrices, p=2.0)
    f = rng.standard_normal(disk_matrices.n_boundary)
    u = solve_dirichlet(disk_matrices, fac, 2.0, f)
    bidx = disk_matrices.n_interior + np.arange(disk_matrices.n_boundary)
    assert np.array_equal(u[bidx], f)


def test_disk_harmonic_extension_matches_bessel(disk_mesh, disk_matrices):
    # u = I_0(r)/I_0(1) / sqrt(2 pi) solves (1 - Lap) u = 0 with the constant trace
    fac = factor_interior(disk_matrices, p=1.0)
    pair = analytic.disk_spectrum(1.0, 1.0, 1)[0]
    bpts = disk_mesh.nodes[disk_mesh.boundary_indices]
    f = pair.value(bpts)
    u = solve_dirichlet(disk_matrices, fac, 1.0, f)
    exact = pair.value(disk_mesh.nodes)
    rms = np.sqrt(np.mean((u - exact) ** 2))
    assert rms < 5e-3


def test_dirichlet_energy_minimality(disk_matrices, rng):
    p = 1.0
    fac = factor_interior(disk_matrices, p=p)
    f = rng.standard_normal(disk_matrices.n_boundary)
    u = solve_dirichlet(disk_matrices, fac, p, f)
    A = p * disk_matrices.mass + disk_matrices.stiffness
    e0 = u @ (A @ u)
    pert = u.copy()
    pert[: disk_matrices.n_interior] += 0.01 * rng.standard_normal(disk_matrices.n_interior)
    assert pert @ (A @ pert) > e0


def test_discrete_maximum_principle_sane(disk_matrices, rng):
    fac = factor_interior(disk_matrices, p=0.0)
    f = np.abs(rng.standard_normal(disk_matrices.n_boundary))
    u = solve_dirichlet(disk_matrices, fac, 0.0, f)
    assert u.min() >= -1e-10


def test_dimension_mismatch(disk_matrices):
    fac = factor_interior(disk_matrices, p=1.0)
    with pytest.raises(FemError):
        solve_dirichlet(disk_matrices, fac, 1.0, np.zeros(3))
    with pytest.raises(FemError):
        solve_dirichlet(disk_matrices, fac, 2.0, np.zeros(disk_matrices.n_boundary))
    with pytest.raises(FemError):
        solve_dirichlet(
            disk_matrices, fac, 1.0, np.full(disk_matrices.n_boundary, np.nan)
        )
