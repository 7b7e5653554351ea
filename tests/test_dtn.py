import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from dtnlab import analytic, dtn, geometry, pipeline
from dtnlab.dtn import (
    DtnError,
    attach_extensions,
    build_dtn,
    eigenfunction_rmse,
    eigensolve,
    write_csv,
)
from dtnlab import fem
from dtnlab.fem import BoundaryPartition, FemError, assemble, factor_interior, solve_dirichlet
from dtnlab.mesh import Mesh, generate_mesh
from dtnlab.pipeline import solve, solve_steklov

from conftest import PARTITION_ARCS, four_triangle_square, partition_of, reference_blocks


def test_schur_matches_dense_brute_force():
    """The Schur complement agrees with dense linear algebra to near machine
    precision: on a hand-built 5-node mesh, and at p = 0 on two coarse meshes
    where S is singular (the constants are in its kernel) and mu_0 = 0."""
    cases = [(four_triangle_square(), 0.7)] + [
        (generate_mesh(geometry.build_domain(spec), h), 0.0)
        for spec, h in [(geometry.RectangleSpec(1.0, 2.0), 0.45),
                        (geometry.RegularPolygonSpec(4, 1.0), 0.55)]
    ]
    for mesh, p in cases:
        mats = assemble(mesh)
        op = build_dtn(factor_interior(mats, p))
        A = (p * mats.mass + mats.stiffness).toarray()
        ii = slice(0, mesh.n_interior)
        ee = slice(mesh.n_interior, mesh.n_nodes)
        s_dense = A[ee, ee] - A[ee, ii] @ np.linalg.solve(A[ii, ii], A[ii, ee])
        assert np.abs(op.schur - s_dense).max() < 1e-14
        if p == 0.0:
            assert abs(eigensolve(op, 1).eigenvalues[0]) <= 1e-11


@pytest.mark.parametrize("arcs", PARTITION_ARCS)
def test_schur_elimination_matches_interior_solves(disk_matrices, arcs):
    """S from the root of the partial Cholesky factor, its neumann_zero block
    eliminated, is the Schur complement that interior solves with an
    independent LU of A_uu give."""
    partition = partition_of(disk_matrices.n_boundary, arcs)
    fac = factor_interior(disk_matrices, 1.0, partition)
    a_uu, a_ud, a_dd, _ = reference_blocks(disk_matrices, 1.0, partition)
    s_solve = a_dd - a_ud.T @ splu(a_uu).solve(a_ud.toarray())
    s_elim = build_dtn(fac).schur
    assert np.array_equal(s_elim, s_elim.T)
    assert np.abs(s_elim - s_solve).max() <= 1e-12 * np.abs(s_solve).max()


@pytest.mark.parametrize("p", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("arcs", PARTITION_ARCS)
def test_extensions_match_independent_solve(disk_matrices, rng, p, arcs):
    """A solve with the partial Cholesky factor gives the harmonic
    extension that an independent LU of A_uu gives, and it solves A u = 0
    on the unknowns."""
    partition = partition_of(disk_matrices.n_boundary, arcs)
    fac = factor_interior(disk_matrices, p, partition)
    a_uu, a_ud, _, unknown = reference_blocks(disk_matrices, p, partition)
    f = rng.standard_normal((len(fac.data_nodes), 3))
    u = solve_dirichlet(fac, f)
    expected = splu(a_uu).solve(-(a_ud @ f))
    got = u[unknown]
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    A = (p * disk_matrices.mass + disk_matrices.stiffness).tocsr()
    residual = (A @ u)[unknown]
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(a_ud @ f)
    assert np.array_equal(u[fac.data_nodes], f)
    if partition is not None:
        zero = np.flatnonzero(partition.roles == fem.DIRICHLET_ZERO) + disk_matrices.n_interior
        assert not u[zero].any()


@pytest.mark.parametrize("p", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("arcs", PARTITION_ARCS)
def test_boundary_last_factor_needs_no_fallback(disk_matrices, p, arcs):
    """The factor eliminates the interior nodes alone, with positive pivots,
    also at p = 0, where S is singular, and keeps the boundary nodes in a
    root that is never eliminated. In rank order, with L = [L_ii; W] the
    stored factor, L_ii L_ii^T is the interior block of A and the root is
    A_bb - W W^T. The partition enters only after the root: the factor's
    panels and root are those of the factor with no partition."""
    fac = factor_interior(disk_matrices, p, partition_of(disk_matrices.n_boundary, arcs))
    ni = disk_matrices.n_interior
    order = np.argsort(disk_matrices.fronts.rank)
    A = (p * disk_matrices.mass + disk_matrices.stiffness).tocsr()[order][:, order]
    L = fac.lu.L.tocsr()
    assert (fac.lu.U != L.T).nnz == 0
    assert L.shape == (disk_matrices.n_nodes, ni)
    assert L.diagonal().min() > 0
    l_ii, w = L[:ni], L[ni:]
    scale = abs(A).max()
    assert abs(l_ii @ l_ii.T - A[:ni, :ni]).max() <= 1e-13 * scale
    assert np.abs(fac.root - (A[ni:, ni:] - w @ w.T).toarray()).max() <= 1e-13 * scale
    assert np.array_equal(fac.root, fac.root.T)
    plain = factor_interior(disk_matrices, p)
    assert np.array_equal(fac.panels, plain.panels) and np.array_equal(fac.root, plain.root)


def test_schur_on_disconnected_mesh():
    """Two separate squares: the Schur complement onto both boundaries is
    exact, with no coupling between them. Their boundary nodes are one tail
    of the node list, so the mesh's boundary loop (and M_b) joins the two
    squares; S does not read M_b."""
    one = four_triangle_square()
    two = four_triangle_square()
    nodes = np.vstack([one.nodes[:1], two.nodes[:1] + [2.0, 0.0],
                       one.nodes[1:], two.nodes[1:] + [2.0, 0.0]])
    # interior nodes 0, 1; boundary nodes 2-5 (first square), 6-9 (second)
    local = np.array([0, 2, 3, 4, 5])
    tris = np.vstack([local[one.triangles], (local + np.array([1, 4, 4, 4, 4]))[two.triangles]])
    mesh = Mesh(nodes=nodes, n_interior=2, triangles=tris, h_max=1.5)
    mats = assemble(mesh)
    p = 0.7
    op = build_dtn(factor_interior(mats, p))
    A = (p * mats.mass + mats.stiffness).toarray()
    ii, ee = slice(0, 2), slice(2, 10)
    s_dense = A[ee, ee] - A[ee, ii] @ np.linalg.solve(A[ii, ii], A[ii, ee])
    assert np.abs(op.schur - s_dense).max() < 1e-14


def test_schur_on_disconnected_interior():
    """Two separate meshed squares: no edge crosses the top cut, so the top
    separator is empty, the plan leaves it out and the two halves' top
    fronts both send their updates to the root. S and the extensions agree
    with dense linear algebra, with no coupling between the squares."""
    one = generate_mesh(geometry.build_domain(geometry.RectangleSpec(1.0, 1.0)), 0.08)
    ni, nb = one.n_interior, one.n_boundary

    def place(triangles, second):  # node indices of one square in the pair
        return np.where(triangles < ni, triangles + second * ni, triangles + ni + second * nb)

    shift = np.array([3.0, 0.0])
    nodes = np.vstack([one.nodes[:ni], one.nodes[:ni] + shift, one.nodes[ni:], one.nodes[ni:] + shift])
    tris = np.vstack([place(one.triangles, 0), place(one.triangles, 1)])
    mats = assemble(Mesh(nodes=nodes, n_interior=2 * ni, triangles=tris, h_max=one.h_max))
    plan = mats.fronts
    assert np.count_nonzero(plan.parent < 0) == 2
    p = 0.7
    fac = factor_interior(mats, p)
    A = (p * mats.mass + mats.stiffness).toarray()
    ii, ee = slice(0, 2 * ni), slice(2 * ni, 2 * ni + 2 * nb)
    s_dense = A[ee, ee] - A[ee, ii] @ np.linalg.solve(A[ii, ii], A[ii, ee])
    s = fac.schur()
    assert np.abs(s - s_dense).max() <= 1e-12 * np.abs(s_dense).max()
    assert not s[:nb, nb:].any()
    f = np.random.default_rng(3).standard_normal(2 * nb)
    u = solve_dirichlet(fac, f)
    expected = -np.linalg.solve(A[ii, ii], A[ii, ee] @ f)
    assert np.abs(u[ii] - expected).max() <= 1e-12 * np.abs(expected).max()


def test_constants_in_kernel_at_p0(disk_matrices):
    fac = factor_interior(disk_matrices, 0.0)
    op = build_dtn(fac)
    ones = np.ones(len(op.factor.data_nodes))
    norm = np.abs(op.schur).max()
    assert np.abs(op.schur @ ones).max() <= 1e-9 * norm


def test_schur_symmetric(disk_matrices):
    fac = factor_interior(disk_matrices, 1.0)
    op = build_dtn(fac)
    assert np.abs(op.schur - op.schur.T).max() < 1e-10


def test_disk_eigenvalues_match_oracle(disk_solution):
    exact = analytic.DiskOracle(1.0, 1.0).eigenvalues(5)
    got = disk_solution.spectrum.eigenvalues[:5]
    assert np.abs(got - exact).max() < 5e-3


def test_p0_constant_mode(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(
        disk_domain, 0.05, 0.0, 3, mesh=disk_mesh, matrices=disk_matrices
    )
    assert abs(res.spectrum.eigenvalues[0]) < 1e-6
    assert (res.spectrum.eigenvalues >= -1e-9).all()
    v0 = res.spectrum.vectors[:, 0]
    target = 1.0 / np.sqrt(disk_domain.perimeter)
    assert np.sqrt(np.mean((v0 - target) ** 2)) < 1e-4


def test_mb_orthonormality(disk_solution, disk_matrices):
    v = disk_solution.spectrum.vectors
    local = disk_solution.spectrum.steklov_nodes - disk_matrices.n_interior
    mb = disk_matrices.boundary_mass[local][:, local]
    gram = v.T @ (mb @ v)
    assert np.abs(gram - np.eye(v.shape[1])).max() < 1e-8


@pytest.mark.parametrize("arcs", PARTITION_ARCS)
def test_spectrum_orthonormal_in_its_boundary_mass(disk_matrices, arcs):
    """A Schur-route spectrum carries its factor's M_b on the data nodes, the
    same object, and its vectors are orthonormal in it."""
    op, sp = solve(disk_matrices, 1.0, 8, partition_of(disk_matrices.n_boundary, arcs))
    assert sp.boundary_mass is op.factor.boundary_mass_s
    local = sp.steklov_nodes - disk_matrices.n_interior
    assert (sp.boundary_mass != disk_matrices.boundary_mass[local][:, local]).nnz == 0
    gram = sp.vectors.T @ (sp.boundary_mass @ sp.vectors)
    assert np.abs(gram - np.eye(8)).max() < 1e-12


def test_attach_extensions_leaves_its_input(disk_matrices):
    op, sp = solve(disk_matrices, 1.0, 4)
    extended = attach_extensions(sp, op.factor)
    assert sp.extensions is None
    assert extended.vectors is sp.vectors
    assert np.array_equal(extended.extensions, solve_dirichlet(op.factor, sp.vectors))


def test_solve_records_are_frozen(disk_solution):
    for record in (disk_solution, disk_solution.operator, disk_solution.spectrum):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)


def test_solve_result_holds_the_factor_it_built(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 1.0, 3, mesh=disk_mesh, matrices=disk_matrices)
    assert res.factor is res.operator.factor
    assert res.factor.lu.L.nnz + res.factor.lu.U.nnz > 0


def test_solve_steklov_needs_the_mesh_of_its_matrices(disk_domain, disk_matrices, monkeypatch):
    """Matrices without their mesh would be paired with a mesh built again,
    so the call raises before meshing."""
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed the domain")

    monkeypatch.setattr(pipeline, "generate_mesh", no_mesh)
    with pytest.raises(ValueError, match="mesh they were assembled on"):
        solve_steklov(disk_domain, 0.05, 1.0, 3, matrices=disk_matrices)


def test_eigenpair_residual(disk_solution):
    op = disk_solution.operator
    sp = disk_solution.spectrum
    r = op.schur @ sp.vectors - (op.factor.boundary_mass_s @ sp.vectors) * sp.eigenvalues
    assert np.abs(r).max() <= 1e-8 * np.abs(op.schur).max()


def test_sign_convention(disk_solution, disk_matrices):
    mb = disk_solution.operator.factor.boundary_mass_s
    s = np.asarray(mb.sum(axis=0)).ravel() @ disk_solution.spectrum.vectors
    assert (s >= -1e-7).all()


def test_extension_constant_at_p0(disk_matrices):
    fac = factor_interior(disk_matrices, 0.0)
    v = np.full(disk_matrices.n_boundary, 2.5)
    V = solve_dirichlet(fac, v)
    assert np.abs(V - 2.5).max() < 1e-9


def test_extension_matches_bessel_profile(disk_solution, disk_mesh):
    pair = analytic.disk_spectrum(1.0, 1.0, 1)[0]
    exact = pair.value(disk_mesh.nodes)
    got = disk_solution.spectrum.extensions[:, 0]
    # fix the overall sign against the analytic profile
    if np.dot(got, exact) < 0:
        got = -got
    assert np.sqrt(np.mean((got - exact) ** 2)) < 5e-3


def test_discrete_energy_identity(disk_solution, disk_matrices):
    """V^T (pM + K) V = mu for every computed eigenpair (exact Schur algebra)."""
    sp = disk_solution.spectrum
    A = disk_matrices.mass * sp.p + disk_matrices.stiffness
    for k in range(sp.count):
        V = sp.extensions[:, k]
        e = V @ (A @ V)
        assert abs(e - sp.eigenvalues[k]) <= 1e-8 * abs(sp.eigenvalues[k])


def test_eigenvalues_monotone_in_p(square_domain, square_mesh, square_matrices):
    r1 = solve_steklov(square_domain, 0.1, 0.5, 8, mesh=square_mesh, matrices=square_matrices)
    r2 = solve_steklov(square_domain, 0.1, 2.0, 8, mesh=square_mesh, matrices=square_matrices)
    assert (r1.spectrum.eigenvalues <= r2.spectrum.eigenvalues + 1e-8).all()


def test_mixed_dirichlet_lifts_kernel(disk_matrices):
    n = disk_matrices.n_boundary
    part = BoundaryPartition.from_arcs(n, [(0, n // 4, "dirichlet_zero"), (n // 4, n, "steklov")])
    sp = solve(disk_matrices, 0.0, 3, part)[1]
    assert len(sp.steklov_nodes) == n - n // 4
    assert sp.eigenvalues[0] > 1e-3


def test_mixed_neumann_keeps_constant_mode(disk_matrices):
    n = disk_matrices.n_boundary
    part = BoundaryPartition.from_arcs(n, [(0, n // 4, "neumann_zero"), (n // 4, n, "steklov")])
    sp = solve(disk_matrices, 0.0, 3, part)[1]
    assert abs(sp.eigenvalues[0]) < 1e-6  # constants still satisfy the Neumann condition


def test_partition_validation():
    with pytest.raises(FemError):
        BoundaryPartition(np.array([1, 1, 1], dtype=np.int8))
    with pytest.raises(FemError):
        BoundaryPartition(np.array([0, 5], dtype=np.int8))
    with pytest.raises(FemError):
        BoundaryPartition.from_arcs(8, [(0, 4, "steklov")])


def test_partition_rejects_unknown_role_name():
    with pytest.raises(FemError, match="stekloff"):
        BoundaryPartition.from_arcs(10, [(0, 10, "stekloff")])
    # arcs name their roles; the int8 codes are not a spelling of them
    with pytest.raises(FemError, match="unknown boundary role 0"):
        BoundaryPartition.from_arcs(10, [(0, 10, 0)])


@pytest.mark.parametrize(
    "arcs",
    [
        [(0, 12, "steklov")],
        [(-2, 8, "steklov")],
        [(10, 20, "steklov")],
        [(0, 3, "dirichlet_zero"), (3, -1, "steklov")],
    ],
)
def test_partition_rejects_arc_outside_loop(arcs):
    # each of these covered all 10 nodes by wrapping indices modulo 10
    with pytest.raises(FemError, match="outside"):
        BoundaryPartition.from_arcs(10, arcs)


def test_partition_rejects_an_empty_arc():
    # stop is exclusive, so (3, 3) holds no node, not the whole loop
    with pytest.raises(FemError, match=r"arc \(3, 3, 'dirichlet_zero'\) is empty"):
        BoundaryPartition.from_arcs(10, [(0, 10, "steklov"), (3, 3, "dirichlet_zero")])


def test_partition_rejects_overlapping_arcs():
    with pytest.raises(FemError, match=r"arc \(8, 2, 'neumann_zero'\) overlaps"):
        BoundaryPartition.from_arcs(10, [(0, 9, "steklov"), (8, 2, "neumann_zero")])


def test_partition_wrapping_arc():
    part = BoundaryPartition.from_arcs(8, [(6, 2, "dirichlet_zero"), (2, 6, "steklov")])
    assert part.roles.tolist() == [1, 1, 0, 0, 0, 0, 1, 1]


def test_unknown_role_code_cannot_reach_the_factor(disk_matrices):
    """A node with a code other than the three roles would be neither data nor
    unknown, held at 0 unseen. The factor takes roles only as a partition,
    which rejects the code."""
    roles = np.zeros(disk_matrices.n_boundary, dtype=np.int8)
    roles[:5] = 7
    with pytest.raises(FemError, match="unknown boundary role"):
        BoundaryPartition(roles)
    with pytest.raises(TypeError):
        factor_interior(disk_matrices, 1.0, roles)


def test_eigensolve_count_bounds(disk_solution):
    with pytest.raises(DtnError):
        eigensolve(disk_solution.operator, 0)
    with pytest.raises(DtnError):
        eigensolve(disk_solution.operator, len(disk_solution.operator.factor.data_nodes) + 1)


def test_rmse_against_oracle(disk_solution, disk_mesh):
    oracle = analytic.DiskOracle(1.0, 1.0)
    bpts = disk_mesh.nodes[disk_mesh.boundary_indices]
    rmse = eigenfunction_rmse(disk_solution.spectrum, oracle, bpts)
    assert rmse[0] <= 5e-4
    assert rmse.max() <= 5e-3


def test_rmse_of_oracle_against_itself(disk_solution, disk_mesh, disk_matrices):
    """Feeding analytic traces through the checker must give RMSE ~ 0."""
    oracle = analytic.DiskOracle(1.0, 1.0)
    bpts = disk_mesh.nodes[disk_mesh.boundary_indices]
    traces = oracle.trace_matrix(bpts, 5)
    synthetic = dataclasses.replace(
        disk_solution.spectrum, eigenvalues=oracle.eigenvalues(5), vectors=traces, extensions=None
    )
    rmse = eigenfunction_rmse(synthetic, oracle, bpts)
    assert rmse.max() < 1e-12


def test_rmse_pairing_failure(disk_solution, disk_mesh):
    oracle = analytic.DiskOracle(1.0, 25.0)  # wrong p: eigenvalues far off
    bpts = disk_mesh.nodes[disk_mesh.boundary_indices]
    with pytest.raises(DtnError):
        eigenfunction_rmse(disk_solution.spectrum, oracle, bpts)


def test_spectrum_serialization(tmp_path, disk_solution):
    sp = disk_solution.spectrum
    csv = tmp_path / "spec.csv"
    write_csv(csv, ["k", "mu"], enumerate(sp.eigenvalues))
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,mu"
    assert len(lines) == sp.count + 1
