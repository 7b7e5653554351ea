import dataclasses
import functools
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from dtnlab import analytic, fem, geometry
from dtnlab.fem import (
    FRONT_SIZE,
    LEAF_SIZE,
    FemError,
    FemMatrices,
    assemble,
    factor_interior,
    solve_dirichlet,
)
from dtnlab.greens import SPD_LU_OPTIONS
from dtnlab.mesh import Mesh, generate_mesh

from conftest import PARTITION_ARCS, four_triangle_square, partition_of, reference_blocks


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
    assert fields == ["stiffness", "mass", "boundary_mass", "fronts"]
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


@functools.lru_cache(maxsize=None)
def catalog_matrices(i):
    return assemble(catalog_mesh(i))


def boundary_last_fill(mats, interior_order, p=1.0):
    """SuperLU's entries of L in the interior columns, and of L and U in all,
    of p*M + K factored in ``interior_order``, boundary last."""
    ni = mats.n_interior
    order = np.concatenate([interior_order, np.arange(ni, mats.n_nodes)])
    a = (p * mats.mass + mats.stiffness).tocsr()[order][:, order].tocsc()
    lu = splu(a, permc_spec="NATURAL", **SPD_LU_OPTIONS)
    assert np.array_equal(lu.perm_r, np.arange(len(order)))
    return lu.L.tocsc()[:, :ni].nnz, lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("i", range(len(CATALOG)))
def test_elimination_rank_permutes_interior_only(i):
    mesh = catalog_mesh(i)
    rank = catalog_matrices(i).fronts.rank
    ni = mesh.n_interior
    assert np.array_equal(np.sort(rank[:ni]), np.arange(ni))
    assert np.array_equal(rank[ni:], np.arange(ni, mesh.n_nodes))


def test_elimination_rank_of_tiny_interior_is_node_order():
    plan = assemble(four_triangle_square()).fronts
    assert np.array_equal(plan.rank, np.arange(5))
    # one front, the interior node, whose update set is the four corners
    assert (plan.start.tolist(), plan.stop.tolist(), plan.parent.tolist()) == ([0], [1], [-1])
    assert plan.update[0].tolist() == [1, 2, 3, 4]


def test_elimination_rank_is_deterministic(disk_mesh):
    """The hex-lattice rows share y, so the coordinate sorts meet ties."""
    assert np.array_equal(assemble(disk_mesh).fronts.rank, assemble(disk_mesh).fronts.rank)


def nested_dissection_by_recursion(mesh):
    """The nested-dissection order one part at a time, as the rule states it.

    Returns each node's rank, per split the rank bounds (a, b, c, d) of its
    left half [a, b), right half [b, c) and separator [c, d), and the
    fronts as (start, stop, parent), in the order of stop: each non-empty
    part of at most FRONT_SIZE nodes that no such part contains, and each
    non-empty separator of a larger part, the parent the (start, stop) of
    its nearest non-empty ancestor separator, or None at the top."""
    ni = mesh.n_interior
    edges = mesh.edges()[0]
    edges = edges[(edges < ni).all(axis=1)]
    rank = np.arange(mesh.n_nodes)
    splits, fronts = [], []

    def order(part, first, above, inside):  # part in node order
        if not inside and len(part) <= FRONT_SIZE:
            inside = True
            if len(part):
                fronts.append((first, first + len(part), above))
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
        b, c, d = first + len(left), first + len(left) + len(right), first + len(part)
        splits.append((first, b, c, d))
        if not inside and len(separator):
            fronts.append((c, d, above))
            above = (c, d)
        order(left, first, above, inside)
        order(right, b, above, inside)
        rank[separator] = c + np.arange(len(separator))

    order(np.arange(ni), 0, None, False)
    return rank, splits, sorted(fronts, key=lambda f: f[1])


@pytest.mark.parametrize("i", range(4))
def test_nested_dissection_matches_recursion_and_separates(i):
    """The level-by-level order and its front tree equal the recursive ones,
    and no mesh edge joins the two halves of any split."""
    mesh = catalog_mesh(i)
    rank, splits, fronts = nested_dissection_by_recursion(mesh)
    plan = catalog_matrices(i).fronts
    assert np.array_equal(plan.rank, rank)
    bounds = list(zip(plan.start.tolist(), plan.stop.tolist()))
    assert [(a, b, None if q < 0 else bounds[q]) for (a, b), q in zip(bounds, plan.parent)] == fronts
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
def test_front_plan_update_sets_are_the_factor_structure(i):
    """Each front's update set is the rows below its pivots that its columns
    of the Cholesky factor can fill: the later nodes joined by an edge to its
    subtree, found here from the mesh edges, one subtree at a time. A top
    front's update set is the whole boundary, so that its update matrix is
    the root itself."""
    mesh, plan = catalog_mesh(i), catalog_matrices(i).fronts
    edges = plan.rank[mesh.edges()[0]]
    edges = np.vstack([edges, edges[:, ::-1]])
    first = plan.start.copy()  # each subtree's first rank
    for t in range(plan.n_fronts):
        if plan.parent[t] >= 0:
            q = plan.parent[t]
            first[q] = min(first[q], first[t])
        inside = (edges[:, 0] >= first[t]) & (edges[:, 0] < plan.stop[t])
        joined = np.unique(edges[inside, 1][edges[inside, 1] >= plan.stop[t]])
        if plan.parent[t] >= 0:
            assert np.array_equal(plan.update[t], joined)
        else:
            assert joined[0] >= mesh.n_interior
            assert np.array_equal(plan.update[t], np.arange(mesh.n_interior, mesh.n_nodes))


@pytest.mark.parametrize("i", range(len(CATALOG)))
def test_nested_dissection_fill_at_most_minimum_degree(i):
    """The boundary-last factor fills no more than in SuperLU's MMD_AT_PLUS_A
    order of the interior block, and the partial Cholesky factor's nonzeros
    are exactly that fill in the interior columns."""
    mats = catalog_matrices(i)
    ni = mats.n_interior
    a_uu = (mats.mass + mats.stiffness).tocsr()[:ni, :ni].tocsc()
    mmd = splu(a_uu, permc_spec="MMD_AT_PLUS_A", **SPD_LU_OPTIONS).perm_c
    interior, nested = boundary_last_fill(mats, np.argsort(mats.fronts.rank[:ni]))
    assert nested <= boundary_last_fill(mats, np.argsort(mmd))[1]
    assert np.count_nonzero(factor_interior(mats, 1.0).lu.L.data) == interior


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
                kept = [(a, a.copy()) for a in (fac.panels, fac.root)]
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
                for now, (array, copy) in zip((fac.panels, fac.root), kept):
                    assert now is array and np.array_equal(array, copy)
    finally:
        sys.setswitchinterval(interval)


def test_factor_arrays_are_read_only(disk_matrices):
    """The stored factor refuses writes: its root, its panels and every
    front's (L11, L21) views of them. A view keeps the writeable flag it was
    made with, so each is marked, not only the buffer under them."""
    fac = factor_interior(disk_matrices, 1.0)
    for array in (fac.root, fac.panels, *(v for front in fac._fronts for v in front)):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_negative_p_rejected(disk_matrices):
    with pytest.raises(FemError):
        factor_interior(disk_matrices, p=-1.0)


@pytest.mark.parametrize("p", [-1.0, math.inf, math.nan])
def test_bad_p_rejected_before_any_front(disk_matrices, monkeypatch, p):
    """p is checked before any front is factored, so an infinite or NaN p
    never reaches the pivot blocks."""
    def no_front(*args, **kwargs):
        raise AssertionError("factored a front")

    monkeypatch.setattr(fem, "dpotrf", no_front)
    with pytest.raises(FemError, match="p must be finite and >= 0"):
        factor_interior(disk_matrices, p)


@pytest.mark.parametrize("arcs", PARTITION_ARCS)
@pytest.mark.parametrize("p", [0.0, 1e-2, 1.0, 1e3])
@pytest.mark.parametrize("i", range(4))
def test_factor_matches_independent_lu(i, p, arcs, rng):
    """On the four catalog shapes, S and the extensions of the partial
    Cholesky factor equal those of an independent SuperLU of A_uu to 1e-12
    relative; S is exactly symmetric, and the extensions equal the data
    exactly on the data nodes and are 0 on the dirichlet_zero nodes."""
    mats = catalog_matrices(i)
    partition = partition_of(mats.n_boundary, arcs)
    fac = factor_interior(mats, p, partition)
    a_uu, a_ud, a_dd, unknown = reference_blocks(mats, p, partition)
    lu = splu(a_uu)
    s_ref = a_dd - a_ud.T @ lu.solve(a_ud.toarray())
    s = fac.schur()
    assert np.array_equal(s, s.T)
    assert np.abs(s - s_ref).max() <= 1e-12 * np.abs(s_ref).max()
    f = rng.standard_normal((len(fac.data_nodes), 3))
    u = solve_dirichlet(fac, f)
    expected = lu.solve(-(a_ud @ f))
    assert np.abs(u[unknown] - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(u[fac.data_nodes], f)
    zero = np.setdiff1d(np.arange(mats.n_nodes), np.concatenate([unknown, fac.data_nodes]))
    assert len(zero) == (0 if partition is None else np.count_nonzero(partition.roles == fem.DIRICHLET_ZERO))
    assert not u[zero].any()


@pytest.mark.parametrize("arcs", PARTITION_ARCS)
def test_repeated_factor_gives_identical_schur(disk_matrices, arcs):
    partition = partition_of(disk_matrices.n_boundary, arcs)
    for p in (0.0, 1.0):
        first = factor_interior(disk_matrices, p, partition).schur()
        assert np.array_equal(factor_interior(disk_matrices, p, partition).schur(), first)


@pytest.mark.parametrize("flip", ["stiffness", "mass"])
def test_indefinite_front_raises(disk_matrices, flip):
    """A pivot block that is not positive definite raises ``FemError``, never
    a NaN factor. With -K every front is negative definite, the first one
    fails; with K - 30 M, past the disk's lowest Dirichlet eigenvalues (5.78,
    14.7, 26.4), the leaves stay definite and a front above them fails."""
    matrices = dataclasses.replace(disk_matrices, **{flip: -getattr(disk_matrices, flip)})
    with pytest.raises(FemError, match=r"front \d+ is not positive definite") as err:
        factor_interior(matrices, 30.0 if flip == "mass" else 0.0)
    failed = int(re.search(r"front (\d+)", str(err.value)).group(1))
    plan = disk_matrices.fronts
    if flip == "stiffness":
        assert failed == 0
    else:
        assert failed in plan.parent  # a front with children, not a leaf


def test_neumann_block_must_be_definite(disk_matrices):
    """The boundary Schur complement's neumann_zero block is factored
    densely; where it is not positive definite the factor raises. With
    K - 3 M the interior block is still definite (3 < 5.78), but the
    Neumann problem's constants give the root negative energy."""
    n = disk_matrices.n_boundary
    matrices = dataclasses.replace(disk_matrices, mass=-disk_matrices.mass)
    partition = fem.BoundaryPartition.from_arcs(n, [(0, n - 1, "neumann_zero"), (n - 1, n, "steklov")])
    with pytest.raises(FemError, match="neumann_zero block"):
        factor_interior(matrices, 3.0, partition)


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
