import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh
from scipy.special import jnp_zeros

from conftest import four_triangle_square, seeded_star_polygon
from dtnlab import analytic, fem, geometry, greens, mesh as meshmod
from dtnlab.analysis import ak_coefficients, complete_groups
from dtnlab.dtn import DtnError
from dtnlab.greens import (
    GreensError,
    RobinEigenbasis,
    dtn_spectrum_via_green,
    extend_via_green,
    green_function,
    robin_eigenbasis,
)
from dtnlab.pipeline import solve


@pytest.fixture(scope="module")
def neumann_basis(disk_matrices):
    return robin_eigenbasis(disk_matrices, 0.0, 40)


@pytest.fixture(scope="module")
def robin_basis(disk_matrices):
    return robin_eigenbasis(disk_matrices, 1.0, 40)


def bases(matrices, m, q=1.0):
    """The q = 0 and q Robin bases of m modes, as ``dtn_spectrum_via_green`` takes them."""
    return robin_eigenbasis(matrices, 0.0, m), robin_eigenbasis(matrices, q, m)


def pencil(matrices, q):
    """K + q*B and M, with B the boundary mass M_b in the full node indexing
    (the boundary nodes come last)."""
    ni = matrices.n_interior
    B = sparse.block_diag((sparse.csr_matrix((ni, ni)), matrices.boundary_mass))
    return (matrices.stiffness + q * B).tocsc(), matrices.mass.tocsc()


def assert_same_basis(matrices, basis, w, u, tol=1e-12, scale=None):
    """``basis`` holds the eigenvalues w, relative to the largest (or to
    ``scale``), and the boundary kernel of the modes u, which does not depend
    on how a pair's vectors are rotated or signed; its modes are
    M-orthonormal, and ``below`` of its eigenvalues lie under its shift."""
    scale = np.abs(w).max() if scale is None else scale
    assert np.abs(basis.eigenvalues - w).max() <= tol * scale
    bidx = np.arange(matrices.n_interior, matrices.n_nodes)
    ref = (u[bidx] / (1.0 + w)) @ u[bidx].T
    assert np.abs(green_function(basis, 1.0, bidx) - ref).max() <= tol * np.abs(ref).max()
    gram = basis.modes.T @ (matrices.mass @ basis.modes)
    assert np.abs(gram - np.eye(len(w))).max() <= tol
    assert np.count_nonzero(basis.eigenvalues < basis.shift) == basis.below


COARSE_SHAPES = {
    "disk": geometry.DiskSpec(1.0),
    "square": geometry.RectangleSpec(2.0, 2.0),
    "hexagon": geometry.RegularPolygonSpec(6, 1.0),
}


@pytest.fixture(scope="module", params=list(COARSE_SHAPES))
def coarse_matrices(request):
    domain = geometry.build_domain(COARSE_SHAPES[request.param])
    return fem.assemble(meshmod.generate_mesh(domain, 0.1))


def assert_same_basis_in_any_blocks(monkeypatch, matrices, q, m, w, u):
    """``assert_same_basis`` for the basis built with the Gram-Schmidt pass in
    one block (the default budget, on these meshes), in blocks of one stored
    vector, and in blocks of 7, which leave a short tail on most steps."""
    for rows in (None, 1, 7):
        with monkeypatch.context() as patch:
            if rows is not None:
                patch.setattr(greens, "_GS_BLOCK_BYTES", rows * 8 * matrices.n_nodes)
            assert_same_basis(matrices, robin_eigenbasis(matrices, q, m), w, u)


@pytest.mark.parametrize("m", [10, 40])
@pytest.mark.parametrize("q", [0.0, 1.0])
def test_lanczos_basis_matches_arpack(coarse_matrices, q, m, monkeypatch):
    """The Lanczos basis against ARPACK's shift-invert run at the same shift.
    The square and the hexagon have eigenvalue pairs split by rounding and
    mesh asymmetry only, where the pair's vectors differ but the kernel not."""
    A, M = pencil(coarse_matrices, q)
    v0 = np.full(A.shape[0], 1.0 / np.sqrt(A.shape[0]))
    w, u = eigsh(A, k=m, M=M, sigma=-0.5, which="LM", v0=v0)
    order = np.argsort(w)
    assert_same_basis_in_any_blocks(monkeypatch, coarse_matrices, q, m, w[order], u[:, order])


@pytest.mark.parametrize("q", [0.0, 1.0])
@pytest.mark.parametrize("case", ["four-triangle square", "disk h=0.3"])
def test_lanczos_basis_on_tiny_meshes(q, case, monkeypatch):
    """With m = n - 2 the run reaches the whole space; the five-node
    square's pair (12, 12 at q = 0) is exactly degenerate, so its Krylov
    space breaks down early and goes on from rounding."""
    if case == "disk h=0.3":
        msh = meshmod.generate_mesh(geometry.build_domain(geometry.DiskSpec(1.0)), 0.3)
    else:
        msh = four_triangle_square()
    matrices = fem.assemble(msh)
    m = matrices.n_nodes - 2
    A, M = pencil(matrices, q)
    w, u = eigh(A.toarray(), M.toarray(), subset_by_index=[0, m - 1])
    assert_same_basis_in_any_blocks(monkeypatch, matrices, q, m, w, u)


def test_lanczos_step_cap_raises(disk_matrices, monkeypatch):
    """A run that reaches the step cap before the wanted pairs converge is a
    GreensError (exit 3), not a basis of unconverged pairs."""
    monkeypatch.setattr(greens, "MAX_LANCZOS_STEPS", 30)
    with pytest.raises(GreensError, match="did not converge in 30 Lanczos steps"):
        robin_eigenbasis(disk_matrices, 1.0, 20)


@pytest.fixture(scope="module")
def coarse_disk():
    return fem.assemble(meshmod.generate_mesh(geometry.build_domain(geometry.DiskSpec(1.0)), 0.1))


def dense_pairs(matrices, q, m):
    """The lowest m eigenpairs of (K + q*B, M) from a dense ``eigh``."""
    A, M = pencil(matrices, q)
    return eigh(A.toarray(), M.toarray(), subset_by_index=[0, m - 1])


@pytest.mark.parametrize("m", [1, 3])
def test_small_m_falls_back_below_the_spectrum(coarse_disk, m):
    """At q = 0 the Weyl shift for m = 1 (0.76) lies above lambda_0 = 0, and
    the one for m = 3 (3.3974) above the mesh's pair 3.3949, 3.3950: no
    wanted pair is left above it, so the run takes the shift -0.5 with none
    below, and matches a dense ``eigh``, relative to lambda_2 (lambda_0 is
    rounding)."""
    basis = robin_eigenbasis(coarse_disk, 0.0, m)
    assert (basis.shift, basis.below) == (greens._SHIFT, 0)
    w, u = dense_pairs(coarse_disk, 0.0, 3)
    assert_same_basis(coarse_disk, basis, w[:m], u[:, :m], scale=w[2])


def test_pivoted_count_falls_back_below_the_spectrum(coarse_disk, monkeypatch):
    """A count factor in which SuperLU pivoted is no inertia count: the run
    falls back to the shift -0.5 with none below. It matches a dense ``eigh``
    as the window run does, in 128 steps against the window run's 96."""
    window = robin_eigenbasis(coarse_disk, 1.0, 40)
    splu = greens.splu

    class Pivoted:
        def __init__(self, lu):
            self.U, self.perm_c, self.perm_r = lu.U, lu.perm_c, np.roll(lu.perm_r, 1)

    def pivoting_count(a, **options):
        lu = splu(a, **options)
        return Pivoted(lu) if options["diag_pivot_thresh"] == 0.0 else lu

    monkeypatch.setattr(greens, "splu", pivoting_count)
    basis = robin_eigenbasis(coarse_disk, 1.0, 40)
    assert (basis.shift, basis.below) == (greens._SHIFT, 0)
    assert window.below > 0 and window.steps < basis.steps
    w, u = dense_pairs(coarse_disk, 1.0, 40)
    for b in (window, basis):
        assert_same_basis(coarse_disk, b, w, u)


@pytest.mark.parametrize("error", [-1, 1])
def test_wrong_inertia_count_raises(coarse_disk, monkeypatch, error):
    """A run told one eigenvalue too few or too many below the shift never
    sees that many negative Ritz values once every pair below is found. It
    runs to the whole space and raises, rather than return a basis that
    lacks a pair and holds the next one above in its place."""
    lanczos = greens._lanczos
    monkeypatch.setattr(greens, "_lanczos", lambda solve, M, m, cap, below:
                        lanczos(solve, M, m, cap, below + error))
    n = coarse_disk.n_nodes
    with pytest.raises(GreensError, match=rf"in {n} Lanczos steps \(\d+ Ritz values below"):
        robin_eigenbasis(coarse_disk, 1.0, 40)


def test_neumann_constant_mode(disk_matrices, neumann_basis, disk_domain):
    assert abs(neumann_basis.eigenvalues[0]) < 1e-6
    u0 = neumann_basis.modes[:, 0]
    target = 1.0 / math.sqrt(disk_domain.area)
    assert np.sqrt(np.mean((np.abs(u0) - target) ** 2)) < 1e-3


def test_neumann_first_nonzero_eigenvalue(neumann_basis):
    # lowest nonzero Neumann eigenvalue of the unit disk: (first zero of J_1')^2
    exact = float(jnp_zeros(1, 1)[0]) ** 2
    assert abs(neumann_basis.eigenvalues[1] - exact) < 1e-2


def test_modes_m_orthonormal(disk_matrices, neumann_basis):
    u = neumann_basis.modes
    gram = u.T @ (disk_matrices.mass @ u)
    assert np.abs(gram - np.eye(u.shape[1])).max() < 1e-8


def test_generalized_residual(disk_matrices, robin_basis):
    A = pencil(disk_matrices, 1.0)[0]
    norm = np.abs(disk_matrices.stiffness).max()
    for k in (0, 5, 20):
        u = robin_basis.modes[:, k]
        r = A @ u - robin_basis.eigenvalues[k] * (disk_matrices.mass @ u)
        assert np.abs(r).max() <= 1e-8 * norm


def test_basis_is_deterministic(disk_matrices):
    a = robin_eigenbasis(disk_matrices, 1.0, 12)
    b = robin_eigenbasis(disk_matrices, 1.0, 12)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.modes, b.modes)


def test_green_function_symmetry(neumann_basis):
    idx = np.array([3, 100, 500])
    g = green_function(neumann_basis, 1.0, idx)
    assert np.abs(g - g.T).max() == 0.0


def test_green_diagonal_grows_with_truncation(disk_matrices):
    small = robin_eigenbasis(disk_matrices, 0.0, 10)
    big = robin_eigenbasis(disk_matrices, 0.0, 40)
    idx = np.array([7])
    g_small = green_function(small, 1.0, idx)[0, 0]
    g_big = green_function(big, 1.0, idx)[0, 0]
    assert g_big > g_small


def test_green_function_positivity_guard(neumann_basis):
    with pytest.raises(GreensError):
        green_function(neumann_basis, -1.0, np.array([0]))


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(1e-3, 1e3), q=st.floats(1e-3, 1e2))
def test_eta_mu_inversion_round_trip(mu, q):
    """The kernel eigenvalue of a boundary eigenvalue mu is eta = 1 / (mu (mu
    + q)); the inversion of ``dtn_spectrum_via_green`` recovers mu from it."""
    eta = 1.0 / (mu * (mu + q))
    back = math.sqrt(1.0 / eta + q * q / 4.0) - q / 2.0
    assert abs(back - mu) <= 1e-9 * max(1.0, mu)


def test_green_route_matches_schur_route(disk_matrices, disk_solution):
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 120, 7, *bases(disk_matrices, 120))
    fem_mu = disk_solution.spectrum.eigenvalues[:7]
    assert np.abs(spec.eigenvalues - fem_mu).max() < 5e-3


# the 30 pinned star polygons at the coarser of their two mesh sizes, the
# sharp triangle's graded mesh, and the 8 x 0.2 strip, where the Weyl shift is
# poor: the strip's low spectrum is one-dimensional, its m = 10 Weyl estimate
# 26.1 against lambda_9 = 12.5, so its q = 0 basis falls back below the
# spectrum
ROUTE_SHAPES = [
    *(pytest.param(seeded_star_polygon(seed), 0.08, 40, id=f"star{seed}") for seed in range(30)),
    pytest.param(geometry.RectangleSpec(8.0, 0.2), 0.08, 10, id="strip"),
    pytest.param(geometry.TriangleSpec(), 0.05, 40, id="sharp-triangle"),
]


@pytest.mark.parametrize("spec, h, m", ROUTE_SHAPES)
def test_schur_and_green_routes_agree(spec, h, m):
    """The Green route (q = 1, m modes) gives the Schur route's 6 lowest mu
    at p = 1 and 10, up to its truncation and lumped weights: measured at
    most 1.6e-2 of the largest on the stars, 1.1e-2 on the sharp triangle
    and 3.2e-3 on the strip."""
    matrices = fem.assemble(meshmod.generate_mesh(geometry.build_domain(spec), h))
    basis0, basis_q = bases(matrices, m)
    for p in (1.0, 10.0):
        mu = solve(matrices, p, 6)[1].eigenvalues
        green = dtn_spectrum_via_green(matrices, 1.0, p, m, 6, basis0, basis_q).eigenvalues
        assert np.abs(green - mu).max() <= 3e-2 * mu.max()


def test_green_route_weighted_normalization(disk_matrices):
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 60, 4, *bases(disk_matrices, 60))
    w = np.asarray(disk_matrices.boundary_mass.sum(axis=1)).ravel()  # lumped: M_b's row sums
    norms = (w[:, None] * spec.vectors**2).sum(axis=0)
    assert np.abs(norms - 1.0).max() < 1e-10


def test_green_spectrum_carries_the_lumped_weights(disk_matrices, neumann_basis, robin_basis):
    """The Green route's vectors are orthonormal in diag(w) of the lumped
    weights, which the spectrum carries, and its A_k integrate with w."""
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 4, neumann_basis, robin_basis)
    w = np.asarray(disk_matrices.boundary_mass.sum(axis=1)).ravel()  # lumped: M_b's row sums
    assert np.array_equal(spec.boundary_mass.toarray(), np.diag(w))
    gram = spec.vectors.T @ (spec.boundary_mass @ spec.vectors)
    assert np.abs(gram - np.eye(4)).max() < 1e-10
    assert np.array_equal(ak_coefficients(spec), (w @ spec.vectors) / math.sqrt(w.sum()))


def test_green_guard_is_the_next_eigenvalue(disk_matrices, neumann_basis, robin_basis):
    """The guard is eigenvalue ``count`` of a count + 1 solve. On the disk at
    p = 1 it closes the pair (1, 2), so ``complete_groups`` keeps the
    window's last pair, and a 2-mode window, whose guard chains, cuts it."""
    spec, more = (dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, count,
                                         neumann_basis, robin_basis) for count in (3, 4))
    assert abs(spec.guard - more.eigenvalues[3]) <= 1e-12 * more.eigenvalues[3]
    assert complete_groups(spec) == [[0], [1, 2]]
    cut = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, neumann_basis, robin_basis)
    assert complete_groups(cut) == [[0]]


def test_green_guard_past_the_kernel_rank_is_infinite(disk_matrices):
    """With m = 3 the kernel has rank 3: the 3-mode window's guard eta is at
    rounding level, where mu is +inf, so the last pair counts as complete."""
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 3, 3, *bases(disk_matrices, 3))
    assert spec.guard == math.inf
    assert complete_groups(spec) == [[0], [1, 2]]


def test_green_window_ends_at_the_truncation_floor(disk_matrices):
    """The truncated kernel is indefinite through its truncation error only.
    At m = 10 its 10th eta, 4.3e-10 of the largest, is below the magnitude
    of its most negative eigenvalue (8.6e-8 of the largest): the 10-mode
    window raises instead of returning mu_9 = 3.9e4 (the disk's is about
    4.1), and the 9-mode window's guard is +inf."""
    basis0, basis_q = bases(disk_matrices, 10)
    with pytest.raises(GreensError, match="truncation floor"):
        dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 10, 10, basis0, basis_q)
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 10, 9, basis0, basis_q)
    assert spec.guard == math.inf
    assert spec.eigenvalues[-1] < 5.0


def test_insufficient_truncation_raises(disk_matrices):
    with pytest.raises(GreensError):
        dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 3, 8, *bases(disk_matrices, 3))


def test_q_must_be_positive(disk_matrices):
    with pytest.raises(GreensError, match="q > 0"):
        dtn_spectrum_via_green(disk_matrices, 0.0, 1.0, 10, 2, *bases(disk_matrices, 10))


def test_count_bounded_like_the_schur_route(disk_matrices, monkeypatch):
    """A count past the boundary nodes (or below 1) raises the Schur route's
    DtnError before any kernel is built, instead of returning fewer pairs."""
    basis0, basis_q = bases(disk_matrices, 10)

    def no_kernel(*args, **kwargs):
        raise AssertionError("built a kernel before checking count")

    monkeypatch.setattr(greens, "green_function", no_kernel)
    n_b = disk_matrices.n_boundary
    for count in (0, n_b + 1):
        with pytest.raises(DtnError, match=f"count must be in 1..{n_b}"):
            dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 10, count, basis0, basis_q)


def test_green_route_builds_no_basis(disk_matrices, neumann_basis, robin_basis, monkeypatch):
    """The route uses only the two bases it is given, and both are required."""
    def no_basis(*args, **kwargs):
        raise AssertionError("built a Robin basis")

    monkeypatch.setattr(greens, "robin_eigenbasis", no_basis)
    with pytest.raises(TypeError, match="basis0"):
        dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 3)
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 3, neumann_basis, robin_basis)
    assert spec.count == 3


@pytest.mark.parametrize(
    "q, m, swap, match",
    [
        (2.0, 40, False, "basis_q is the q = 1 Robin basis, expected q = 2"),
        (1.0, 60, False, "basis0 holds 40 modes, expected m = 60"),
        (1.0, 40, True, "basis0 is the q = 1 Robin basis, expected q = 0"),
    ],
    ids=["q", "m", "swapped"],
)
def test_mismatched_basis_raises(disk_matrices, neumann_basis, robin_basis, q, m, swap, match):
    """A basis whose q or truncation is not the route's is a GreensError, not
    a spectrum with the wrong kernel."""
    pair = (robin_basis, neumann_basis) if swap else (neumann_basis, robin_basis)
    with pytest.raises(GreensError, match=match):
        dtn_spectrum_via_green(disk_matrices, q, 1.0, m, 3, *pair)


def test_extend_via_green_disk_profile(disk_matrices, disk_mesh):
    m = 131
    basis0 = robin_eigenbasis(disk_matrices, 0.0, m)
    basis_q = robin_eigenbasis(disk_matrices, 1.0, m)
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, m, 3, basis0, basis_q)
    V0 = extend_via_green(basis0, spec, 0)
    pair = analytic.disk_spectrum(1.0, 1.0, 1)[0]
    exact = pair.value(disk_mesh.nodes)
    if np.dot(V0, exact) < 0:
        V0 = -V0
    assert np.sqrt(np.mean((V0 - exact) ** 2)) < 1e-2
    # the boundary trace of the extension reproduces the eigenvector
    bidx = disk_mesh.boundary_indices
    tr = V0[bidx]
    v = spec.vectors[:, 0] * (1 if np.dot(spec.vectors[:, 0], tr) > 0 else -1)
    assert np.sqrt(np.mean((tr - v) ** 2)) < 2e-2


P0_MESSAGE = "the Green route needs p > 0: at p = 0, G_0 is the Neumann Green's function"


def test_extend_via_green_p0_k0_excluded(disk_matrices, neumann_basis, robin_basis):
    """At p = 0 no mode extends, the constant one (k = 0) or any other."""
    spec = dataclasses.replace(
        dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, neumann_basis, robin_basis), p=0.0
    )
    for k in (0, 1):
        with pytest.raises(GreensError, match=P0_MESSAGE):
            extend_via_green(neumann_basis, spec, k)


@pytest.mark.parametrize("lambda0", [3.6e-15, -3.2e-15])
def test_green_route_rejects_p0_whatever_the_sign_of_lambda0(
    disk_matrices, neumann_basis, robin_basis, monkeypatch, lambda0
):
    """G_0 at p = 0 is the singular Neumann kernel. Both Green functions say
    so before any kernel is formed, whether lambda_0 rounds to a small
    positive or a small negative number."""
    basis0 = dataclasses.replace(
        neumann_basis, eigenvalues=np.r_[lambda0, neumann_basis.eigenvalues[1:]]
    )
    spec = dataclasses.replace(
        dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, basis0, robin_basis), p=0.0
    )

    def no_kernel(*args, **kwargs):
        raise AssertionError("formed a kernel at p = 0")

    monkeypatch.setattr(greens, "green_function", no_kernel)
    for p in (0.0, -1.0):
        with pytest.raises(GreensError, match=P0_MESSAGE):
            dtn_spectrum_via_green(disk_matrices, 1.0, p, 40, 2, basis0, robin_basis)
    with pytest.raises(GreensError, match=P0_MESSAGE):
        extend_via_green(basis0, spec, 1)



def test_extend_via_green_needs_the_neumann_basis(disk_matrices, neumann_basis, robin_basis):
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, neumann_basis, robin_basis)
    with pytest.raises(GreensError, match="expected q = 0"):
        extend_via_green(robin_basis, spec, 1)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RobinEigenbasis)])
def test_robin_basis_is_frozen(robin_basis, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(robin_basis, field, getattr(robin_basis, field))
