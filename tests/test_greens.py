import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.special import jnp_zeros

from dtnlab import analytic, greens
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


@pytest.fixture(scope="module")
def neumann_basis(disk_matrices):
    return robin_eigenbasis(disk_matrices, 0.0, 40)


@pytest.fixture(scope="module")
def robin_basis(disk_matrices):
    return robin_eigenbasis(disk_matrices, 1.0, 40)


def bases(matrices, m, q=1.0):
    """The q = 0 and q Robin bases of m modes, as ``dtn_spectrum_via_green`` takes them."""
    return robin_eigenbasis(matrices, 0.0, m), robin_eigenbasis(matrices, q, m)


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
    # M_b in the full node indexing: the boundary nodes come last
    ni = disk_matrices.n_interior
    B = sparse.block_diag((sparse.csr_matrix((ni, ni)), disk_matrices.boundary_mass))
    A = disk_matrices.stiffness + 1.0 * B
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


def test_extend_via_green_p0_k0_excluded(disk_matrices, neumann_basis, robin_basis):
    spec = dataclasses.replace(
        dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, neumann_basis, robin_basis), p=0.0
    )
    with pytest.raises(GreensError):
        extend_via_green(neumann_basis, spec, 0)



def test_extend_via_green_needs_the_neumann_basis(disk_matrices, neumann_basis, robin_basis):
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, neumann_basis, robin_basis)
    with pytest.raises(GreensError, match="expected q = 0"):
        extend_via_green(robin_basis, spec, 1)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RobinEigenbasis)])
def test_robin_basis_is_frozen(robin_basis, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(robin_basis, field, getattr(robin_basis, field))
