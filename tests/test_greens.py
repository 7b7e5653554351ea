import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jnp_zeros

from dtnlab import analytic, greens
from dtnlab.analysis import ak_coefficients
from dtnlab.dtn import DtnError
from dtnlab.greens import (
    GreensError,
    boundary_weights,
    dtn_spectrum_via_green,
    extend_via_green,
    green_function,
    kernel_consistency_report,
    robin_eigenbasis,
)


@pytest.fixture(scope="module")
def neumann_basis(disk_matrices):
    return robin_eigenbasis(disk_matrices, 0.0, 40)


@pytest.fixture(scope="module")
def robin_basis(disk_matrices):
    return robin_eigenbasis(disk_matrices, 1.0, 40)


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
    from dtnlab.greens import boundary_mass_embedded

    A = disk_matrices.stiffness + 1.0 * boundary_mass_embedded(disk_matrices)
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
    spec = dtn_spectrum_via_green(disk_matrices, q=1.0, p=1.0, m=120, count=7)
    fem_mu = disk_solution.spectrum.eigenvalues[:7]
    assert np.abs(spec.eigenvalues - fem_mu).max() < 5e-3


def test_green_route_weighted_normalization(disk_matrices):
    spec = dtn_spectrum_via_green(disk_matrices, q=1.0, p=1.0, m=60, count=4)
    w = boundary_weights(disk_matrices)
    norms = (w[:, None] * spec.vectors**2).sum(axis=0)
    assert np.abs(norms - 1.0).max() < 1e-10


def test_green_spectrum_carries_the_lumped_weights(disk_matrices, neumann_basis, robin_basis):
    """The Green route's vectors are orthonormal in diag(w) of the lumped
    weights, which the spectrum carries, and its A_k integrate with w."""
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 4, neumann_basis, robin_basis)
    w = boundary_weights(disk_matrices)
    assert np.array_equal(spec.boundary_mass.toarray(), np.diag(w))
    gram = spec.vectors.T @ (spec.boundary_mass @ spec.vectors)
    assert np.abs(gram - np.eye(4)).max() < 1e-10
    assert np.array_equal(ak_coefficients(spec), (w @ spec.vectors) / math.sqrt(w.sum()))


def test_insufficient_truncation_raises(disk_matrices):
    with pytest.raises(GreensError):
        dtn_spectrum_via_green(disk_matrices, q=1.0, p=1.0, m=3, count=8)


def test_q_must_be_positive(disk_matrices):
    with pytest.raises(GreensError):
        dtn_spectrum_via_green(disk_matrices, q=0.0, p=1.0, m=10, count=2)


def test_count_bounded_like_the_schur_route(disk_matrices, monkeypatch):
    """A count past the boundary nodes (or below 1) raises the Schur route's
    DtnError before any basis or kernel is built, instead of returning fewer
    pairs."""
    def no_basis(*args, **kwargs):
        raise AssertionError("built a basis before checking count")

    monkeypatch.setattr(greens, "robin_eigenbasis", no_basis)
    n_b = disk_matrices.n_boundary
    for count in (0, n_b + 1):
        with pytest.raises(DtnError, match=f"count must be in 1..{n_b}"):
            dtn_spectrum_via_green(disk_matrices, q=1.0, p=1.0, m=10, count=count)


def test_extend_via_green_disk_profile(disk_matrices, disk_mesh):
    m = 131
    basis0 = robin_eigenbasis(disk_matrices, 0.0, m)
    basis_q = robin_eigenbasis(disk_matrices, 1.0, m)
    spec = dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, m, 3, basis0, basis_q)
    V0 = extend_via_green(basis0, disk_matrices, spec, 0)
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


def test_extend_via_green_p0_k0_excluded(disk_matrices, neumann_basis):
    spec = dataclasses.replace(dtn_spectrum_via_green(disk_matrices, 1.0, 1.0, 40, 2, neumann_basis), p=0.0)
    with pytest.raises(GreensError):
        extend_via_green(neumann_basis, disk_matrices, spec, 0)


def test_kernel_consistency_diagnostic(disk_matrices, disk_solution, neumann_basis, robin_basis):
    rep = kernel_consistency_report(
        disk_matrices, neumann_basis, robin_basis, disk_solution.spectrum
    )
    assert rep["max_abs_deviation"] < np.inf
    assert rep["kernel_scale"] > 0
    # with both truncations the deviation is bounded by the combined tails
    assert rep["max_abs_deviation"] <= 5 * (rep["dtn_tail_cut"] + rep["robin_tail_cut"])
