import math

import mpmath
import numpy as np
import pytest

from dtnlab import geometry
from dtnlab.analysis import (
    AnalysisError,
    ak_coefficients,
    ak_via_volume,
    bk_group_max,
    bk_map,
    concentrate_degenerate_ak,
    last_group_complete,
    match_branches,
    norm_identities,
    numerical_groups,
    p_sweep,
    summary_to_json,
    symmetry_audit,
    uk_profile,
)
from dtnlab import dtn, fem
from dtnlab.dtn import write_csv
from dtnlab.pipeline import solve_steklov

import conftest


def test_disk_ak_is_delta(disk_solution, disk_matrices):
    ak = ak_coefficients(disk_solution.spectrum, disk_matrices)
    assert abs(ak[0] - 1.0) < 1e-3
    assert np.abs(ak[1:]).max() < 1e-3


def test_p0_ak_is_delta(square_domain, square_mesh, square_matrices):
    res = solve_steklov(square_domain, 0.1, 0.0, 8, mesh=square_mesh, matrices=square_matrices)
    ak = ak_coefficients(res.spectrum, square_matrices)
    assert abs(ak[0] - 1.0) < 1e-3
    assert np.abs(ak[1:]).max() < 1e-3


def test_ak_partial_sums_bounded(square_solution, square_matrices):
    ak = ak_coefficients(square_solution.spectrum, square_matrices)
    sums = np.cumsum(ak**2)
    assert (np.diff(sums) >= 0).all()
    assert sums[-1] <= 1 + 1e-6


def test_ak_volume_route_agrees(square_solution, square_matrices):
    ak_b = ak_coefficients(square_solution.spectrum, square_matrices)
    ak_v = ak_via_volume(square_solution.spectrum, square_matrices)
    assert np.abs(ak_b - ak_v).max() < 1e-3


def test_ak_volume_rejects_p0(square_domain, square_mesh, square_matrices):
    res = solve_steklov(square_domain, 0.1, 0.0, 4, extensions=True,
                        mesh=square_mesh, matrices=square_matrices)
    with pytest.raises(AnalysisError):
        ak_via_volume(res.spectrum, square_matrices)


def test_symmetry_audit_classification():
    audit = symmetry_audit(np.array([0.9, 1e-5, 0.02, -1e-4]), threshold=1e-3)
    assert audit.survivors == [0, 2]
    assert audit.cancelled == [1, 3]


def test_numerical_groups_chain():
    mus = np.array([0.0, 1.0, 1.0004, 1.0008, 2.0, 5.0, 5.004])
    groups = numerical_groups(mus, 1e-3)
    assert groups == [[0], [1, 2, 3], [4], [5, 6]]


def test_concentrate_degenerate_ak(disk_solution, disk_matrices):
    # disk pairs are numerically degenerate; concentration keeps sum of squares
    ak = ak_coefficients(disk_solution.spectrum, disk_matrices)
    conc = concentrate_degenerate_ak(disk_solution.spectrum, disk_matrices)
    assert abs(np.sum(conc**2) - np.sum(ak**2)) < 1e-12
    groups = numerical_groups(disk_solution.spectrum.eigenvalues, 1e-3)
    for g in groups:
        if len(g) > 1:
            assert np.all(conc[g[:-1]] == 0.0)


def test_bk_group_max_reduces_to_single_mode(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    # k=0 at p=0 is the isolated constant mode: group of one
    single = bk_map(res.spectrum, 0, disk_mesh, disk_domain).max_amplified()
    grouped = bk_group_max(res.spectrum, 0, disk_mesh, disk_domain)
    assert abs(single - grouped) < 1e-12


def test_bk_group_max_rotation_invariant(disk_domain, disk_mesh, disk_matrices):
    # mix the degenerate pair (1, 2) by hand: the group maximum must not move
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    base = bk_group_max(res.spectrum, 1, disk_mesh, disk_domain)
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    res.spectrum.vectors[:, 1:3] = res.spectrum.vectors[:, 1:3] @ rot
    res.spectrum.extensions[:, 1:3] = res.spectrum.extensions[:, 1:3] @ rot
    mixed = bk_group_max(res.spectrum, 1, disk_mesh, disk_domain)
    assert abs(base - mixed) < 1e-12


def test_bk_group_max_needs_full_group(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    with pytest.raises(AnalysisError):
        bk_group_max(res.spectrum, 3, disk_mesh, disk_domain)  # pair split at window end


def test_guard_is_next_eigenvalue(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 3, mesh=disk_mesh, matrices=disk_matrices)
    more = solve_steklov(disk_domain, 0.05, 0.0, 4, mesh=disk_mesh, matrices=disk_matrices)
    # equal to solver precision: the two calls bisect different index ranges
    assert abs(res.spectrum.guard - more.spectrum.eigenvalues[3]) < 1e-12
    assert res.spectrum.vectors.shape[1] == 3


def test_bk_group_max_accepts_guarded_group(disk_domain, disk_mesh, disk_matrices):
    # the pair (1, 2) ends the 3-mode window; the guard mu_3 starts the next pair
    res = solve_steklov(disk_domain, 0.05, 0.0, 3, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    wide = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                         mesh=disk_mesh, matrices=disk_matrices)
    assert last_group_complete(res.spectrum, 1e-3)
    got = bk_group_max(res.spectrum, 1, disk_mesh, disk_domain)
    assert abs(got - bk_group_max(wide.spectrum, 1, disk_mesh, disk_domain)) < 1e-12


def test_bk_group_max_needs_guard(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 3, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    res.spectrum.guard = None  # as on spectra that no eigensolve filled in
    assert not last_group_complete(res.spectrum, 1e-3)
    with pytest.raises(AnalysisError):
        bk_group_max(res.spectrum, 1, disk_mesh, disk_domain)


def test_guard_infinite_for_full_window():
    msh = conftest.four_triangle_square()
    mats = fem.assemble(msh)
    fac = fem.factor_interior(mats, 0.0)
    op = dtn.build_dtn(fac)
    sp = dtn.eigensolve(op, op.n_steklov)
    assert sp.guard == math.inf
    assert last_group_complete(sp, 1e-3)
    assert abs(dtn.eigensolve(op, op.n_steklov - 1).guard - sp.eigenvalues[-1]) < 1e-12


def test_concentrate_leaves_truncated_group(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 1.0, 3, mesh=disk_mesh, matrices=disk_matrices)
    ak = ak_coefficients(res.spectrum, disk_matrices)
    # the guard closes the pair (1, 2), so it is concentrated
    conc = concentrate_degenerate_ak(res.spectrum, disk_matrices)
    assert conc[1] == 0.0
    assert abs(conc[2] - math.hypot(ak[1], ak[2])) < 1e-15
    # a tolerance that chains the guard onto (0, 1, 2) leaves it unrotated
    assert np.array_equal(concentrate_degenerate_ak(res.spectrum, disk_matrices, 1.0), ak)
    res.spectrum.guard = None
    assert np.array_equal(concentrate_degenerate_ak(res.spectrum, disk_matrices), ak)


def test_bk_boundary_values(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    loc = bk_map(res.spectrum, 2, disk_mesh, disk_domain)
    bidx = disk_mesh.boundary_indices
    expected = math.sqrt(disk_domain.perimeter) * np.abs(res.spectrum.vectors[:, 2])
    assert np.abs(loc.amplified[bidx] - expected).max() < 1e-6
    assert (loc.amplified >= 0).all()


def test_bk_masked_export(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 6, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    loc = bk_map(res.spectrum, 5, disk_mesh, disk_domain)
    logs = loc.masked_log10()
    tiny = np.abs(loc.values) < loc.floor
    assert np.isnan(logs[tiny]).all()


def test_uk_profile_bin_zero(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    prof = uk_profile(res.spectrum, 4, disk_mesh, disk_domain)
    expected = math.sqrt(disk_domain.perimeter) * np.abs(res.spectrum.vectors[:, 4]).max()
    assert abs(prof.values[0] - expected) < 1e-9
    assert prof.bin_centers[0] == 0.0
    assert (np.diff(prof.bin_centers) > 0).all()


def test_uk_profile_tracks_power_law(disk_domain, disk_mesh, disk_matrices):
    # k=4 at p=0 is the n=2 pair: |V| ~ r^2, so the band max follows
    # sqrt(2)(1-delta)^2 evaluated at the band's inner edge
    res = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    prof = uk_profile(res.spectrum, 4, disk_mesh, disk_domain)
    mid = np.argmin(np.abs(prof.bin_centers - 0.4))
    c, hw = prof.bin_centers[mid], prof.half_width
    upper = math.sqrt(2) * (1 - (c - hw)) ** 2 + 0.03
    lower = math.sqrt(2) * (1 - (c + hw)) ** 2 - 0.03
    assert lower <= prof.values[mid] <= upper


def test_norm_identities_disk(disk_matrices):
    rows = norm_identities(disk_matrices, p=1.0, count=5, dp=0.01)
    for r in rows:
        assert r["energy_residual_rel"] <= 1e-8
        assert r["l2_residual_rel"] <= 1e-2
        assert r["grad_residual_rel"] <= 1e-2
        assert r["tracked"]


def test_norm_identity_against_bessel_derivative(disk_matrices):
    rows = norm_identities(disk_matrices, p=1.0, count=1, dp=0.01)
    mpmath.mp.dps = 30
    dmu = float(mpmath.diff(
        lambda p: mpmath.sqrt(p) * mpmath.besseli(1, mpmath.sqrt(p)) / mpmath.besseli(0, mpmath.sqrt(p)),
        1.0,
    ))
    assert abs(rows[0]["l2_volume"] - dmu) <= 1e-2 * abs(dmu)


def test_norm_identities_validates_dp(disk_matrices):
    with pytest.raises(AnalysisError):
        norm_identities(disk_matrices, p=0.005, count=2, dp=0.01)


def test_match_branches_identity(disk_solution, disk_matrices):
    idx = match_branches(disk_solution.spectrum, disk_solution.spectrum, disk_matrices)
    assert np.array_equal(idx, np.arange(disk_solution.spectrum.count))


def test_p_sweep_small_p_asymptote(disk_domain, disk_matrices):
    sweep = p_sweep(disk_domain, disk_matrices, [1e-2, 1e-1, 1.0], 3)
    assert abs(sweep.eigenvalues[0, 0] / (1e-2 * sweep.small_p_slope) - 1) < 0.02
    assert sweep.conjecture_c is None
    assert np.allclose(sweep.sqrt_reference(), np.sqrt([1e-2, 1e-1, 1.0]))


def test_p_sweep_polygon_carries_conjecture(square_domain, square_matrices):
    sweep = p_sweep(square_domain, square_matrices, [0.5, 1.0], 4)
    assert np.allclose(sweep.conjecture_c, math.sin(math.pi / 4))


def test_p_sweep_grid_validation(disk_domain, disk_matrices):
    with pytest.raises(AnalysisError):
        p_sweep(disk_domain, disk_matrices, [1.0, 0.5], 2)


def test_csv_writers(tmp_path, disk_domain, disk_mesh, disk_matrices):
    """The one CSV writer prints ints and bools as integers and floats with 17
    significant digits, so every cell reads back exactly."""
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    ak = ak_coefficients(res.spectrum, disk_matrices)
    path = tmp_path / "ak.csv"
    write_csv(path, ["p", "k", "abs_ak", "tracked"],
              ((0.0, k, abs(a), k == 0) for k, a in enumerate(ak)))
    lines = path.read_text().splitlines()
    assert lines[0] == "p,k,abs_ak,tracked"
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2", "3"]
    assert [line.split(",")[3] for line in lines[1:]] == ["1", "0", "0", "0"]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 2], np.abs(ak))
    loc = bk_map(res.spectrum, 3, disk_mesh, disk_domain)
    summary_to_json(tmp_path / "s.json", max_B=loc.max_amplified(), survivors=[0])
    assert (tmp_path / "s.json").exists()


def test_requires_extensions(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 1.0, 3, mesh=disk_mesh, matrices=disk_matrices)
    with pytest.raises(AnalysisError):
        bk_map(res.spectrum, 0, disk_mesh, disk_domain)
    with pytest.raises(AnalysisError):
        uk_profile(res.spectrum, 0, disk_mesh, disk_domain)
    with pytest.raises(AnalysisError):
        ak_via_volume(res.spectrum, disk_matrices)
