import dataclasses
import math

import mpmath
import numpy as np
import pytest

from dtnlab import geometry
from dtnlab import mesh as meshmod
from dtnlab.analysis import (
    GROUP_TOL,
    AnalysisError,
    Localization,
    ak_coefficients,
    ak_via_volume,
    complete_groups,
    concentrate_degenerate_ak,
    localization,
    match_branches,
    norm_identities,
    numerical_groups,
    p_sweep,
    symmetry_audit,
)
from dtnlab import dtn, fem
from dtnlab.conjecture import ConjectureReport, ConjectureRow, EffectiveAngleTrace
from dtnlab.dtn import summary_to_json, write_csv
from dtnlab.pipeline import solve, solve_steklov

import conftest


def test_disk_ak_is_delta(disk_solution, disk_matrices):
    ak = ak_coefficients(disk_solution.spectrum)
    assert abs(ak[0] - 1.0) < 1e-3
    assert np.abs(ak[1:]).max() < 1e-3


def test_p0_ak_is_delta(square_domain, square_mesh, square_matrices):
    res = solve_steklov(square_domain, 0.1, 0.0, 8, mesh=square_mesh, matrices=square_matrices)
    ak = ak_coefficients(res.spectrum)
    assert abs(ak[0] - 1.0) < 1e-3
    assert np.abs(ak[1:]).max() < 1e-3


def test_ak_partial_sums_bounded(square_solution, square_matrices):
    ak = ak_coefficients(square_solution.spectrum)
    sums = np.cumsum(ak**2)
    assert (np.diff(sums) >= 0).all()
    assert sums[-1] <= 1 + 1e-6


def test_ak_volume_route_agrees(square_solution, square_matrices):
    ak_b = ak_coefficients(square_solution.spectrum)
    ak_v = ak_via_volume(square_solution.spectrum, square_matrices)
    assert np.abs(ak_b - ak_v).max() < 1e-3


def test_ak_volume_rejects_p0(square_domain, square_mesh, square_matrices):
    res = solve_steklov(square_domain, 0.1, 0.0, 4, extensions=True,
                        mesh=square_mesh, matrices=square_matrices)
    with pytest.raises(AnalysisError):
        ak_via_volume(res.spectrum, square_matrices)


def test_symmetry_audit_classification():
    # at or below CANCEL_TOL = 1e-3 a coefficient counts as cancelled
    assert symmetry_audit(np.array([0.9, 1e-5, 0.02, -1e-4, 1e-3])) == [0, 2]


def test_numerical_groups_chain():
    mus = np.array([0.0, 1.0, 1.0004, 1.0008, 2.0, 5.0, 5.004])
    groups = numerical_groups(mus, 1e-3)
    assert groups == [[0], [1, 2, 3], [4], [5, 6]]


def test_concentrate_degenerate_ak(disk_solution):
    # disk pairs are numerically degenerate; concentration keeps sum of squares
    ak = ak_coefficients(disk_solution.spectrum)
    conc = concentrate_degenerate_ak(disk_solution.spectrum)
    assert abs(np.sum(conc**2) - np.sum(ak**2)) < 1e-12
    groups = numerical_groups(disk_solution.spectrum.eigenvalues, 1e-3)
    for g in groups:
        if len(g) > 1:
            assert np.all(conc[g[:-1]] == 0.0)


def test_bk_group_max_reduces_to_single_mode(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    # k=0 at p=0 is the isolated constant mode: group of one
    loc = localization(res.spectrum, 0, disk_mesh, disk_domain)
    assert loc.group_max == loc.amplified.max()
    # mode 1 shares its multiplet with mode 2, whose weight only adds
    pair = localization(res.spectrum, 1, disk_mesh, disk_domain)
    assert pair.group_max >= pair.amplified.max()


def test_bk_group_max_rotation_invariant(disk_domain, disk_mesh, disk_matrices):
    # mix the degenerate pair (1, 2) by hand: the group maximum must not move
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    base = localization(res.spectrum, 1, disk_mesh, disk_domain).group_max
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    res.spectrum.vectors[:, 1:3] = res.spectrum.vectors[:, 1:3] @ rot
    res.spectrum.extensions[:, 1:3] = res.spectrum.extensions[:, 1:3] @ rot
    mixed = localization(res.spectrum, 1, disk_mesh, disk_domain).group_max
    assert abs(base - mixed) < 1e-12


def test_bk_group_max_needs_full_group(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    with pytest.raises(AnalysisError):
        localization(res.spectrum, 3, disk_mesh, disk_domain)  # pair split at window end


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
    assert complete_groups(res.spectrum) == [[0], [1, 2]]
    got = localization(res.spectrum, 1, disk_mesh, disk_domain).group_max
    assert abs(got - localization(wide.spectrum, 1, disk_mesh, disk_domain).group_max) < 1e-12


def test_bk_group_max_needs_guard(square_domain):
    """On the coarse 2x2 square at p = 0, modes 1 and 2 are one multiplet, so
    the 2-mode window cuts it; its guard mu_2 chains onto mu_1."""
    msh = meshmod.generate_mesh(square_domain, 0.2)
    cut = solve(fem.assemble(msh), 0.0, 2, extensions=True)[1]
    assert numerical_groups(np.append(cut.eigenvalues, cut.guard), GROUP_TOL)[-1] == [1, 2]
    assert complete_groups(cut) == [[0]]
    with pytest.raises(AnalysisError):
        localization(cut, 1, msh, square_domain)


def test_guard_infinite_for_full_window():
    msh = conftest.four_triangle_square()
    mats = fem.assemble(msh)
    fac = fem.factor_interior(mats, 0.0)
    op = dtn.build_dtn(fac)
    sp = dtn.eigensolve(op, len(fac.data_nodes))
    assert sp.guard == math.inf
    # numerical_groups alone chains an infinite guard (inf - x <= tol * inf)
    assert numerical_groups(np.append(sp.eigenvalues, sp.guard), GROUP_TOL)[-1][-1] == sp.count
    assert complete_groups(sp) == numerical_groups(sp.eigenvalues, GROUP_TOL)
    assert abs(dtn.eigensolve(op, len(fac.data_nodes) - 1).guard - sp.eigenvalues[-1]) < 1e-12


def test_concentrate_leaves_truncated_group(disk_domain, disk_mesh, disk_matrices,
                                           square_matrices):
    res = solve_steklov(disk_domain, 0.05, 1.0, 3, mesh=disk_mesh, matrices=disk_matrices)
    ak = ak_coefficients(res.spectrum)
    # the guard closes the pair (1, 2), so it is concentrated
    conc = concentrate_degenerate_ak(res.spectrum)
    assert conc[1] == 0.0
    assert abs(conc[2] - math.hypot(ak[1], ak[2])) < 1e-15
    # on the square at p = 10, mu_5..mu_7 are one multiplet: the 7-mode window
    # holds two of its members and its guard mu_7 chains onto them
    cut = solve(square_matrices, 10.0, 7)[1]
    assert complete_groups(cut)[-1] == [4]
    assert np.array_equal(concentrate_degenerate_ak(cut)[5:], ak_coefficients(cut)[5:])
    full = solve(square_matrices, 10.0, 8)[1]
    assert complete_groups(full)[-1] == [5, 6, 7]
    assert concentrate_degenerate_ak(full)[5] == 0.0


def test_bk_boundary_values(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    loc = localization(res.spectrum, 2, disk_mesh, disk_domain)
    bidx = disk_mesh.boundary_indices
    expected = math.sqrt(disk_domain.perimeter) * np.abs(res.spectrum.vectors[:, 2])
    assert np.abs(loc.amplified[bidx] - expected).max() < 1e-6
    assert (loc.amplified >= 0).all()


def test_uk_profile_bin_zero(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    prof = localization(res.spectrum, 4, disk_mesh, disk_domain)
    expected = math.sqrt(disk_domain.perimeter) * np.abs(res.spectrum.vectors[:, 4]).max()
    assert abs(prof.profile[0] - expected) < 1e-9
    assert prof.bin_centers[0] == 0.0
    assert (np.diff(prof.bin_centers) > 0).all()


def test_uk_profile_tracks_power_law(disk_domain, disk_mesh, disk_matrices):
    # k=4 at p=0 is the n=2 pair: |V| ~ r^2, so the band max follows
    # sqrt(2)(1-delta)^2 evaluated at the band's inner edge
    res = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    prof = localization(res.spectrum, 4, disk_mesh, disk_domain)
    mid = np.argmin(np.abs(prof.bin_centers - 0.4))
    c, hw = prof.bin_centers[mid], disk_mesh.h_max  # the default band is 2 h_max wide
    upper = math.sqrt(2) * (1 - (c - hw)) ** 2 + 0.03
    lower = math.sqrt(2) * (1 - (c + hw)) ** 2 - 0.03
    assert lower <= prof.profile[mid] <= upper


def test_uk_profile_matches_a_loop_over_every_band(disk_domain, disk_mesh, disk_matrices):
    """Reducing over the occupied bands gives the centers and maxima of a plain
    loop over every band from 0 to dist.max() / w, bit for bit."""
    res = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    v = np.abs(res.spectrum.extensions[:, 4])
    dist = disk_domain.distance_to_boundary(disk_mesh.nodes)
    for w in (2.0 * disk_mesh.h_max, 0.037, 1e-3):
        prof = localization(res.spectrum, 4, disk_mesh, disk_domain, bin_width=w)
        idx = (dist / w).astype(int)
        centers, values = [], []
        for b in range(idx.max() + 1):
            if (idx == b).any():
                centers.append(b * w + w / 2)
                values.append(math.sqrt(disk_domain.perimeter) * v[idx == b].max())
        centers[0] = 0.0
        assert np.array_equal(prof.bin_centers, centers)
        assert np.array_equal(prof.profile, values)


def test_uk_profile_rejects_a_band_count_past_int64(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 0.0, 5, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    with pytest.raises(AnalysisError, match="int64"):
        localization(res.spectrum, 4, disk_mesh, disk_domain, bin_width=1e-320)


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


def test_match_branches_identity(disk_solution):
    idx = match_branches(disk_solution.spectrum, disk_solution.spectrum)
    assert np.array_equal(idx, np.arange(disk_solution.spectrum.count))


def test_p_sweep_small_p_asymptote(disk_domain, disk_matrices):
    # mu_0(p) ~ p |Omega| / |dOmega| as p -> 0
    eigenvalues = p_sweep(disk_matrices, [1e-2, 1e-1, 1.0], 3)
    slope = disk_domain.area / disk_domain.perimeter
    assert abs(eigenvalues[0, 0] / (1e-2 * slope) - 1) < 0.02


def test_p_sweep_rows_are_solve_spectra(square_matrices):
    grid = [0.5, 1.0]
    eigenvalues = p_sweep(square_matrices, grid, 4)
    assert eigenvalues.shape == (2, 4)
    for p, row in zip(grid, eigenvalues):
        assert np.array_equal(row, solve(square_matrices, p, 4)[1].eigenvalues)


def test_p_sweep_grid_validation(disk_matrices):
    with pytest.raises(AnalysisError):
        p_sweep(disk_matrices, [1.0, 0.5], 2)


def test_csv_writers(tmp_path, disk_domain, disk_mesh, disk_matrices):
    """The one CSV writer prints ints and bools as integers and floats with 17
    significant digits, so every cell reads back exactly."""
    res = solve_steklov(disk_domain, 0.05, 0.0, 4, extensions=True,
                        mesh=disk_mesh, matrices=disk_matrices)
    ak = ak_coefficients(res.spectrum)
    path = tmp_path / "ak.csv"
    write_csv(path, ["p", "k", "abs_ak", "tracked"],
              ((0.0, k, abs(a), k == 0) for k, a in enumerate(ak)))
    lines = path.read_text().splitlines()
    assert lines[0] == "p,k,abs_ak,tracked"
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2", "3"]
    assert [line.split(",")[3] for line in lines[1:]] == ["1", "0", "0", "0"]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 2], np.abs(ak))
    loc = localization(res.spectrum, 2, disk_mesh, disk_domain)
    summary_to_json(tmp_path / "s.json", max_B=loc.group_max, survivors=[0])
    assert (tmp_path / "s.json").exists()


def test_requires_extensions(disk_domain, disk_mesh, disk_matrices):
    res = solve_steklov(disk_domain, 0.05, 1.0, 3, mesh=disk_mesh, matrices=disk_matrices)
    with pytest.raises(AnalysisError):
        localization(res.spectrum, 0, disk_mesh, disk_domain)
    with pytest.raises(AnalysisError):
        ak_via_volume(res.spectrum, disk_matrices)


@pytest.mark.parametrize("record, name", [
    (record, f.name)
    for record in (Localization, EffectiveAngleTrace, ConjectureRow, ConjectureReport)
    for f in dataclasses.fields(record)
])
def test_analysis_records_are_frozen(record, name):
    value = record(**{f.name: None for f in dataclasses.fields(record)})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, None)
