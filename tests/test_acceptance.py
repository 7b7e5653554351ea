"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (collected and echoed in the terminal summary).

Criterion 9's ellipse clause classifies modes by reflection parity: the
even-even mode sits at index 2 for p <= 1 and at index 3 past the crossing
near p ~ 2 (see that test's docstring for the independent evidence).
"""
import math
import time

import numpy as np
import pytest

from dtnlab import analysis, analytic, conjecture, dtn, fem, geometry, greens
from dtnlab import mesh as meshmod
from dtnlab.pipeline import solve_steklov

import conftest

PI = math.pi

# frozen reference values, checked against high-precision evaluation in
# tests/test_analytic.py
DISK_EXACT = np.array([0.4464, 1.2402, 1.2402, 2.1633, 2.1633,
                       3.1235, 3.1235, 4.0992, 4.0992, 5.0828, 5.0828])
RECT_EXACT = np.array([0.3105, 0.7511, 1.6451, 1.7342, 2.2304,
                       2.9051, 3.9156, 4.1665, 4.7951, 4.7961, 5.5419])
# published measured prefactors for the sharp triangle and their predicted values
TRI_NUMERIC = np.array([0.1305, 0.3833, 0.45999, 0.6104, 0.7935,
                        0.7957, 0.9260, 0.9925, 1.0020])
TRI_CONJ = np.array([0.1305, 0.3827, 0.5, 0.6088, 0.7934,
                     0.7934, 0.9239, 0.9914, 1.0])


def report(num, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def disk_fine():
    t0 = time.perf_counter()
    res = solve_steklov(geometry.DiskSpec(1.0), h=0.01, p=1.0, count=11)
    elapsed = time.perf_counter() - t0
    return res, elapsed


@pytest.fixture(scope="module")
def disk_coarse_matrices():
    domain = geometry.build_domain(geometry.DiskSpec(1.0))
    msh = meshmod.generate_mesh(domain, 0.022)
    return fem.assemble(msh)


@pytest.fixture(scope="module")
def square_mesh_fine():
    domain = geometry.build_domain(geometry.RectangleSpec(2.0, 2.0))
    msh = meshmod.generate_mesh(domain, 0.015)
    return domain, msh, fem.assemble(msh)


def test_criterion_1_disk_eigenvalues(disk_fine):
    res, elapsed = disk_fine
    err = np.abs(res.spectrum.eigenvalues - DISK_EXACT).max()
    report(
        1,
        err <= 5e-3 and elapsed <= 180.0,
        f"disk p=1 h=0.01 first 11 eigenvalues, max |err| = {err:.2e} "
        f"(tol 5e-3), runtime {elapsed:.0f}s (limit 180s)",
    )


def test_criterion_2_disk_eigenfunctions(disk_fine):
    res, _ = disk_fine
    bpts = res.mesh.nodes[res.mesh.boundary_indices]
    rmse = dtn.eigenfunction_rmse(res.spectrum, analytic.DiskOracle(1.0, 1.0), bpts)
    report(
        2,
        rmse.max() <= 5e-3,
        f"disk boundary eigenfunction RMSE, max over k<=10: {rmse.max():.2e} (tol 5e-3)",
    )


def test_criterion_3_rectangle_cross_validation():
    pairs = analytic.rectangle_spectrum(1.0, 2.0, 1.0, 11)
    roots = np.array([e.mu for e in pairs])
    table_err = np.abs(roots - RECT_EXACT).max()
    resid = max(e.residual for e in pairs)
    res = solve_steklov(geometry.RectangleSpec(1.0, 2.0), h=0.01, p=1.0, count=11)
    fem_err = np.abs(res.spectrum.eigenvalues - roots).max()
    report(
        3,
        table_err <= 1e-4 and resid <= 1e-10 and fem_err <= 5e-3,
        f"rect 1x2 p=1: root table err {table_err:.1e} (tol 1e-4), residual "
        f"{resid:.1e} (tol 1e-10), FEM vs roots {fem_err:.2e} (tol 5e-3)",
    )


def test_criterion_4_green_vs_schur(disk_fine, disk_coarse_matrices):
    res, _ = disk_fine
    mats = disk_coarse_matrices
    basis0 = greens.robin_eigenbasis(mats, 0.0, 131)
    basis_q = greens.robin_eigenbasis(mats, 1.0, 131)
    spec = greens.dtn_spectrum_via_green(mats, 1.0, 1.0, 131, 7, basis0, basis_q)
    drift = np.abs(spec.eigenvalues - res.spectrum.eigenvalues[:7]).max()
    report(
        4,
        drift <= 5e-3,
        f"green route (m=131, q=1, coarse mesh) vs schur route, max |diff| "
        f"k<=6: {drift:.2e} (tol 5e-3)",
    )


def test_criterion_5_corner_asymptotics():
    t0 = time.perf_counter()
    tri = geometry.build_domain(geometry.TriangleSpec(2.0, PI / 12, PI / 3))
    res = solve_steklov(tri, h=0.003, p=1e3, count=9)
    ck = res.spectrum.eigenvalues / math.sqrt(1e3)
    # rows where the published measurement itself sits >= 4e-2 from the
    # prediction get the widened 5e-2 tolerance
    tol = np.where(np.abs(TRI_CONJ - TRI_NUMERIC) >= 4e-2, 5e-2, 2e-2)
    tri_diff = np.abs(ck - TRI_NUMERIC)
    tri_ok = bool((tri_diff <= tol).all())

    octa = geometry.build_domain(
        geometry.PolygonSpec(tuple(map(tuple, geometry.reflex_octagon_vertices())))
    )
    octa_mu = solve_steklov(octa, h=0.005, p=1e3, count=18).spectrum.eigenvalues
    rep = conjecture.compare_conjecture(octa, 1e3, octa_mu)
    oct_ok = rep.max_abs_diff() <= 1e-2
    elapsed = time.perf_counter() - t0
    report(
        5,
        tri_ok and oct_ok and elapsed <= 1800.0,
        f"sharp triangle h=0.003: max |ck - published| = {tri_diff.max():.3f} "
        f"(widened tol only where published deviates >= 4e-2); reflex octagon "
        f"h=0.005: max |conjecture - numeric| = {rep.max_abs_diff():.4f} "
        f"(tol 1e-2); runtime {elapsed:.0f}s (limit 1800s)",
    )


def test_criterion_6_regular_polygons():
    details = []
    ok = True
    for n in (3, 4, 5, 6, 8):
        dom = geometry.build_domain(geometry.RegularPolygonSpec(n, 1.0))
        res = solve_steklov(dom, h=0.01, p=1e3, count=1)
        c0 = res.spectrum.eigenvalues[0] / math.sqrt(1e3)
        pred = math.sin(PI * (1 - 2 / n) / 2)
        ok &= abs(c0 - pred) <= 2e-2
        details.append(f"N={n}: {c0:.4f} vs sin(angle/2)={pred:.4f}")
        if n == 4:
            # the two candidate values in circulation: sin(pi/4)=0.7071 and
            # the 0.51 sometimes quoted; the measurement decides for 0.7071
            details.append(
                f"[square resolution: measured {c0:.4f}; |c0-0.7071|="
                f"{abs(c0 - math.sin(PI / 4)):.4f}, |c0-0.51|={abs(c0 - 0.51):.4f}]"
            )
    report(6, ok, "regular polygon prefactors at p=1e3 (tol 2e-2): " + "; ".join(details))


def test_criterion_7_koch_counts():
    ok = True
    details = []
    for g, expected in ((0, 3), (1, 6)):
        dom = geometry.build_domain(geometry.KochSpec(g, 2.0))
        res = solve_steklov(dom, h=0.01, p=1e3, count=12)
        ck = res.spectrum.eigenvalues / math.sqrt(1e3)
        below = int(np.sum(ck < 0.75))
        rest_above = bool((ck[ck >= 0.75] > 0.9).all())
        ok &= below == expected and rest_above
        details.append(f"g={g}: {below} ratios < 0.75 (expect {expected}), rest > 0.9")
    report(7, ok, "; ".join(details))


def test_criterion_8_small_p_asymptote():
    ok = True
    details = []
    for spec in (geometry.DiskSpec(1.0), geometry.RectangleSpec(2.0, 2.0),
                 geometry.KochSpec(1, 2.0)):
        dom = geometry.build_domain(spec)
        res = solve_steklov(dom, h=0.02, p=1e-2, count=1)
        ratio = res.spectrum.eigenvalues[0] / (1e-2 * dom.area / dom.perimeter)
        ok &= 0.95 <= ratio <= 1.05
        details.append(f"{type(spec).__name__}: {ratio:.4f}")
    report(8, ok, "mu_0 / (p |area|/|perimeter|) at p=1e-2 in [0.95, 1.05]: " + "; ".join(details))


def test_criterion_9_square_symmetry(square_mesh_fine):
    domain, msh, mats = square_mesh_fine
    ok = True
    details = []
    for p in (0.1, 1.0, 10.0):
        res = solve_steklov(domain, 0.015, p, 25, mesh=msh, matrices=mats)
        # coefficients within numerically degenerate multiplets are defined
        # only up to rotation; concentrate each group before classifying
        ak = analysis.concentrate_degenerate_ak(res.spectrum)[:21]
        survivors = analysis.symmetry_audit(ak)
        extra = set(survivors) - {0, 5, 15}
        others = np.delete(np.abs(ak), survivors)
        ok &= not extra and others.max() <= 1e-3
        details.append(f"p={p}: survivors={survivors}")
    report(9, ok, "square survivors subset of {0,5,15}, others <= 1e-3: " + "; ".join(details))


def _reflection_parities(spectrum, nodes):
    """Parity of each boundary eigenvector under x -> -x (row 0) and y -> -y
    (row 1): its correlation with itself read at the mirrored node positions.
    The vector is interpolated along the boundary in the polar angle, which
    parametrizes the boundary of a domain star-shaped about the origin."""
    xy = nodes[spectrum.steklov_nodes]
    theta = np.arctan2(xy[:, 1], xy[:, 0])
    order = np.argsort(theta)
    v = spectrum.vectors
    rows = []
    for mirrored in (PI - theta, -theta):
        vr = np.column_stack([
            np.interp(mirrored, theta[order], v[order, k], period=2 * PI)
            for k in range(spectrum.count)
        ])
        rows.append(np.sum(v * vr, axis=0) / np.sum(v * v, axis=0))
    return np.array(rows)


def test_criterion_9_ellipse_symmetry():
    """Only the fully symmetric (even-even) class of the ellipse survives.

    Each mode is classified by its parity under both axis reflections, and
    every coefficient outside the even-even class must cancel. Where that
    class sits in the ascending order depends on p: the even-even mode and
    the first mode that is odd in y (even in x) cross near p ~ 2, so the
    even-even indices among k <= 12 are {0, 2, 7, 11} at p = 0.1 and 1, and
    {0, 3, 7, 11} at p = 10.

    Independent evidence for the crossing: a mesh-free Trefftz-Ritz solve on
    the exact boundary, with the bases I_n(sqrt(p) r) cos(n theta), n even
    (even-even), and I_n(sqrt(p) r) sin(n theta), n odd (odd in y), gives

        p      even-even   odd in y
        0.1    2.18512     2.20597
        1      2.32242     2.33306
        2      2.47122     2.47083
        10     3.53651     3.46372

    and a harmonic-polynomial Ritz at p = 0 gives 2.16966 < 2.19167. The FEM
    values of modes 2 and 3 match these to <= 3e-4, far below the 0.011-0.021
    gap between them at p <= 1."""
    domain = geometry.build_domain(geometry.EllipseSpec(1.0, 0.5))
    msh = meshmod.generate_mesh(domain, 0.015)
    mats = fem.assemble(msh)
    expected = {0.1: [0, 2, 7, 11], 1.0: [0, 2, 7, 11], 10.0: [0, 3, 7, 11]}
    ok = True
    details = []
    for p in (0.1, 1.0, 10.0):
        res = solve_steklov(domain, 0.015, p, 13, mesh=msh, matrices=mats)
        ak = analysis.concentrate_degenerate_ak(res.spectrum)
        survivors = analysis.symmetry_audit(ak)
        parity = _reflection_parities(res.spectrum, msh.nodes)
        parity_dev = float(np.abs(np.abs(parity) - 1.0).max())
        even_even = np.flatnonzero((parity > 0).all(axis=0)).tolist()
        off_class = float(np.delete(np.abs(ak), even_even).max())
        ok &= (
            parity_dev <= 1e-2
            and even_even == expected[p]
            and set(survivors) <= set(even_even)
            and off_class <= 1e-3
        )
        details.append(
            f"p={p}: even-even={even_even}, survivors={survivors}, "
            f"max |A_k| off class {off_class:.1e}, parity deviation {parity_dev:.0e}"
        )
    report(
        9,
        ok,
        "ellipse survivors within the even-even class ({0,2,7,11} at p<=1, "
        "{0,3,7,11} at p=10), others <= 1e-3: " + "; ".join(details),
    )


def test_criterion_9_generic_triangle():
    # realization with the length-2 side between the pi/12 and 7pi/12 corners
    # (the published p=4 phenomenology pins this scale; see decisions ledger)
    dom = geometry.build_domain(geometry.TriangleSpec(2.0, PI / 12, 7 * PI / 12))
    msh = meshmod.generate_mesh(dom, 0.01)
    mats = fem.assemble(msh)
    res4 = solve_steklov(dom, 0.01, 4.0, 21, mesh=msh, matrices=mats)
    ak4 = np.abs(analysis.ak_coefficients(res4.spectrum))
    res10 = solve_steklov(dom, 0.01, 10.0, 21, mesh=msh, matrices=mats)
    ak10 = np.abs(analysis.ak_coefficients(res10.spectrum))
    n_big = int(np.sum(ak4 > 1e-2))
    ok = n_big >= 5 and ak4[1] > ak4[0] and ak10[1] > ak10[0]
    report(
        9,
        ok,
        f"generic triangle: {n_big} coefficients > 1e-2 at p=4 (need >=5); "
        f"A_1 > A_0 at p=4: {ak4[1]:.3f} vs {ak4[0]:.3f}; at p=10: "
        f"{ak10[1]:.3f} vs {ak10[0]:.3f}",
    )


@pytest.mark.parametrize("spec,label", [
    (geometry.DiskSpec(1.0), "disk"),
    (geometry.RectangleSpec(2.0, 2.0), "square"),
])
def test_criterion_10_norm_identities(spec, label):
    domain = geometry.build_domain(spec)
    msh = meshmod.generate_mesh(domain, 0.02)
    mats = fem.assemble(msh)
    rows = analysis.norm_identities(mats, p=1.0, count=11, dp=0.01)
    e_max = max(r["energy_residual_rel"] for r in rows)
    l2_max = max(r["l2_residual_rel"] for r in rows)
    g_max = max(r["grad_residual_rel"] for r in rows)
    tracked = all(r["tracked"] for r in rows)
    report(
        10,
        e_max <= 1e-8 and l2_max <= 1e-2 and g_max <= 1e-2 and tracked,
        f"{label} p=1 k<=10: energy residual {e_max:.1e} (tol 1e-8), "
        f"volume-norm identity {l2_max:.1e}, gradient identity {g_max:.1e} (tol 1e-2)",
    )


def test_criterion_11_square_amplified_map():
    domain = geometry.build_domain(geometry.RectangleSpec(2.0, 2.0))
    res = solve_steklov(domain, 0.0075, 0.0, 17, extensions=True)
    b15 = analysis.localization(res.spectrum, 15, res.mesh, domain).group_max
    report(
        11,
        4.8 <= b15 <= 6.4,
        f"square k=15 p=0: max amplified value {b15:.2f} in [4.8, 6.4] "
        f"(maximized over the numerically degenerate multiplet)",
    )


def test_criterion_11_pentagon_amplified_map():
    domain = geometry.build_domain(geometry.RegularPolygonSpec(5, 1.0))
    res = solve_steklov(domain, 0.0075, 0.0, 17, extensions=True)
    b15 = analysis.localization(res.spectrum, 15, res.mesh, domain).group_max
    report(11, 2.2 <= b15 <= 3.0, f"pentagon k=15 p=0: max amplified value {b15:.2f} in [2.2, 3.0]")


def test_criterion_11_disk_profile():
    domain = geometry.build_domain(geometry.DiskSpec(1.0))
    res = solve_steklov(domain, 0.01, 0.0, 21, extensions=True)
    prof = analysis.localization(res.spectrum, 20, res.mesh, domain)
    mask = prof.profile >= 1e-3
    guide = math.sqrt(2) * np.exp(-10.0 * prof.bin_centers[mask])
    value_ok = bool((prof.profile[mask] <= 1.5 * guide).all())
    pos = prof.bin_centers[mask] > 0
    rate = np.log(math.sqrt(2) / prof.profile[mask][pos]) / (10.0 * prof.bin_centers[mask][pos])
    rate_ok = bool((rate <= 1.5).all() and (rate >= 1 / 1.5 - 1e-9).all())
    report(
        11,
        value_ok and rate_ok,
        f"disk k=20 p=0 decay profile down to U=1e-3: below 1.5x the sqrt(2)exp(-10 d) "
        f"guide and decay-rate factor in [1/1.5, 1.5] (max {rate.max():.3f})",
    )


def test_criterion_11_deformed_disk_slowdown():
    domain = geometry.build_domain(geometry.DeformedDiskSpec(0.02, 5))
    res = solve_steklov(domain, 0.0075, 0.0, 21, extensions=True)
    prof = analysis.localization(res.spectrum, 20, res.mesh, domain)
    guide = prof.profile[0] * np.exp(-prof.mu * prof.bin_centers)
    inradius = 0.98
    sel = prof.bin_centers > 0.5 * inradius
    ratio = (prof.profile / guide)[sel]
    report(
        11,
        ratio.max() > 3.0,
        f"deformed disk (amplitude 0.02, mode 5) k=20: profile/guide reaches "
        f"{ratio.max():.1f} beyond half the inradius (need > 3)",
    )


def test_criterion_12_property_roll_up():
    domain = geometry.build_domain(geometry.DiskSpec(1.0))
    msh = meshmod.generate_mesh(domain, 0.05)
    mats = fem.assemble(msh)
    checks = {}

    ones = np.ones(mats.n_nodes)
    checks["stiffness row sums"] = np.abs(mats.stiffness @ ones).max() < 1e-12
    checks["mass total = area"] = abs(mats.mass.sum() - msh.signed_areas().sum()) < 1e-12
    pa = msh.nodes[msh.boundary_edges[:, 0]]
    pb = msh.nodes[msh.boundary_edges[:, 1]]
    checks["boundary mass total = perimeter"] = (
        abs(mats.boundary_mass.sum() - np.hypot(*(pb - pa).T).sum()) < 1e-12
    )

    r1 = solve_steklov(domain, 0.05, 1.0, 8, mesh=msh, matrices=mats)
    r2 = solve_steklov(domain, 0.05, 3.0, 8, mesh=msh, matrices=mats)
    checks["eigenvalue monotonicity in p"] = bool(
        (r1.spectrum.eigenvalues <= r2.spectrum.eigenvalues + 1e-8).all()
    )

    gram = r1.spectrum.vectors.T @ (mats.boundary_mass @ r1.spectrum.vectors)
    checks["boundary-mass orthonormality"] = (
        np.abs(gram - np.eye(r1.spectrum.count)).max() < 1e-8
    )

    ak = analysis.ak_coefficients(r1.spectrum)
    checks["sum |A_k|^2 <= 1"] = float(np.sum(ak**2)) <= 1 + 1e-6

    again_mesh = meshmod.generate_mesh(domain, 0.05)
    again = solve_steklov(domain, 0.05, 1.0, 8, mesh=again_mesh)
    fmt = lambda sp: "".join(f"{mu:.17g}\n" for mu in sp.eigenvalues)
    checks["determinism of repeated runs"] = (
        np.array_equal(again_mesh.nodes, msh.nodes)
        and fmt(again.spectrum) == fmt(r1.spectrum)
    )

    failed = [k for k, v in checks.items() if not v]
    report(12, not failed, "always-on properties: " + (
        "all hold (" + ", ".join(checks) + ")" if not failed else "FAILED: " + ", ".join(failed)
    ))
