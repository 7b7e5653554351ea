import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtnlab import geometry
from dtnlab.analytic import (
    AnalyticError,
    AxisFactor,
    DiskOracle,
    RectangleOracle,
    asymptote_small_p,
    bessel_i,
    bessel_i_scaled,
    bessel_ratio_deriv,
    disk_spectrum,
    rectangle_eigenfunction,
    rectangle_spectrum,
)
from dtnlab.pipeline import solve_steklov

mpmath.mp.dps = 30

# frozen reference values (4-decimal tables, checked against mpmath below)
DISK_P1_FIRST11 = [0.4464, 1.2402, 1.2402, 2.1633, 2.1633,
                   3.1235, 3.1235, 4.0992, 4.0992, 5.0828, 5.0828]
RECT_1x2_P1_FIRST11 = [0.3105, 0.7511, 1.6451, 1.7342, 2.2304,
                       2.9051, 3.9156, 4.1665, 4.7951, 4.7961, 5.5419]


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------

def test_bessel_at_zero():
    assert bessel_i(0, 0.0) == (1.0, 0.0)
    for n in (1, 2, 7):
        val, deriv = bessel_i(n, 0.0)
        assert val == 0.0
        assert deriv == (0.5 if n == 1 else 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 20, 30])
@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 5.0, 11.9, 12.1, 50.0, 200.0, 600.0])
def test_bessel_against_mpmath(n, x):
    val, deriv = bessel_i(n, x)
    ref = float(mpmath.besseli(n, x))
    ref_d = float(mpmath.besseli(n - 1, x) + mpmath.besseli(n + 1, x)) / 2 if n else float(
        mpmath.besseli(1, x)
    )
    assert abs(val - ref) <= 1e-12 * abs(ref)
    assert abs(deriv - ref_d) <= 1e-12 * abs(ref_d)


@pytest.mark.parametrize("x", [800.0, 1000.0])
def test_bessel_scaled_beyond_overflow(x):
    vals = bessel_i_scaled(5, x)
    for n in range(6):
        ref = float(mpmath.besseli(n, x) * mpmath.exp(-x))
        assert abs(vals[n] - ref) <= 1e-12 * abs(ref)


def test_bessel_overflow_guard():
    with pytest.raises(AnalyticError):
        bessel_i(0, 720.0)


def test_ratio_values_from_tables():
    assert abs(bessel_i(1, 1.0)[0] / bessel_i(0, 1.0)[0] - 0.4464) < 5e-5
    i1, i1p = bessel_i(1, 1.0)
    assert abs(i1p / i1 - 1.2402) < 5e-5


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10), x=st.floats(0.05, 30.0))
def test_wronskian_type_sign(n, x):
    in_, inp = bessel_i(n, x)
    in1, in1p = bessel_i(n + 1, x)
    assert in_ * in1p - inp * in1 > 0.0


# ---------------------------------------------------------------------------
# disk spectrum
# ---------------------------------------------------------------------------

def test_disk_spectrum_matches_reference_table():
    mus = [e.mu for e in disk_spectrum(1.0, 1.0, 11)]
    assert np.allclose(mus, DISK_P1_FIRST11, atol=5e-5)


def test_disk_spectrum_p0_is_integer_ladder():
    mus = [e.mu for e in disk_spectrum(1.0, 0.0, 11)]
    assert np.allclose(mus, [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5], atol=1e-14)


def test_disk_degeneracy_structure():
    pairs = disk_spectrum(1.0, 1.0, 11)
    assert pairs[0].kind == "const"
    for a, b in zip(pairs[1::2], pairs[2::2]):
        assert a.order == b.order
        assert a.mu == b.mu
        assert {a.kind, b.kind} == {"cos", "sin"}


def test_disk_large_p_ratio_approaches_one():
    p = 1e6
    for k, e in enumerate(disk_spectrum(1.0, p, 11)):
        if k == 0 or True:
            assert abs(e.mu / math.sqrt(p) - 1.0) < 1e-2


def test_disk_radial_profile_normalization():
    e = disk_spectrum(1.0, 1.0, 1)[0]
    assert abs(e.radial(np.array([1.0]))[0] - 1.0) < 1e-14
    assert e.radial(np.array([0.5]))[0] < 1.0


# ---------------------------------------------------------------------------
# rectangle spectrum
# ---------------------------------------------------------------------------

def test_rectangle_reference_eigenvalues():
    mus = [e.mu for e in rectangle_spectrum(1.0, 2.0, 1.0, 11)]
    assert np.allclose(mus, RECT_1x2_P1_FIRST11, atol=1e-4)


def test_rectangle_residuals_small():
    for e in rectangle_spectrum(1.0, 2.0, 1.0, 11):
        assert e.residual <= 1e-10


def test_square_corner_modes_at_large_p():
    """At p = 100 the four lowest modes of the 2x2 square have both axis
    factors real, one per branch pair, near sqrt(p/2); the oracle finds all
    four and agrees with a FEM solve to the benchmark's rectangle bound."""
    p, count = 100.0, 12
    pairs = rectangle_spectrum(2.0, 2.0, p, count)
    corner = pairs[:4]
    assert all(not any(f.imaginary for f in e.factors) for e in corner)
    assert {tuple(f.branch for f in e.factors) for e in corner} == {
        (bx, by) for bx in ("plus", "minus") for by in ("plus", "minus")
    }
    for e in corner:
        assert e.residual <= 1e-10
        assert abs(e.mu - math.sqrt(p / 2)) < 1e-4
    exact = np.array([e.mu for e in pairs])
    fem = solve_steklov(geometry.RectangleSpec(2.0, 2.0), 0.04, p, count).spectrum.eigenvalues
    assert np.max(np.abs(fem - exact) / exact) <= 7e-3


def test_rectangle_p0_constant_mode_first():
    pairs = rectangle_spectrum(1.0, 2.0, 0.0, 8)
    assert pairs[0].kind == "constant"
    assert pairs[0].mu == 0.0


def test_square_p0_kappa_equations():
    """Every separable root at p=0 on the square satisfies one of
    tan k = tanh k, -ctanh k, ctanh k, -tanh k with k = alpha_1 / 2."""
    pairs = rectangle_spectrum(2.0, 2.0, 0.0, 12)
    seen_xy = False
    for e in pairs:
        if e.kind == "constant":
            continue
        if e.kind == "corner_xy":
            seen_xy = True
            assert abs(e.mu - 1.0) < 1e-14
            continue
        real = [f for f in e.factors if not f.imaginary][0]
        kappa = real.alpha / 2
        t = math.tan(kappa)
        candidates = [math.tanh(kappa), -1 / math.tanh(kappa),
                      1 / math.tanh(kappa), -math.tanh(kappa)]
        assert min(abs(t - c) for c in candidates) < 1e-9
    assert seen_xy


def test_square_p0_known_low_spectrum():
    mus = [e.mu for e in rectangle_spectrum(2.0, 2.0, 0.0, 8)]
    # 0, degenerate pair, the corner xy mode at 1, then the next pairs
    assert abs(mus[0]) < 1e-14
    assert abs(mus[1] - 0.688253) < 1e-5
    assert abs(mus[2] - 0.688253) < 1e-5
    assert abs(mus[3] - 1.0) < 1e-14
    assert abs(mus[4] - 2.323637) < 1e-5


def test_rectangle_imaginary_roots_in_expected_intervals():
    for e in rectangle_spectrum(1.0, 2.0, 1.0, 25):
        if e.kind != "separable":
            continue
        real = [f for f in e.factors if not f.imaginary]
        imag = [f for f in e.factors if f.imaginary]
        if not imag:
            continue
        frac = imag[0].alpha % math.pi
        assert abs(frac - math.pi / 2) > 1e-9  # never at the tan pole
        if real and real[0].branch == "plus":
            # the ctanh-branch equation has positive right-hand side, which
            # confines its roots to (k pi, k pi + pi/2)
            assert frac < math.pi / 2


def test_rectangle_count_expansion():
    mus = [e.mu for e in rectangle_spectrum(1.0, 2.0, 1.0, 40)]
    assert len(mus) == 40
    assert all(a <= b + 1e-12 for a, b in zip(mus, mus[1:]))


def test_axis_factor_symmetry():
    b = 1.0
    alpha = 3.0
    plus = AxisFactor(alpha, False, "plus")    # ctanh branch, antisymmetric
    minus = AxisFactor(alpha, False, "minus")  # tanh branch, symmetric
    mu_p = (alpha / b) / math.tanh(alpha / 2)
    mu_m = (alpha / b) * math.tanh(alpha / 2)
    xs = np.linspace(0.0, b, 7)
    up = plus.evaluate(xs, b, mu_p)
    um = minus.evaluate(xs, b, mu_m)
    assert np.allclose(up, -plus.evaluate(b - xs, b, mu_p), atol=1e-12)
    assert np.allclose(um, minus.evaluate(b - xs, b, mu_m), atol=1e-12)


def test_axis_factor_exponential_form_matches_cosh_sinh():
    b, alpha = 1.5, 2.5
    for branch, mu in (
        ("plus", (alpha / b) / math.tanh(alpha / 2)),
        ("minus", (alpha / b) * math.tanh(alpha / 2)),
    ):
        f = AxisFactor(alpha, False, branch)
        xs = np.linspace(0, b, 9)
        direct = alpha * np.cosh(alpha * xs / b) - mu * b * np.sinh(alpha * xs / b)
        assert np.allclose(f.evaluate(xs, b, mu), direct, atol=1e-9)


def test_boundary_layer_decay_bound():
    # high root at p=0: |u_1(x)| <= C exp(-mu * delta_1)
    pairs = [e for e in rectangle_spectrum(1.0, 2.0, 0.0, 30) if e.kind == "separable"]
    e = pairs[-1]
    real = [f for f in e.factors if not f.imaginary][0]
    b = e.b1 if e.factors[0] is real else e.b2
    xs = np.linspace(0, b, 50)
    vals = np.abs(real.evaluate(xs, b, e.mu))
    delta = np.minimum(xs, b - xs)
    bound = 2.2 * real.alpha * np.exp(-e.mu * delta)
    assert (vals <= bound + 1e-12).all()


def test_rectangle_eigenfunction_wrapper():
    e = rectangle_spectrum(1.0, 2.0, 1.0, 2)[0]
    v = rectangle_eigenfunction(e, np.array([0.5, 1.0]))
    assert np.isfinite(v)


def test_oracle_shapes():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0]])
    assert RectangleOracle(1.0, 2.0, 1.0).trace_matrix(pts, 5).shape == (3, 5)
    circ = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert DiskOracle(1.0, 1.0).trace_matrix(circ, 4).shape == (2, 4)


def test_invalid_arguments():
    with pytest.raises(AnalyticError):
        disk_spectrum(-1.0, 1.0, 3)
    with pytest.raises(AnalyticError):
        disk_spectrum(1.0, -0.5, 3)
    with pytest.raises(AnalyticError):
        rectangle_spectrum(0.0, 1.0, 1.0, 3)


# ---------------------------------------------------------------------------
# small-p asymptote
# ---------------------------------------------------------------------------

def test_asymptote_small_p_values():
    disk = geometry.build_domain(geometry.DiskSpec(1.0))
    assert abs(asymptote_small_p(disk) - 0.5) < 1e-12
    square = geometry.build_domain(geometry.RectangleSpec(2.0, 2.0))
    assert abs(asymptote_small_p(square) - 0.5) < 1e-12
    koch1 = geometry.build_domain(geometry.KochSpec(1, 2.0))
    # exact closed form: area (4/3) sqrt(3), perimeter 8
    assert abs(asymptote_small_p(koch1) - math.sqrt(3) / 6) < 1e-12
