"""Named form families, coefficient functions, and symbolic identities."""

import math
from fractions import Fraction

import pytest

from lawcheck import trig
from lawcheck.algebra import Form
from lawcheck.chern import (
    _integral_tcs,
    _power_tcs,
    boundary_family,
    boundary_form,
    build_gamma_and_check,
    build_phi,
    build_upsilon_and_check,
    check_boundary_closure,
    check_dphi,
    coefficient,
    double_factorial,
    perm_sign,
    polar_coordinates,
    polar_substitute,
    region_d1,
    region_sum,
    rotate_frame,
    specialize_boundary,
)
from lawcheck.trig import TrigScalar, sphere_volume

from test_trig import monomial


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 4, 5)] == [1, 1, 1, 2, 3, 8, 15]
    # the normalization identity behind the fiber volume form
    for n in range(2, 8):
        assert math.factorial(n - 1) == double_factorial(n - 1) * double_factorial(n - 2)


# -- construction -------------------------------------------------------------

def test_phi0_n2_by_enumeration():
    # independent oracle: enumerate both permutations of {1, 2} directly
    n = 2
    expected = Form.zero(n)
    for perm, sign in (((1, 2), 1), ((2, 1), -1)):
        expected = expected + (Form.coordinate(n, perm[0]) * Form.theta(n, perm[1])).scale(sign)
    assert build_phi(2).phi_k[0] == expected
    assert expected.render() == "(1)*u1*th2 + (-1)*u2*th1"


@pytest.mark.parametrize("n", [3, 5])
def test_euler_form_zero_odd(n):
    assert build_phi(n).euler.is_zero


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degrees(n):
    fam = build_phi(n)
    assert fam.phi.degrees() == [n - 1]
    if n % 2 == 0:
        assert fam.euler.degrees() == [n]


def test_build_phi_range_errors():
    with pytest.raises(ValueError):
        build_phi(1)
    with pytest.raises(ValueError):
        build_phi(6)


def test_phi_tilde_zero_normalization():
    # the 0-th normalized term carries 1/((n-2)!! c_{n-1} (n-1)!!) times phi_0
    for n in (2, 3, 4):
        fam = build_phi(n)
        norm = TrigScalar.rational(
            Fraction(1, double_factorial(n - 2) * double_factorial(n - 1)))
        mono = next(iter(fam.phi_k[0].terms))
        coeff = fam.phi.terms.get(mono, TrigScalar.zero())
        expected = (fam.phi_k[0].terms.get(mono, TrigScalar.zero()) * norm
                    * _inv(sphere_volume(n - 1)))
        assert coeff == expected


def _inv(ts):
    (d, _), c = next(iter(ts.terms.items()))
    return TrigScalar.pi_power(-d, 1 / c)


# -- polar normalization -------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polar_kills_sphere_relations(n):
    U = polar_coordinates(n)
    total = TrigScalar.zero()
    for u in U:
        total = total + u * u
    assert total == TrigScalar.rational(1)
    # sum u_A theta_A must map to zero as well
    f = Form.zero(n)
    for a in range(1, n + 1):
        f = f + Form.coordinate(n, a) * Form.theta(n, a)
    assert polar_substitute(f).is_zero


def test_polar_commutes_with_d():
    n = 3
    f = Form.coordinate(n, 2) * Form.theta(n, 1) * Form.omega(n, 2, 3)
    assert (polar_substitute(f.d()) - polar_substitute(f).d()).is_zero


def test_polar_substitute_cost_guard(monkeypatch):
    """Normalizing dPhi + Omega at n = 5 multiplies at most 31,000 pairs of
    packed terms in ``trig.mul_into``: Horner's scheme multiplies each sum by
    one image, where a chain of prefix products of the theta images made
    39,075 pairs (the chain built th1 th2 th3 th4 only to multiply it by th5
    and get 0).  The caches of the polar images are warm, so only the
    substitution counts."""
    fam = build_phi(5)
    f = fam.phi.d() + fam.euler
    polar_substitute(f)
    mul_into, pairs = trig.mul_into, []

    def counted(num, xs, ys, packing, scale):
        pairs.append(len(xs) * len(ys))
        return mul_into(num, xs, ys, packing, scale)

    monkeypatch.setattr(trig, "mul_into", counted)
    assert polar_substitute(f).is_zero
    assert 0 < sum(pairs) <= 31_000, sum(pairs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_dphi_residual_zero(n):
    assert check_dphi(n).is_zero


# -- boundary specialization -----------------------------------------------------

def test_specialize_coordinates():
    n = 3
    assert specialize_boundary(Form.coordinate(n, 1)) == \
        Form.scalar(n, TrigScalar.cos(), True)
    assert specialize_boundary(Form.coordinate(n, 2)).is_zero
    assert specialize_boundary(Form.coordinate(n, n)) == \
        Form.scalar(n, TrigScalar.sin(), True)


def test_specialize_theta1_at_right_angle():
    n = 3
    spec = specialize_boundary(Form.theta(n, 1))
    at_right = Form(n, {m: c.eval_angle(1, "pi/2") for m, c in spec.terms.items()},
                    boundary=True)
    expected = -(Form.dphi(n, 1, True) + Form.omega(n, 1, n, True))
    assert at_right == expected


def test_specialize_is_dga_map():
    # commuting with d is what makes the boundary identities meaningful
    n = 3
    for f in (Form.coordinate(n, 1), Form.theta(n, 2), Form.omega(n, 2, 3),
              Form.curvature(n, 2, 3)):
        lhs = specialize_boundary(f.d())
        rhs = specialize_boundary(f).d()
        assert (lhs - rhs).is_zero, f.render()


# -- coefficient functions --------------------------------------------------------

def test_region_d1():
    assert set(region_d1(3)) == {(0, 0), (0, 1)}
    assert set(region_d1(5)) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)}


def test_integral_derivative_property():
    # d/dphi I(p,q) = cos^p sin^q and I(p,q)(0) = 0, for a grid of powers
    for p in range(5):
        for q in range(5):
            I = _integral_tcs(p, q)
            assert (I.deriv() - _power_tcs(p, q)).is_zero
            assert I.eval_angle(1, "0").is_zero


def test_integral_examples():
    assert _integral_tcs(0, 1) == TrigScalar.rational(1) - TrigScalar.cos()
    # closed form phi/2 - sin cos / 2 evaluated at pi
    val = _integral_tcs(0, 2).eval_angle(1, "pi")
    assert val == TrigScalar.pi_power(1, Fraction(1, 2))
    # quadrature cross-check of the same number
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(40)
    x = 0.5 * math.pi * (nodes + 1.0)
    quad = float(np.sum(0.5 * math.pi * weights * np.sin(x) ** 2))
    assert val.to_float() == pytest.approx(quad, abs=1e-12)


def test_capital_a_vanishes_at_zero():
    for n in (3, 4, 5):
        for (i, j) in region_d1(n):
            assert coefficient(n, i, j, _integral_tcs).eval_angle(1, "0").is_zero


def test_a_is_derivative_of_capital_a():
    for n in (3, 4, 5):
        for (i, j) in region_d1(n):
            a = coefficient(n, i, j, _power_tcs)
            assert (coefficient(n, i, j, _integral_tcs).deriv() - a).is_zero


def test_gamma_angular_derivative_is_the_upsilon_sum():
    # d/dphi of the whole Gamma sum, not only of each coefficient, is the
    # sum of the T coefficients that the interior product must equal
    for n in (3, 4, 5):
        gamma = boundary_family(n).gamma
        assert gamma == region_sum(n, _integral_tcs)
        derivative = Form(n, {mono: c.deriv(1) for mono, c in gamma.terms.items()},
                          boundary=True)
        assert (derivative - region_sum(n, _power_tcs)).is_zero
        assert not derivative.is_zero


def test_leading_transgression_coefficient():
    # A(0, n-2) is (n-2)!!/(n-2)! times the pure sine antiderivative
    for n in (3, 4, 5):
        ratio = TrigScalar.rational(
            Fraction(double_factorial(n - 2), math.factorial(n - 2)))
        A = coefficient(n, 0, n - 2, _integral_tcs)
        assert (A - _integral_tcs(0, n - 2) * ratio).is_zero


# -- boundary family and the transgression identities -----------------------------

def test_boundary_form_outside_region_is_zero():
    assert boundary_form(4, 2, 1).is_zero
    assert boundary_form(3, 1, 0).is_zero


def test_boundary_form_n3_explicit():
    n = 3
    assert boundary_form(n, 0, 0) == Form.omega(n, 1, 2, True)
    assert boundary_form(n, 0, 1) == Form.omega(n, 2, 3, True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_upsilon_residual_zero(n):
    assert build_upsilon_and_check(n).is_zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_residual_zero(n):
    assert build_gamma_and_check(n).is_zero


def test_gamma_n2_closed_form():
    # degree-0 transgression: the angle over the full circle volume
    fam = boundary_family(2)
    expected = Form.scalar(2, monomial(pi=-1, phi=1) * Fraction(1, 2),
                           boundary=True)
    assert fam.gamma == expected


def test_evaluate_gamma_at_zero_vanishes():
    for n in (3, 4):
        assert boundary_family(n).gamma.evaluate_at_zero().is_zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_closure(n):
    assert check_boundary_closure(n).is_zero


def test_boundary_closure_needs_dimension_filter_even_n():
    # at n = 4 the unfiltered differential keeps the Euler-form remnant
    n = 4
    phi_b = specialize_boundary(build_phi(n).phi)
    assert not phi_b.d().is_zero
    assert phi_b.d().base_degree_filter().is_zero


# -- invariance under frame rotations ----------------------------------------------

@pytest.mark.parametrize("n,plane", [(3, (1, 2)), (3, (2, 3)), (4, (1, 4))])
def test_phi_so_invariance(n, plane):
    fam = build_phi(n)
    assert (rotate_frame(fam.phi, *plane) - fam.phi).is_zero
    for pk in fam.phi_k:
        assert (rotate_frame(pk, *plane) - pk).is_zero


def test_boundary_family_partial_invariance():
    for n in (4, 5):
        for (i, j) in region_d1(n):
            fm = boundary_form(n, i, j)
            assert (rotate_frame(fm, 2, 3) - fm).is_zero


# -- polar normalization is faithful -------------------------------------------

def test_polar_substitution_keeps_nonzero_forms_nonzero():
    # the normalization map must not certify identities vacuously: forms that
    # are genuinely nonzero on the sphere bundle stay nonzero
    for n in (2, 3, 4):
        fam = build_phi(n)
        assert not polar_substitute(fam.phi).is_zero
        assert not polar_substitute(Form.coordinate(n, 1)).is_zero
        assert not polar_substitute(
            Form.coordinate(n, 1) * Form.theta(n, 2)).is_zero
    # d(phi) alone is the (nonzero) Euler form in even dimensions
    fam4 = build_phi(4)
    d_only = polar_substitute(fam4.phi.d())
    assert not d_only.is_zero
    assert (d_only + fam4.euler).is_zero
