"""The coefficient ring against sympy, exactly and with no float tolerance.

An element is translated term by term from ``terms`` into a polynomial of
sympy's sparse ring QQ[c1, c2, Q, P, x1, x2, s1, s2]: x_i is the formal angle,
s_i and c_i its sine and cosine, P stands for pi and Q for 1/pi.  sympy does
the arithmetic there, and its result is brought to the ring's normal form by
reduction modulo c_i^2 + s_i^2 - 1 and P Q - 1 in lex order.  The leading
monomials c_i^2 and P Q are pairwise coprime, so these relations are a
Groebner basis and the reduced form is unique: the ring's own result must
translate to the very same polynomial.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp

from lawcheck.chern import phi_normalization
from lawcheck.trig import TrigScalar, sphere_volume

ANGLES = (1, 2)
R, C1, C2, Q, P, X1, X2, S1, S2 = sp.ring("c1,c2,Q,P,x1,x2,s1,s2", sp.QQ, sp.lex)
X, S, C = {1: X1, 2: X2}, {1: S1, 2: S2}, {1: C1, 2: C2}
RELATIONS = [C1 ** 2 + S1 ** 2 - 1, C2 ** 2 + S2 ** 2 - 1, P * Q - 1]


def to_poly(terms):
    """Sum of coeff * pi^d * prod x^p s^s c^c over a {key: Fraction} dict."""
    total = R.zero
    for (d, angles), coeff in terms.items():
        term = R(sp.QQ(coeff.numerator, coeff.denominator))
        term *= P ** d if d >= 0 else Q ** -d
        for aid, p, s, c in angles:
            term *= X[aid] ** p * S[aid] ** s * C[aid] ** c
        total += term
    return total


def assert_same(got, expected):
    poly = to_poly(got.terms)
    assert poly == expected.rem(RELATIONS)
    # the ring's own result is already reduced
    assert poly == poly.rem(RELATIONS)


def rand_terms(rng, max_cos=3):
    """Raw term dict over two angles; cos powers above 1 exercise the
    reduction on construction."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        parts = tuple((aid, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, max_cos))
                      for aid in ANGLES if rng.random() < 0.7)
        key = (rng.randint(-1, 2), parts)
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return terms


def rand_scalar(rng):
    return TrigScalar(rand_terms(rng))


def derivative(poly, aid):
    """d/dx_i with ds_i/dx_i = c_i and dc_i/dx_i = -s_i."""
    return (poly.diff(X[aid]) + C[aid] * poly.diff(S[aid])
            - S[aid] * poly.diff(C[aid]))


def test_construction_matches_sympy():
    rng = random.Random(8101)
    for _ in range(100):
        terms = rand_terms(rng, max_cos=5)
        assert_same(TrigScalar(terms), to_poly({k: Fraction(v) for k, v in terms.items()}))


def test_ring_operations_match_sympy():
    rng = random.Random(8102)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        pa, pb = to_poly(a.terms), to_poly(b.terms)
        assert_same(a + b, pa + pb)
        assert_same(a - b, pa - pb)
        assert_same(a * b, pa * pb)
        assert_same(-a, -pa)
        k = Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 9))
        assert_same(a * k, pa * sp.QQ(k.numerator, k.denominator))
        assert_same(a / k, pa / sp.QQ(k.numerator, k.denominator))


def test_cancellation_gives_the_zero_element():
    rng = random.Random(8103)
    for _ in range(50):
        a, b = rand_scalar(rng), rand_scalar(rng)
        zero = a * b - b * a
        assert zero.is_zero and zero == TrigScalar.zero()
        assert zero.terms == {}


@pytest.mark.parametrize("angle", ANGLES)
def test_derivative_matches_sympy(angle):
    rng = random.Random(8104 + angle)
    for _ in range(100):
        a = rand_scalar(rng)
        assert_same(a.deriv(angle), derivative(to_poly(a.terms), angle))


# (x, sin x, cos x) at each exact point, pi as P
POINTS = {"0": (R.zero, R.zero, R.one), "pi": (P, R.zero, -R.one),
          "pi/2": (P / 2, R.one, R.zero)}


@pytest.mark.parametrize("at", sorted(POINTS))
def test_eval_angle_matches_sympy(at):
    rng = random.Random(8106)
    x, s, c = POINTS[at]
    for _ in range(100):
        a = rand_scalar(rng)
        for aid in ANGLES:
            expected = to_poly(a.terms).compose([(X[aid], x), (S[aid], s), (C[aid], c)])
            assert_same(a.eval_angle(aid, at), expected)


def test_sphere_volume_matches_gamma_formula():
    for m in range(9):
        k = sp.Rational(m + 1, 2)
        expected = 2 * sp.pi ** k / sp.gamma(k)
        [((d, angles), coeff)] = sphere_volume(m).terms.items()
        assert not angles
        got = sp.Rational(coeff.numerator, coeff.denominator) * sp.pi ** d
        assert sp.simplify(got - expected) == 0, m


def test_phi_normalization_matches_gamma_formula():
    for n in range(2, 9):
        k = sp.Rational(n, 2)
        expected = sp.gamma(k) / (sp.factorial2(n - 2) * 2 * sp.pi ** k)
        [((d, angles), coeff)] = phi_normalization(n).terms.items()
        assert not angles
        rational = sp.simplify(expected / sp.pi ** d)
        assert rational.is_Rational, n
        assert rational == sp.Rational(coeff.numerator, coeff.denominator), n
