"""Exact coefficient ring: normal form, calculus, evaluation."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from lawcheck.templates import trig_values
from lawcheck.trig import (_COS, FIELD_BITS, MAX_ANGLE, MAX_EXP, PI_BIAS, SCALARS, ZERO,
                           Accumulator, Packing, TrigScalar, lowest_terms, sphere_volume)


def monomial(coeff=1, pi=0, **exps):
    """coeff * pi^pi * the powers phi=a, sin=b, cos=c of angle 1, or phi2=,
    sin3=, ... of higher angles, through the TrigScalar terms constructor."""
    angles = {}
    for name, exp in exps.items():
        base = name.rstrip("0123456789")
        angles.setdefault(int(name[len(base):] or 1), [0, 0, 0])[
            ("phi", "sin", "cos").index(base)] = exp
    return TrigScalar({(pi, tuple((aid, *e) for aid, e in sorted(angles.items()))): coeff})


def rand_scalar(rng, angles=(1,)):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        pi_pow = rng.randint(-1, 2)
        parts = []
        for aid in angles:
            if rng.random() < 0.6:
                parts.append((aid, rng.randint(0, 2), rng.randint(0, 2),
                              rng.randint(0, 3)))
        key = (pi_pow, tuple(parts))
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TrigScalar(terms)


def test_cos_square_reduction_is_eager():
    c2 = TrigScalar.cos() * TrigScalar.cos()
    expected = TrigScalar.rational(1) - TrigScalar.sin() * TrigScalar.sin()
    assert c2 == expected
    for (_, angles) in c2.terms:
        for _, _, _, cexp in angles:
            assert cexp <= 1


def test_pythagoras_collapses_to_one():
    s, c = TrigScalar.sin(), TrigScalar.cos()
    assert s * s + c * c == TrigScalar.rational(1)


def test_normal_form_is_canonical():
    rng = random.Random(20260810)
    for _ in range(200):
        a = rand_scalar(rng, angles=(1, 2))
        b = rand_scalar(rng, angles=(1, 2))
        assert ((a - b).is_zero) == (a.terms == b.terms)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rand_scalar(rng, angles=(1, 2)) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_derivative_of_basics():
    assert TrigScalar.cos().deriv() == -TrigScalar.sin()
    assert TrigScalar.sin().deriv() == TrigScalar.cos()
    assert TrigScalar.phi().deriv() == TrigScalar.rational(1)


def test_derivative_leibniz_random():
    rng = random.Random(99)
    for _ in range(60):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        lhs = (a * b).deriv()
        rhs = a.deriv() * b + a * b.deriv()
        assert (lhs - rhs).is_zero


def test_derivative_targets_one_angle():
    mixed = TrigScalar.sin(1) * TrigScalar.cos(2)
    d1 = mixed.deriv(1)
    d2 = mixed.deriv(2)
    assert d1 == TrigScalar.cos(1) * TrigScalar.cos(2)
    assert d2 == -(TrigScalar.sin(1) * TrigScalar.sin(2))


@pytest.mark.parametrize("at,expect_sin,expect_cos", [
    ("0", 0.0, 1.0),
    ("pi", 0.0, -1.0),
    ("pi/2", 1.0, 0.0),
])
def test_eval_angle_points(at, expect_sin, expect_cos):
    s = TrigScalar.sin().eval_angle(1, at)
    c = TrigScalar.cos().eval_angle(1, at)
    assert s.to_float() == pytest.approx(expect_sin)
    assert c.to_float() == pytest.approx(expect_cos)


def test_eval_angle_phi_powers_merge_into_pi():
    v = monomial(coeff=Fraction(1, 2), phi=2).eval_angle(1, "pi")
    assert v == TrigScalar.pi_power(2, Fraction(1, 2))
    w = TrigScalar.phi().eval_angle(1, "pi/2")
    assert w == TrigScalar.pi_power(1, Fraction(1, 2))


def test_to_float_matches_numeric_sample():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_scalar(rng)
        x = rng.uniform(0.2, 2.8)
        direct = trig_values(a, {1: x})
        # numeric derivative cross-check of deriv()
        h = 1e-6
        fd = (trig_values(a, {1: x + h}) - trig_values(a, {1: x - h})) / (2 * h)
        assert trig_values(a.deriv(), {1: x}) == pytest.approx(fd, abs=1e-5)
        assert isinstance(direct, float)


def test_sphere_volumes():
    assert sphere_volume(0) == TrigScalar.rational(2)
    assert sphere_volume(1) == TrigScalar.pi_power(1, 2)
    assert sphere_volume(2) == TrigScalar.pi_power(1, 4)
    assert sphere_volume(3) == TrigScalar.pi_power(2, 2)
    assert sphere_volume(4) == TrigScalar.pi_power(2, Fraction(8, 3))
    assert sphere_volume(5) == TrigScalar.pi_power(3, 1)


def test_render_deterministic():
    a = monomial(coeff=Fraction(-1, 2), sin=1) + TrigScalar.pi_power(1)
    assert a.render() == "-1/2*sin + pi"
    assert TrigScalar.zero().render() == "0"


def assert_normal_form(x):
    """The stored form itself, which ``terms`` (reduced Fractions) hides."""
    assert all(x.num.values()), "a zero numerator is stored"
    assert x.den >= 1
    assert gcd(x.den, *x.num.values()) == 1, "numerators and den share a factor"
    n_fields = 3 * MAX_ANGLE + 1
    for key in x.num:
        assert 0 <= key < 1 << n_fields * FIELD_BITS
        fields = [key >> f * FIELD_BITS & (1 << FIELD_BITS) - 1 for f in range(n_fields)]
        assert max(fields) <= MAX_EXP, "a guard bit is set"
        assert max(fields[3::3]) <= 1, "a cos power above 1 is stored"


def test_every_operation_keeps_the_normal_form():
    rng = random.Random(1919)
    angles = (1, 2, 3)

    def element():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            parts = tuple((aid, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 5))
                          for aid in angles if rng.random() < 0.6)
            terms[(rng.randint(-2, 2), parts)] = Fraction(rng.randint(-6, 6),
                                                          rng.randint(1, 6))
        return TrigScalar(terms)

    for _ in range(150):
        a, b = element(), element()
        k = Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 9))
        results = [a, b, a + b, a - b, a - a, a * b, a / k]
        for aid in angles:
            results.append(a.deriv(aid))
            results += [a.eval_angle(aid, at) for at in ("0", "pi", "pi/2")]
        for x in results:
            assert_normal_form(x)


# -- limits of the packed monomial key ---------------------------------------------

# every field next to the exponents pushed to their limits is set, so a carry
# or a borrow out of one field would show in its neighbours
NEIGHBOURS = dict(pi=1, phi=1, sin=1, cos=1, phi2=2, sin2=3, cos2=1, phi3=1)
LIMITS = [("pi", MAX_EXP - PI_BIAS), ("pi", -PI_BIAS), ("phi", MAX_EXP),
          ("sin", MAX_EXP), ("phi2", MAX_EXP), ("sin2", MAX_EXP), ("phi3", MAX_EXP)]


@pytest.mark.parametrize("name,limit", LIMITS)
def test_product_reaching_a_field_limit_is_exact(name, limit):
    exps = dict(NEIGHBOURS)
    step = 1 if limit > 0 else -1
    exps[name] = limit - step
    base = monomial(3, **exps)
    exps[name] = limit
    product = base * monomial(**{name: step})
    assert product.terms == monomial(3, **exps).terms


@pytest.mark.parametrize("name,limit", LIMITS)
def test_product_past_a_field_limit_raises(name, limit):
    step = 1 if limit > 0 else -1
    exps = dict(NEIGHBOURS, **{name: limit})
    with pytest.raises(OverflowError):
        monomial(**exps) * monomial(**{name: step})
    with pytest.raises(OverflowError):
        monomial(**{name: limit + step})


def test_cos_square_split_past_the_sin_limit_raises():
    # cos^2 -> 1 - sin^2 lifts the sin exponent by 2, on one angle or several
    one = monomial(sin2=MAX_EXP - 2, cos2=1) * TrigScalar.cos(2)
    assert one == monomial(sin2=MAX_EXP - 2) - monomial(sin2=MAX_EXP)
    with pytest.raises(OverflowError):
        monomial(sin2=MAX_EXP - 1, cos2=1) * TrigScalar.cos(2)
    with pytest.raises(OverflowError):
        (monomial(cos=1, sin3=MAX_EXP - 1, cos3=1)
         * monomial(cos=1, cos3=1))
    with pytest.raises(OverflowError):
        monomial(sin2=MAX_EXP, cos2=1).deriv(2)


def test_angle_ids_outside_the_key_are_rejected():
    TrigScalar.sin(MAX_ANGLE)
    for bad in (0, MAX_ANGLE + 1):
        with pytest.raises(ValueError):
            TrigScalar.sin(bad)


@pytest.mark.parametrize("call", [
    lambda x: x.deriv(0), lambda x: x.deriv(MAX_ANGLE + 1),
    lambda x: x.eval_angle(0, "0"), lambda x: x.eval_angle(MAX_ANGLE + 1, "pi"),
])
def test_calculus_rejects_angle_ids_outside_the_key(call):
    with pytest.raises(ValueError, match=rf"angle ids run over 1\.\.{MAX_ANGLE}, got"):
        call(TrigScalar.sin() + TrigScalar.phi())


def test_constructor_checks_every_key_before_any_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(TrigScalar, "__mul__", no_product)
    with pytest.raises(OverflowError):
        TrigScalar({(0, ((1, 0, 0, MAX_EXP + 1),)): 1})
    with pytest.raises(OverflowError):  # the valid cos^2 term comes first
        TrigScalar({(0, ((1, 0, 0, 2),)): 1, (0, ((2, 0, 0, MAX_EXP + 1),)): 1})


@pytest.mark.parametrize("at", ["pi", "pi/2"])
def test_eval_angle_past_the_pi_limit_raises(at):
    top = MAX_EXP - PI_BIAS
    below = monomial(pi=top - 1, phi=1).eval_angle(1, at)
    assert below == TrigScalar.pi_power(top, 1 if at == "pi" else Fraction(1, 2))
    with pytest.raises(OverflowError):
        monomial(pi=top, phi=1).eval_angle(1, at)


# -- the multiply-accumulate loop ------------------------------------------------

# two slot bits below the coefficient key, with no generator in them
SLOTS = Packing(2, 0, 0)


def _packed(x, slot=0, sign=1):
    """x as a packed operand over SLOTS, its terms tagged with the slot."""
    return Accumulator(SLOTS, {(k << 2) + slot: sign * c for k, c in x.num.items()}, x.den)


def _packed_scalar(x, sign=1):
    """x as a packed operand over SCALARS."""
    return Accumulator(SCALARS, {k: sign * c for k, c in x.num.items()}, x.den)


def _split(acc):
    """{generator bits: coefficient} of an accumulated sum, each coefficient
    normalized once."""
    low, shift = acc.packing.low, acc.packing.shift
    parts = {}
    for key, c in acc.num.items():
        parts.setdefault(key & low, {})[key >> shift] = c
    return {bits: TrigScalar._new(*lowest_terms(num, acc.den)) for bits, num in parts.items()}


def _kernel_element(rng):
    """Seeded element over angles 1..3 with cos powers <= 1 and a mixed den."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        parts = tuple((aid, rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 1))
                      for aid in (1, 2, 3) if rng.random() < 0.7)
        terms[(rng.randint(-1, 1), parts)] = Fraction(rng.randint(-6, 6) or 1,
                                                      rng.choice((1, 2, 3, 4, 6, 9)))
    return TrigScalar(terms)


def _add_in_order(expected, slot, value):
    """What adding elements one by one gives, dropping a slot that cancels."""
    new = expected.get(slot, ZERO) + value
    if new:
        expected[slot] = new
    else:
        expected.pop(slot, None)


def test_accumulator_matches_the_sum_of_products():
    rng = random.Random(2020)
    shared_seen, cancelled = set(), 0
    for _ in range(120):
        acc, expected, done = Accumulator(SLOTS), {}, []
        for _ in range(rng.randint(1, 8)):
            if done and rng.random() < 0.3:  # undo an earlier product
                slot, x, y, negate = done.pop(rng.randrange(len(done)))
                negate = not negate
            else:
                slot, x, y = rng.randint(0, 2), _kernel_element(rng), _kernel_element(rng)
                negate = rng.random() < 0.5
                done.append((slot, x, y, negate))
            for k1 in x.num:
                for k2 in y.num:
                    shared_seen.add(bin(k1 & k2 & _COS).count("1"))
            had = slot in expected
            acc.add_product(_packed(x, slot, -1 if negate else 1), _packed(y))
            _add_in_order(expected, slot, -(x * y) if negate else x * y)
            cancelled += had and slot not in expected
            assert set(key & 3 for key in acc.num) == set(expected)
        got = _split(acc)
        assert got == expected
        for value in got.values():
            assert_normal_form(value)
    assert shared_seen == {0, 1, 2, 3} and cancelled


def test_accumulator_cancels_to_zero_then_takes_new_terms():
    x = monomial(Fraction(1, 6), sin=1, cos=1) + TrigScalar.cos(2)
    y = monomial(Fraction(2, 9), cos=1, cos2=1) - TrigScalar.pi_power(1)
    z = monomial(Fraction(3, 4), phi3=1)
    acc = Accumulator(SCALARS)
    acc.add_product(_packed_scalar(x), _packed_scalar(y))
    acc.add_product(_packed_scalar(y), _packed_scalar(x, -1))
    assert acc.num == {} and _split(acc) == {}
    acc.add_product(_packed_scalar(z), _packed_scalar(x, -1))
    acc.add_product(_packed_scalar(x), _packed_scalar(y))
    assert _split(acc) == {0: x * y - z * x}


def test_accumulator_past_a_field_limit_raises():
    # no split: one pair per product
    with pytest.raises(OverflowError):
        Accumulator(SCALARS).add_product(_packed_scalar(monomial(sin=MAX_EXP)),
                                         _packed_scalar(TrigScalar.sin()))
    # the cos^2 split lifts sin by 2
    acc = Accumulator(SCALARS)
    acc.add_product(_packed_scalar(monomial(sin2=MAX_EXP - 2, cos2=1)),
                    _packed_scalar(TrigScalar.cos(2)))
    assert _split(acc) == {0: monomial(sin2=MAX_EXP - 2)
                           - monomial(sin2=MAX_EXP)}
    with pytest.raises(OverflowError):
        Accumulator(SCALARS).add_product(
            _packed_scalar(monomial(sin2=MAX_EXP - 1, cos2=1)),
            _packed_scalar(TrigScalar.cos(2), -1))
