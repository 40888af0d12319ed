"""Graded algebra: wedge, differential, interior product, evaluations."""

import random
import re
from fractions import Fraction
from functools import partial

import pytest

from lawcheck.algebra import (
    _ODD,
    DEGREE,
    Form,
    K_CURV,
    K_CURVM,
    K_DPHI,
    K_OMEGA,
    K_THETA,
    K_U,
    _d_generator,
    _layout,
)
from lawcheck.chern import build_phi, polar_substitute, rotate_frame, specialize_boundary
from lawcheck.trig import MAX_ANGLE, MAX_EXP, ONE, TrigScalar

from test_trig import monomial


def rand_form(rng, n, boundary=False, max_terms=4, max_gens=3):
    """Seeded random element of the algebra, valid for the given mode."""
    f = Form.zero(n, boundary)
    for _ in range(rng.randint(1, max_terms)):
        term = Form.scalar(n, Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                           boundary)
        if rng.random() < 0.5:
            coeff = monomial(pi=rng.randint(0, 1),
                             phi=rng.randint(0, 1),
                             sin=rng.randint(0, 2),
                             cos=rng.randint(0, 1))
            term = term.scale(coeff)
        for _ in range(rng.randint(0, max_gens)):
            kind = rng.choice(_mode_kinds(n, boundary))
            term = term * _rand_gen_form(rng, n, boundary, kind)
            if term.is_zero:
                break
        f = f + term
    return f


def _mode_kinds(n, boundary):
    if boundary:
        kinds = [K_DPHI, K_OMEGA, K_CURV]
        if n >= 3:
            kinds.append(K_CURVM)
    else:
        kinds = [K_OMEGA, K_CURV, K_U, K_THETA, K_DPHI]
    return kinds


def _rand_gen_form(rng, n, boundary, kind):
    if kind == K_DPHI:
        return Form.dphi(n, 1, boundary)
    if kind == K_OMEGA:
        a, b = rng.sample(range(1, n + 1), 2)
        return Form.omega(n, a, b, boundary)
    if kind == K_CURV:
        if boundary:
            return Form.curvature(n, 1, rng.randint(2, n), boundary=True)
        a, b = rng.sample(range(1, n + 1), 2)
        return Form.curvature(n, a, b)
    if kind == K_CURVM:
        s, t = rng.sample(range(2, n + 1), 2)
        return Form.boundary_curvature(n, s, t)
    if kind == K_U:
        return Form.coordinate(n, rng.randint(1, n))
    return Form.theta(n, rng.randint(1, n))


# -- wedge ------------------------------------------------------------------

def test_odd_square_vanishes():
    n = 4
    for g in (Form.omega(n, 1, 2), Form.theta(n, 3), Form.dphi(n)):
        assert (g * g).is_zero


def test_one_forms_anticommute():
    n = 4
    a, b = Form.omega(n, 1, 2), Form.omega(n, 1, 3)
    assert a * b == -(b * a)


def test_even_coefficient_factor_commutes():
    n = 4
    lhs = Form.omega(n, 1, 2).scale(TrigScalar.cos()) * \
        Form.curvature(n, 3, 4).scale(TrigScalar.sin())
    rhs = Form.curvature(n, 3, 4).scale(TrigScalar.sin()) * \
        Form.omega(n, 1, 2).scale(TrigScalar.cos())
    assert lhs == rhs
    coeff = next(iter(lhs.terms.values()))
    assert coeff == TrigScalar.cos() * TrigScalar.sin()


def test_antisymmetric_storage():
    n = 3
    assert Form.omega(n, 2, 1) == -Form.omega(n, 1, 2)
    assert Form.curvature(n, 3, 1) == -Form.curvature(n, 1, 3)
    assert Form.omega(n, 2, 2).is_zero


def test_wedge_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Form.omega(3, 1, 2) * Form.omega(4, 1, 2)


def test_sum_of_forms_from_different_algebras_raises():
    for other in (Form.omega(4, 1, 2), Form.omega(3, 1, 2, boundary=True)):
        with pytest.raises(ValueError):
            Form.omega(3, 1, 2) + other
        with pytest.raises(ValueError):
            Form.omega(3, 1, 2) - other


def test_wedge_associative_random():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(25):
            a, b, c = (rand_form(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_wedge_graded_commutative_random():
    rng = random.Random(12)
    for n in (3, 4):
        for _ in range(40):
            a = rand_form(rng, n, max_terms=1)
            b = rand_form(rng, n, max_terms=1)
            degs_a, degs_b = a.degrees(), b.degrees()
            if len(degs_a) != 1 or len(degs_b) != 1:
                continue
            sign = -1 if (degs_a[0] % 2 and degs_b[0] % 2) else 1
            rhs = (b * a).scale(sign)
            assert a * b == rhs


# -- generators and packed monomial keys ------------------------------------------

@pytest.mark.parametrize("make,name", [
    (lambda: Form.dphi(3, 0), "dphi0"),
    (lambda: Form.dphi(3, MAX_ANGLE + 1), f"dphi{MAX_ANGLE + 1}"),
    (lambda: Form.dphi(3, 99, True), "dphi99"),
    (lambda: Form.generator(3, K_OMEGA, 0, 7), "w07"),
    (lambda: Form.omega(3, 1, 4), "w14"),
    (lambda: Form.curvature(3, 0, 2), "W02"),
    (lambda: Form.boundary_curvature(3, 1, 2), "WM12"),
    (lambda: Form.boundary_curvature(4, 2, 5), "WM25"),
    (lambda: Form.theta(3, 4), "th4"),
    (lambda: Form.coordinate(3, 0), "u0"),
    (lambda: Form.generator(3, K_THETA, 1, 2), "th1"),
    (lambda: Form.generator(3, 42, 1, 2), "(42, 1, 2)"),
])
def test_generator_rejects_kinds_and_indices_outside_the_algebra(make, name):
    with pytest.raises(ValueError, match=rf"generator.*{re.escape(name)}"):
        make()


def test_generator_accepts_the_edges_of_each_range():
    assert Form.dphi(3, MAX_ANGLE).render() == f"(1)*dphi{MAX_ANGLE}"
    assert Form.dphi(3, 1).render() == "(1)*dphi"
    assert Form.boundary_curvature(4, 4, 2).render() == "(-1)*WM24"
    assert Form.generator(3, K_OMEGA, 3, 3).is_zero


def _generators(n, boundary):
    """Every generator of the algebra, with dphi angles 1 and MAX_ANGLE."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    gens = [(K_DPHI, 1, 0), (K_DPHI, MAX_ANGLE, 0)] + [(K_OMEGA, a, b) for a, b in pairs]
    if boundary:
        return gens + [(K_CURV, 1, b) for b in range(2, n + 1)] + [
            (K_CURVM, a, b) for a, b in pairs if a > 1]
    return gens + [(K_THETA, a, 0) for a in range(1, n + 1)] + [
        (K_U, a, 0) for a in range(1, n + 1)] + [(K_CURV, a, b) for a, b in pairs]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("boundary", [False, True])
def test_every_generator_round_trips_through_its_key(n, boundary):
    layout = _layout(n)
    one = Form.scalar(n, 1, boundary)
    keys = set()
    for gen in _generators(n, boundary):
        g = Form.generator(n, *gen, boundary=boundary)
        [mono] = g.terms
        key = layout.key(mono)
        assert layout.mono(key) == mono
        keys.add(key)
        assert one * g == g and g * one == g
        dphi2 = Form.dphi(n, 2, boundary)
        assert g * dphi2 == reference_mul(g, dphi2)
    assert len(keys) == len(_generators(n, boundary))
    assert all(key & key - 1 == 0 for key in keys), "a generator key is one bit"


def _rand_monomial(rng, n, boundary):
    gens = _generators(n, boundary)
    odds = sorted(rng.sample([g for g in gens if g[0] in _ODD], rng.randint(0, 4)))
    evens = sorted(rng.choices([g for g in gens if g[0] not in _ODD], k=rng.randint(0, 3)))
    return tuple(evens), tuple(odds)


@pytest.mark.parametrize("boundary", [False, True])
def test_packed_product_matches_the_tuple_merge(boundary):
    """The Koszul sign and the repeated odd generator, on seeded pairs."""
    n = 5
    rng = random.Random(505 + boundary)
    signs, zeros = set(), 0
    for _ in range(600):
        m1, m2 = _rand_monomial(rng, n, boundary), _rand_monomial(rng, n, boundary)
        c1 = monomial(Fraction(rng.randint(1, 5), rng.randint(1, 4)), cos=1)
        c2 = monomial(rng.randint(-3, 3) or 1, cos=1, sin2=1)
        got = Form(n, {m1: c1}, boundary) * Form(n, {m2: c2}, boundary)
        hit = mono_mul(m1, m2)
        if hit is None:
            assert got.is_zero
            zeros += 1
            continue
        sign, mono = hit
        assert got == Form(n, {mono: c1 * c2 * sign}, boundary)
        signs.add(sign)
    assert signs == {1, -1} and zeros > 20


def test_even_count_at_its_field_limit():
    n = 3
    u1, w12 = (K_U, 1, 0), (K_OMEGA, 1, 2)
    below = Form(n, {((u1,) * (MAX_EXP - 1), (w12,)): ONE})
    at = below * Form.coordinate(n, 1)
    assert at == Form(n, {((u1,) * MAX_EXP, (w12,)): ONE})
    with pytest.raises(OverflowError):
        at * Form.coordinate(n, 1)
    with pytest.raises(OverflowError):
        Form(n, {((u1,) * (MAX_EXP + 1), ()): ONE}) * Form.scalar(n, 1)


def test_constructor_rejects_a_monomial_out_of_canonical_order():
    n = 3
    u1, u2 = (K_U, 1, 0), (K_U, 2, 0)
    w12, w23 = (K_OMEGA, 1, 2), (K_OMEGA, 2, 3)
    with pytest.raises(ValueError, match=r"monomial w12\*w12 "):
        Form(n, {((), (w12, w12)): ONE})
    with pytest.raises(ValueError, match=r"monomial w23\*w12 "):
        Form(n, {((), (w23, w12)): ONE})
    with pytest.raises(ValueError, match=r"monomial u2\*u1 "):
        Form(n, {((u2, u1), ()): ONE})
    with pytest.raises(ValueError, match=r"monomial w12 "):
        Form(n, {((w12,), ()): ONE})
    assert Form(n, {((u1, u1, u2), (w12, w23)): ONE}) == (
        Form.coordinate(n, 1) * Form.coordinate(n, 1) * Form.coordinate(n, 2)
        * Form.omega(n, 1, 2) * Form.omega(n, 2, 3))


def test_len_counts_monomials_not_packed_terms():
    """len is SymbolicReport.residual_terms: one per monomial, however many
    terms its coefficient has."""
    coeff = TrigScalar.sin() + TrigScalar.cos() + TrigScalar.phi()
    f = Form(3, {((), ((K_OMEGA, 1, 2),)): coeff})
    assert len(coeff.terms) == 3
    assert len(f) == len(f.terms) == 1


# -- differential -----------------------------------------------------------

def test_d_of_coefficient_is_calculus():
    n = 2
    f = Form.scalar(n, 1).scale(TrigScalar.cos())
    expected = Form.dphi(n).scale(-TrigScalar.sin())
    assert f.d() == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_d_squared_zero_on_generators(n):
    gens = []
    for a in range(1, n + 1):
        gens.append(Form.coordinate(n, a))
        gens.append(Form.theta(n, a))
        for b in range(a + 1, n + 1):
            gens.append(Form.omega(n, a, b))
            gens.append(Form.curvature(n, a, b))
    for g in gens:
        assert g.d().d().is_zero


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_d_squared_zero_on_boundary_generators(n):
    gens = [Form.dphi(n, 1, True)]
    for s in range(2, n + 1):
        gens.append(Form.omega(n, 1, s, True))
        gens.append(Form.curvature(n, 1, s, True))
        for t in range(s + 1, n + 1):
            gens.append(Form.omega(n, s, t, True))
            gens.append(Form.boundary_curvature(n, s, t))
    for g in gens:
        assert g.d().d().is_zero


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_d_squared_zero_random_forms(n):
    rng = random.Random(1000 + n)
    for _ in range(200):
        f = rand_form(rng, n)
        assert f.d().d().is_zero
    for _ in range(200):
        f = rand_form(rng, n, boundary=True)
        assert f.d().d().is_zero


def test_d_graded_leibniz_random():
    rng = random.Random(42)
    n = 3
    for _ in range(40):
        a = rand_form(rng, n, max_terms=1)
        b = rand_form(rng, n, max_terms=1)
        if len(a.degrees()) != 1:
            continue
        sign = -1 if a.degrees()[0] % 2 else 1
        assert (a * b).d() == a.d() * b + (a * b.d()).scale(sign)


def test_d_mode_violations():
    with pytest.raises(ValueError):
        Form.coordinate(3, 1).substitute({}, boundary=True).d()
    with pytest.raises(ValueError):
        Form.boundary_curvature(3, 2, 3).substitute({}, boundary=False).d()


# -- interior product and evaluation ----------------------------------------

def test_interior_product_basics():
    n = 3
    assert Form.dphi(n).interior_dphi() == Form.scalar(n, 1)
    assert Form.omega(n, 1, n).interior_dphi().is_zero
    got = (Form.dphi(n) * Form.omega(n, 1, 2)).interior_dphi()
    assert got == Form.omega(n, 1, 2)


def test_interior_product_is_odd_derivation():
    n = 3
    w = Form.omega(n, 1, 2)
    f = w * Form.dphi(n)
    # iota(w ^ dphi) = -w since dphi sits behind an odd factor
    assert f.interior_dphi() == -w


def test_interior_squared_zero_random():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_form(rng, 4, boundary=True)
        assert f.interior_dphi().interior_dphi().is_zero
    assert Form.dphi(4, 1, True).interior_dphi() == Form.scalar(4, 1, True)


def test_evaluate_at_zero_examples():
    n = 3
    f = Form.omega(n, 2, n, True).scale(TrigScalar.sin())
    assert f.evaluate_at_zero().is_zero
    g = Form.omega(n, 1, 2, True).scale(TrigScalar.cos()) + \
        Form.dphi(n, 1, True) * Form.omega(n, 1, 3, True)
    assert g.evaluate_at_zero() == Form.omega(n, 1, 2, True)


def test_base_degree_filter():
    n = 3
    semibasic = Form.omega(n, 1, 2, True) * Form.omega(n, 1, 3, True) * \
        Form.boundary_curvature(n, 2, 3)
    assert not semibasic.is_zero
    assert semibasic.base_degree_filter().is_zero  # degree 4 > n-1 = 2
    mixed = Form.dphi(n, 1, True) * Form.omega(n, 2, 3, True)
    assert mixed.base_degree_filter() == mixed


# -- substitution and rendering ----------------------------------------------

def test_substitute_replaces_generators():
    n = 2
    f = Form.coordinate(n, 1) * Form.theta(n, 2)
    mapping = {
        (K_U, 1, 0): Form.scalar(n, 1).scale(TrigScalar.cos()),
        (K_THETA, 2, 0): Form.dphi(n).scale(TrigScalar.cos()),
    }
    got = f.substitute(mapping)
    assert got == Form.dphi(n).scale(TrigScalar.cos() * TrigScalar.cos())


def test_substitute_respects_order_signs():
    n = 3
    f = Form.theta(n, 1) * Form.theta(n, 2)
    swap = {(K_THETA, 1, 0): Form.theta(n, 2), (K_THETA, 2, 0): Form.theta(n, 1)}
    assert f.substitute(swap) == -(f)


def test_substitute_rejects_wrong_parity():
    n = 3
    f = Form.coordinate(n, 1) * Form.theta(n, 1)
    with pytest.raises(ValueError, match="th1"):
        f.substitute({(K_THETA, 1, 0): Form.scalar(n, 2)})
    with pytest.raises(ValueError, match="u1"):
        f.substitute({(K_U, 1, 0): Form.theta(n, 2)})


# -- reference implementations: one wedge per generator, one sandwich per term --

def reference_substitute(f, mapping, boundary=None):
    """Multiply each term out one generator at a time, in word order."""
    if boundary is None:
        boundary = f.boundary
    out = Form.zero(f.n, boundary)
    for (evens, odds), coeff in f.terms.items():
        acc = Form.scalar(f.n, coeff, boundary=boundary)
        for gen in evens + odds:
            rep = mapping.get(gen)
            if rep is None:
                rep = Form.generator(f.n, *gen, boundary=boundary)
            acc = acc * rep
            if not acc.terms:
                break
        out = out + acc
    return out


def mono_mul(m1, m2):
    """Multiply canonical tuple monomials; returns (sign, monomial) or None.

    The reference for the packed product: the evens merge as a multiset, and
    the odds merge as sorted tuples, each crossing flipping the sign."""
    e1, o1 = m1
    e2, o2 = m2
    evens = tuple(sorted(e1 + e2))
    odds = []
    sign = 1
    i = j = 0
    while i < len(o1) and j < len(o2):
        if o1[i] == o2[j]:
            return None
        if o1[i] < o2[j]:
            odds.append(o1[i])
            i += 1
        else:
            if (len(o1) - i) % 2:
                sign = -sign
            odds.append(o2[j])
            j += 1
    odds.extend(o1[i:])
    odds.extend(o2[j:])
    return sign, (evens, tuple(odds))


def add_term(terms, mono, coeff):
    """Add coeff * mono into a {monomial: coefficient} dict in place,
    dropping zeros: a new monomial goes last, a cancelled one leaves."""
    prev = terms.get(mono)
    new = coeff if prev is None else prev + coeff
    if new:
        terms[mono] = new
    elif prev is not None:
        del terms[mono]


def reference_mul(f, g):
    """The wedge as one TrigScalar product and one add_term per pair of terms."""
    f._compatible(g)
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            hit = mono_mul(m1, m2)
            if hit is not None:
                coeff = c1 * c2
                add_term(terms, hit[1], coeff if hit[0] > 0 else -coeff)
    return Form(f.n, terms, f.boundary)


def _mono_sandwich(prefix, form, suffix):
    """prefix * form * suffix with monomial multiplication on both sides."""
    terms = {}
    for mono, coeff in form.terms.items():
        left = mono_mul(prefix, mono)
        right = left and mono_mul(left[1], suffix)
        if right:
            add_term(terms, right[1], coeff if left[0] * right[0] > 0 else -coeff)
    return Form(form.n, terms, form.boundary)


def reference_d(f):
    """Graded Leibniz with each prefix * d(gen) * suffix as its own Form."""
    out = Form.zero(f.n, f.boundary)
    for mono, coeff in f.terms.items():
        for angle in sorted(coeff.angles()):
            dc = coeff.deriv(angle)
            hit = mono_mul(((), ((K_DPHI, angle, 0),)), mono)
            if dc and hit is not None:
                out = out + Form(f.n, {hit[1]: dc if hit[0] > 0 else -dc}, f.boundary)
        word = mono[0] + mono[1]
        prefix_deg = 0
        for k, gen in enumerate(word):
            dg = _d_generator(gen, f.n, f.boundary)
            if dg:
                prefix = (tuple(g for g in word[:k] if g[0] not in _ODD),
                          tuple(g for g in word[:k] if g[0] in _ODD))
                suffix = (tuple(g for g in word[k + 1:] if g[0] not in _ODD),
                          tuple(g for g in word[k + 1:] if g[0] in _ODD))
                piece = _mono_sandwich(prefix, dg, suffix)
                out = out + piece.scale(-coeff if prefix_deg % 2 else coeff)
            prefix_deg += DEGREE[gen[0]]
    return out


# -- reference linear operations: one coefficient operation per monomial --------

def reference_add(f, g):
    f._compatible(g)
    terms = dict(f.terms)
    for mono, coeff in g.terms.items():
        add_term(terms, mono, coeff)
    return Form(f.n, terms, f.boundary)


def reference_neg(f):
    return Form(f.n, {m: -c for m, c in f.terms.items()}, f.boundary)


def reference_sub(f, g):
    return reference_add(f, reference_neg(g))


def reference_scale(f, coeff):
    if isinstance(coeff, (int, Fraction)):
        coeff = TrigScalar.rational(coeff)
    terms = {}
    for mono, c in f.terms.items():
        new = c * coeff
        if new:
            terms[mono] = new
    return Form(f.n, terms, f.boundary)


def reference_interior_dphi(f):
    """Remove dphi from each monomial with the sign of its position."""
    target = (K_DPHI, 1, 0)
    terms = {}
    for (evens, odds), coeff in f.terms.items():
        for pos, gen in enumerate(odds):
            if gen == target:
                mono = (evens, odds[:pos] + odds[pos + 1:])
                add_term(terms, mono, -coeff if pos % 2 else coeff)
                break
    return Form(f.n, terms, f.boundary)


def reference_evaluate_at_zero(f):
    target = (K_DPHI, 1, 0)
    terms = {}
    for (evens, odds), coeff in f.terms.items():
        if target in odds:
            continue
        c = coeff.eval_angle(1, "0")
        if c:
            add_term(terms, (evens, odds), c)
    return Form(f.n, terms, f.boundary)


def _base_degree(mono):
    """Total degree of semibasic factors (pulled back from the boundary)."""
    evens, odds = mono
    deg = 0
    for kind, a, _b in evens:
        if kind in (K_CURV, K_CURVM):
            deg += 2
    for kind, a, _b in odds:
        if kind == K_OMEGA and a == 1:
            deg += 1
    return deg


def reference_base_degree_filter(f):
    return Form(f.n, {mono: coeff for mono, coeff in f.terms.items()
                      if _base_degree(mono) <= f.n - 1}, f.boundary)


def _rand_coefficient(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return (monomial(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                     sin=rng.randint(0, 2), cos=rng.randint(0, 1))
            + monomial(rng.randint(-2, 2), phi=rng.randint(0, 1),
                       cos=rng.randint(0, 1)))


@pytest.mark.parametrize("boundary", [False, True])
def test_linear_operations_match_reference_in_value_and_term_order(boundary):
    """Sums with cancellations, negation, scaling, the interior product, the
    evaluation at 0 and the semibasic filter, on seeded random forms."""
    n = 4
    rng = random.Random(2424 + boundary)
    cases = 0
    for _ in range(150):
        f = rand_form(rng, n, boundary, max_terms=6, max_gens=3)
        g = rand_form(rng, n, boundary, max_terms=6, max_gens=3)
        if rng.random() < 0.5:  # share f's monomials, cancelling some coefficients
            g = g + f.scale(_rand_coefficient(rng)) - f
        coeff = _rand_coefficient(rng)
        pairs = [(f + g, reference_add(f, g)), (g + f, reference_add(g, f)),
                 (f - g, reference_sub(f, g)), (-f, reference_neg(f)),
                 (f.scale(coeff), reference_scale(f, coeff)),
                 (f.interior_dphi(), reference_interior_dphi(f)),
                 (g.evaluate_at_zero(), reference_evaluate_at_zero(g))]
        if boundary:
            pairs.append((g.base_degree_filter(), reference_base_degree_filter(g)))
        for got, want in pairs:
            assert got == want
            assert list(got.terms) == list(want.terms)
            cases += bool(want)
    assert cases > 500


def test_sum_keeps_a_monomial_whose_first_term_cancels_in_its_place():
    n = 3
    a, b = Form.omega(n, 1, 2), Form.omega(n, 2, 3)
    f = a.scale(TrigScalar.sin()) + b
    g = a.scale(TrigScalar.cos() - TrigScalar.sin())
    assert list((f + g).terms) == list(reference_add(f, g).terms) == list(f.terms)


def test_equal_elements_decode_to_equal_sorted_terms():
    """The decoded views are the one place that orders terms: elements built
    by different histories, with their packed terms stored in different
    orders, list the same sorted terms."""
    n = 3
    w = partial(Form.omega, n)
    a, b = w(1, 2), w(2, 3)
    f = a.scale(TrigScalar.sin()) + b
    g = a.scale(TrigScalar.cos() - TrigScalar.sin())
    u = partial(Form.coordinate, n)
    pairs = [(w(2, 3) + w(1, 2), w(1, 2) + w(2, 3)),
             (f + g, g + f),
             (TrigScalar.sin() + 1, 1 + TrigScalar.sin()),
             (ONE + TrigScalar.sin(), TrigScalar.sin() + ONE),
             ((u(3) + u(1)) * (w(2, 3) + w(1, 3)), (u(1) + u(3)) * (w(1, 3) + w(2, 3)))]
    for first, second in pairs:
        assert first == second
        assert list(first.terms) == list(second.terms) == sorted(first.terms)


def _oracle_mappings(n):
    """Constant, zero and non-constant even replacements, and a mapped odd
    w12 that sorts before the unmapped w23, on both algebras."""
    cos, sin = TrigScalar.cos(), TrigScalar.sin()
    interior = {
        (K_U, 1, 0): Form.scalar(n, -cos),
        (K_U, 2, 0): Form.zero(n),
        (K_U, 3, 0): Form.coordinate(n, 4).scale(2) - Form.curvature(n, 1, 2),
        (K_CURV, 1, 3): Form.curvature(n, 2, 4) + Form.omega(n, 1, 2) * Form.omega(n, 3, 4),
        (K_CURV, 2, 3): Form.scalar(n, Fraction(-3, 2)),
        (K_OMEGA, 1, 2): Form.omega(n, 3, 4) - Form.theta(n, 1).scale(cos),
        (K_THETA, 2, 0): Form.dphi(n).scale(sin) + Form.omega(n, 1, 4),
    }
    boundary = {
        (K_CURV, 1, 2): Form.scalar(n, -sin, True),
        (K_CURV, 1, 3): Form.zero(n, True),
        (K_CURVM, 2, 3): (Form.boundary_curvature(n, 2, 4)
                          + Form.omega(n, 1, 2, True) * Form.omega(n, 1, 3, True)),
        (K_OMEGA, 1, 2): Form.omega(n, 1, 3, True).scale(sin) + Form.dphi(n, 1, True),
        (K_DPHI, 1, 0): Form.omega(n, 3, 4, True) - Form.dphi(n, 1, True).scale(cos),
    }
    return interior, boundary


def test_substitute_matches_reference_on_random_forms():
    n = 4
    interior, boundary = _oracle_mappings(n)
    rng = random.Random(17)
    for is_boundary, mapping in ((False, interior), (True, boundary)):
        for _ in range(300):
            f = rand_form(rng, n, is_boundary, max_terms=6, max_gens=4)
            assert f.substitute(mapping) == reference_substitute(f, mapping)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chern_substitutions_match_reference(n, monkeypatch):
    """Polar normalization, boundary specialization and frame rotation agree
    with the reference on the secondary form."""
    substitute, seen = Form.substitute, []

    def checked(f, mapping, boundary=None):
        out = substitute(f, mapping, boundary)
        assert not out.is_zero and out == reference_substitute(f, mapping, boundary)
        seen.append(mapping)
        return out

    monkeypatch.setattr(Form, "substitute", checked)
    phi = build_phi(n).phi
    polar_substitute(phi)
    rotate_frame(phi, 1, 2)
    special = specialize_boundary(phi)
    if n > 3:
        rotate_frame(special, 2, 3)
    assert len(seen) == 3 + (n > 3)


def test_substitute_chain_of_prefixes_matches_reference():
    """Group keys that share prefixes but no suffix, met out of sorted
    order: each suffix sum of Horner's scheme holds one group's terms."""
    n = 5
    th = {a: (K_THETA, a, 0) for a in range(1, 6)}
    mapping = {gen: (Form.omega(n, a, a % 5 + 1).scale(TrigScalar.sin(a))
                     + Form.coordinate(n, 6 - a) * Form.theta(n, a % 5 + 1)
                     + Form.curvature(n, 1, 2) * Form.omega(n, a, (a + 1) % 5 + 1))
               for a, gen in th.items()}
    rng = random.Random(55)
    for _ in range(40):
        f = Form.zero(n)
        for key in ((1, 2, 3), (1, 4), (1, 2, 5), (2,)):
            term = Form.scalar(n, monomial(rng.randint(-4, 4) or 1,
                                           sin=rng.randint(0, 1),
                                           cos=rng.randint(0, 1)))
            if rng.random() < 0.5:
                term = term * Form.coordinate(n, rng.randint(1, n))
            if rng.random() < 0.5:
                term = term * Form.omega(n, *rng.sample(range(1, n + 1), 2))
            f = f + term * Form(n, {((), tuple(th[a] for a in key)): ONE})
        assert f.substitute(mapping) == reference_substitute(f, mapping)


def test_substitute_horner_edge_cases_match_reference():
    """The groups Horner's scheme could get wrong: a repeated non-constant
    even generator (W13^2 u3 th2), a group with no mapped generator beside
    mapped ones, a zero constant replacement (u2), and mapped tuples that
    share suffixes but no prefix (u3 w12 th2, W13 w12 th2, w12 th2, th2)."""
    n = 4
    mapping, _ = _oracle_mappings(n)
    u, th, W, w = (partial(make, n) for make in
                   (Form.coordinate, Form.theta, Form.curvature, Form.omega))
    sin = Form.scalar(n, TrigScalar.sin(2))
    cases = [
        W(1, 3) * W(1, 3) * u(3) * th(2),
        sin * w(2, 3) * u(4) + W(1, 3) * th(2) + w(3, 4).scale(3),
        u(2) * th(2) + u(2) * W(1, 3) * w(2, 3) + u(1) * w(3, 4),
        (u(3) * w(1, 2) * th(2) + W(1, 3) * w(1, 2) * th(2).scale(Fraction(-2, 3))
         + sin * w(1, 2) * th(2) * w(3, 4) + th(2) * u(4)),
    ]
    for f in cases:
        got = f.substitute(mapping)
        assert not got.is_zero and got == reference_substitute(f, mapping)
    killed = u(2) * th(2) + u(2) * W(1, 3) * w(2, 3)
    assert killed.substitute(mapping).is_zero
    assert (killed + w(3, 4)).substitute(mapping) == w(3, 4)


def test_wedge_matches_reference_in_value_and_term_order():
    n = 6
    w = partial(Form.omega, n)
    # w12*w34 cancels at the second term of f and comes back at the third
    f = w(1, 2) + w(3, 4) + Form.scalar(n, 1)
    g = w(3, 4) + w(1, 2) + w(5, 6) + w(1, 2) * w(3, 4)
    forms = [(f, g)]
    rng = random.Random(4242)
    for is_boundary in (False, True):
        for _ in range(200):
            forms.append(tuple(rand_form(rng, 4, is_boundary, max_terms=6, max_gens=3)
                               for _ in range(2)))
    for f, g in forms:
        got, want = f * g, reference_mul(f, g)
        assert got == want
        assert list(got.terms) == sorted(want.terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_d_matches_reference_on_random_forms(n):
    rng = random.Random(2000 + n)
    for is_boundary in (False, True):
        for _ in range(150):
            f = rand_form(rng, n, is_boundary, max_terms=6, max_gens=4)
            assert f.d() == reference_d(f)


def test_render_golden():
    n = 2
    f = Form.coordinate(n, 1) * Form.theta(n, 2) - Form.coordinate(n, 2) * Form.theta(n, 1)
    assert f.render() == "(1)*u1*th2 + (-1)*u2*th1"
    assert Form.zero(n).render() == "0"


def test_differential_of_dphi_is_zero():
    n = 2
    assert Form.dphi(n).d().is_zero
