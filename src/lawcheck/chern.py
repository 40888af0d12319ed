"""Named forms of the transgression machinery and their identity checks.

Builds, over the free algebra of :mod:`lawcheck.algebra`:

* the permutation families Phi_k and the secondary form Phi on the sphere
  bundle, plus the Euler curvature form (zero in odd dimensions);
* the boundary specialization that reduces the structure group to the
  stabilizer of the outward normal (two nonzero fiber coordinates, one
  angle);
* the boundary form family PhiM(i, j) over the index region D1, the
  fiber-angle functions T = cos^p sin^q (``_power_tcs``) and its
  antiderivative I (``_integral_tcs``), the coefficients a(i, j) and A(i, j)
  made of them (``coefficient``), and the sums over D1 of a and A times PhiM
  (``region_sum``): the angular derivative Upsilon and the primitive Gamma.

Each check_* function returns a residual Form whose vanishing is the
verified identity.  The closed-manifold check normalizes through the exact
polar parametrization of the fiber sphere; the boundary checks hold formally.
``run_symbolic`` runs one of them by name.  This module is exact: the numeric
track compiles its forms into array templates elsewhere (``templates``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice, permutations

from .algebra import K_CURV, K_DPHI, K_THETA, K_U, Form
from .report import SymbolicReport
from .trig import ONE, SCALARS, Accumulator, TrigScalar, lowest_terms, sphere_volume

MAX_BUILD_N = 5


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def signed_permutations(k):
    """Every permutation of range(k) with its sign, in itertools order."""
    return tuple((p, perm_sign(p)) for p in permutations(range(k)))


def _alternating_sum(n, first, factors, boundary=False):
    """Sum over the permutations p of the indices first, first + 1, ... of
    sign(p) times the wedge of the factors, in order, accumulated once.  A
    factor is (width, make): make takes the next width permuted indices."""
    made = {}  # each factor form is made once, so it is packed once
    products = []
    for perm, sign in signed_permutations(sum(width for width, _ in factors)):
        indices = iter([first + i for i in perm])
        product = [sign]
        for width, make in factors:
            args = (make, *islice(indices, width))
            if args not in made:
                made[args] = make(*args[1:])
            product.append(made[args])
        products.append(product)
    return Form.wedge_sum(n, products, boundary)


@lru_cache(maxsize=None)
def phi_normalization(n: int) -> TrigScalar:
    """The constant 1 / ((n-2)!! c_{n-1}) that normalizes Phi, with c_{n-1}
    the volume of the unit (n-1)-sphere (a rational times a power of pi)."""
    [((d, _), coeff)] = sphere_volume(n - 1).terms.items()
    return TrigScalar.pi_power(-d, 1 / (coeff * double_factorial(n - 2)))


# -- the secondary form family ------------------------------------------------

@dataclass(frozen=True)
class PhiFamily:
    n: int
    phi_k: tuple[Form, ...]          # unnormalized permutation sums
    phi: Form                        # normalized secondary form, degree n-1
    euler: Form                      # Euler curvature form, degree n (0 if odd)


@lru_cache(maxsize=None)
def build_phi(n: int) -> PhiFamily:
    if not 2 <= n <= MAX_BUILD_N:
        raise ValueError(f"supported ambient dimensions are 2..{MAX_BUILD_N}, got {n}")
    u, theta, curv = (partial(make, n) for make in
                      (Form.coordinate, Form.theta, Form.curvature))
    phi_k = tuple(_alternating_sum(n, 1, [(1, u)] + [(1, theta)] * (n - 2 * k - 1)
                                   + [(2, curv)] * k)
                  for k in range((n - 1) // 2 + 1))

    weights = (Fraction((-1) ** k, 2 ** k * math.factorial(k) * double_factorial(n - 2 * k - 1))
               for k in range(len(phi_k)))
    phi = Form.wedge_sum(n, [(1, Form.scalar(n, phi_normalization(n) * w), part)
                             for w, part in zip(weights, phi_k)])

    euler = Form.zero(n)
    if n % 2 == 0:
        m = n // 2
        scale = TrigScalar.pi_power(
            -m, Fraction((-1) ** m, 2 ** (2 * m) * math.factorial(m)))
        euler = _alternating_sum(n, 1, [(2, curv)] * m).scale(scale)

    return PhiFamily(n, phi_k, phi, euler)


# -- polar parametrization of the fiber sphere --------------------------------

@lru_cache(maxsize=None)
def polar_coordinates(n: int) -> tuple[TrigScalar, ...]:
    """Fiber coordinates as iterated sin/cos products of n-1 formal angles."""
    out = []
    for a in range(1, n + 1):
        mono = TrigScalar.rational(1)
        for i in range(1, a):
            mono = mono * TrigScalar.sin(i)
        if a < n:
            mono = mono * TrigScalar.cos(a)
        out.append(mono)
    return tuple(out)


@lru_cache(maxsize=None)
def _polar_theta(n: int) -> tuple[Form, ...]:
    coords = polar_coordinates(n)
    out = []
    for a in range(1, n + 1):
        theta = Form.scalar(n, coords[a - 1]).d()
        for b in range(1, n + 1):
            if b != a:
                theta = theta + Form.omega(n, b, a) * coords[b - 1]
        out.append(theta)
    return tuple(out)


def polar_substitute(f: Form) -> Form:
    """Substitute the polar fiber parametrization for the u and theta generators.

    This is a differential-algebra morphism that kills the sphere relations
    sum u^2 = 1 and sum u theta = 0, so identities of the bundle normalize to
    the genuine zero Form.
    """
    n = f.n
    if f.boundary:
        raise ValueError("polar substitution applies to the interior algebra")
    if f.angles():
        raise ValueError("polar substitution needs constant coefficients; "
                         "the fiber angles would collide")
    mapping = {(K_U, a, 0): Form.scalar(n, c) for a, c in enumerate(polar_coordinates(n), 1)}
    mapping.update({(K_THETA, a, 0): th for a, th in enumerate(_polar_theta(n), 1)})
    return f.substitute(mapping)


def check_dphi(n: int) -> Form:
    """Residual of the transgression equation on the closed bundle.

    Returns d(Phi) + Euler after polar normalization; the contract is the
    zero Form.
    """
    fam = build_phi(n)
    return polar_substitute(fam.phi.d() + fam.euler)


# -- boundary specialization ---------------------------------------------------

def specialize_boundary(f: Form) -> Form:
    """Restrict a sphere-bundle form to the boundary-adapted frame.

    Substitutes the two-coordinate fiber slice (u_1, u_n) = (cos, sin) of the
    boundary angle, the induced expressions for the tautological forms, and
    eliminates interior curvature among tangential indices through the
    induced-metric curvature.
    """
    n = f.n
    cos, sin = TrigScalar.cos(), TrigScalar.sin()
    dphi_plus = Form.dphi(n, 1, True) + Form.omega(n, 1, n, True)
    mapping = {
        (K_U, 1, 0): Form.scalar(n, cos, True),
        (K_U, n, 0): Form.scalar(n, sin, True),
        (K_THETA, 1, 0): dphi_plus.scale(-sin),
        (K_THETA, n, 0): dphi_plus.scale(cos),
    }
    for al in range(2, n):
        mapping[(K_U, al, 0)] = Form.zero(n, True)
        mapping[(K_THETA, al, 0)] = (Form.omega(n, 1, al, True).scale(cos)
                                     - Form.omega(n, al, n, True).scale(sin))
    for s in range(2, n + 1):
        for t in range(s + 1, n + 1):
            mapping[(K_CURV, s, t)] = (Form.boundary_curvature(n, s, t)
                                       + Form.omega(n, 1, s, True) * Form.omega(n, 1, t, True))
    return f.substitute(mapping, boundary=True)


# -- coefficient functions -----------------------------------------------------

def region_d1(n: int):
    """Index region of the nonzero boundary forms: i, j >= 0, 2i + j <= n - 2."""
    return [(i, j) for i in range((n - 2) // 2 + 1) for j in range(n - 1 - 2 * i)]


def coefficient(n, i, j, primitive):
    """The coefficient of PhiM(i, j): a(i, j) with the primitive
    ``_power_tcs`` (T), A(i, j) with ``_integral_tcs`` (I), its terms summed in
    one accumulator and normalized once."""
    acc = Accumulator(SCALARS)
    for k in range(i, (n - j) // 2):
        num = (-1) ** (n + j + k) * double_factorial(n - 2 * k - 2)
        den = (2 ** k * math.factorial(j) * math.factorial(n - 2 * k - j - 2)
               * math.factorial(i) * math.factorial(k - i))
        acc.add_product(primitive(n - 2 * k - j - 2, j), TrigScalar.rational(num, den))
    return TrigScalar._new(*lowest_terms(acc.num, acc.den))


@lru_cache(maxsize=None)
def _power_tcs(p, q):
    """cos^p sin^q, one product from a cached lower power."""
    if p:
        return _power_tcs(p - 1, q) * TrigScalar.cos()
    return _power_tcs(0, q - 1) * TrigScalar.sin() if q else ONE


@lru_cache(maxsize=None)
def _integral_tcs(p, q):
    """Antiderivative of cos^p sin^q vanishing at 0, in closed trig form."""
    if q == 0:
        if p == 0:
            return TrigScalar.phi()
        if p == 1:
            return TrigScalar.sin()
        prev = _integral_tcs(p - 2, 0)
        return (_power_tcs(p - 1, 1) + TrigScalar.rational(p - 1) * prev) / Fraction(p)
    if q == 1:
        return (ONE - _power_tcs(p + 1, 0)) / Fraction(p + 1)
    head = -_power_tcs(p + 1, q - 1)
    prev = _integral_tcs(p, q - 2)
    return (head + TrigScalar.rational(q - 1) * prev) / Fraction(p + q)


# -- boundary form family ------------------------------------------------------

@lru_cache(maxsize=None)
def boundary_form(n: int, i: int, j: int) -> Form:
    """Permutation sum over the tangential indices with i curvature pairs,
    j forms toward the projected direction, and connection forms toward the
    normal filling the rest; zero outside the region D1."""
    if (i, j) not in region_d1(n):
        return Form.zero(n, boundary=True)
    to_normal = (1, lambda s: Form.omega(n, 1, s, True))
    curv = (2, partial(Form.boundary_curvature, n))
    to_direction = (1, lambda s: Form.omega(n, s, n, True))
    return _alternating_sum(n, 2, [to_normal] * (n - 2 * i - j - 2) + [curv] * i
                            + [to_direction] * j, boundary=True)


def region_sum(n: int, primitive) -> Form:
    """The sum over D1 of coefficient(n, i, j, primitive) / ((n-2)!! c_{n-1})
    times PhiM(i, j): Upsilon with ``_power_tcs``, Gamma with ``_integral_tcs``."""
    inv_norm = phi_normalization(n)
    return Form.wedge_sum(n, [(1, Form.scalar(n, coefficient(n, i, j, primitive) * inv_norm, True),
                               boundary_form(n, i, j)) for (i, j) in region_d1(n)], boundary=True)


@dataclass(frozen=True)
class BoundaryFamily:
    n: int
    phi: Form              # the secondary form specialized to the boundary
    upsilon: Form          # its interior product
    gamma: Form            # transgression primitive, degree n - 2


@lru_cache(maxsize=None)
def boundary_family(n: int) -> BoundaryFamily:
    if n < 2:
        raise ValueError("boundary machinery needs ambient dimension >= 2")
    phi = specialize_boundary(build_phi(n).phi)
    return BoundaryFamily(n, phi, phi.interior_dphi(), region_sum(n, _integral_tcs))


def build_upsilon_and_check(n: int) -> Form:
    """Residual of the concrete angular-derivative formula; contract: zero."""
    return boundary_family(n).upsilon - region_sum(n, _power_tcs)


def build_gamma_and_check(n: int) -> Form:
    """Residual of d(Gamma) = Phi - (Phi at angle 0) on the boundary algebra."""
    fam = boundary_family(n)
    return fam.gamma.d() - (fam.phi - fam.phi.evaluate_at_zero())


def check_boundary_closure(n: int) -> Form:
    """d of the specialized secondary form, after imposing the boundary
    dimension on semibasic monomials; contract: zero."""
    return boundary_family(n).phi.d().base_degree_filter()


# -- frame-rotation invariance --------------------------------------------------

def rotate_frame(f: Form, p: int, q: int) -> Form:
    """Substitute the constant rational rotation with cosine 3/5 in the (p, q)
    plane for every frame index of every generator.  The boundary algebra
    keeps the normal 1 and the direction n fixed, so its plane is tangential:
    2 <= p < q <= n - 1."""
    n = f.n
    lo, hi = (2, n - 1) if f.boundary else (1, n)
    if not lo <= p < q <= hi:
        raise ValueError(f"rotation plane indices must satisfy {lo} <= p < q <= {hi}")
    rows = {p: ((p, Fraction(3, 5)), (q, Fraction(-4, 5))),
            q: ((p, Fraction(4, 5)), (q, Fraction(3, 5)))}
    mapping = {}
    for evens, odds in f.terms:
        for gen in evens + odds:
            kind, a, b = gen
            if kind == K_DPHI or gen in mapping or not {a, b} & {p, q}:
                continue
            image = Form.zero(n, f.boundary)
            for c, gc in rows.get(a, ((a, 1),)):
                for d, gd in rows.get(b, ((b, 1),)):
                    rotated = Form.generator(n, kind, c, d, f.boundary)
                    image = image + rotated.scale(gc * gd)
            mapping[gen] = image
    return f.substitute(mapping)


# -- identity checks by name --------------------------------------------------------

# the suite's identities; the boundary ones start at dimension 3
SYMBOLIC_CHECKS = [(ident, n) for ident, first in (("dphi", 2), ("upsilon", 3), ("gamma", 3))
                   for n in range(first, MAX_BUILD_N + 1)]


def run_symbolic(identity, n) -> SymbolicReport:
    t0 = time.perf_counter()
    if identity == "dphi":
        residual = check_dphi(n)
    elif identity == "upsilon":
        residual = build_upsilon_and_check(n)
    elif identity == "gamma":
        residual = build_gamma_and_check(n)
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return SymbolicReport(name=f"symbolic-{identity}-n{n}", identity=identity,
                          dimension=n, residual_terms=len(residual),
                          passed=residual.is_zero,
                          wall_time_s=time.perf_counter() - t0)
