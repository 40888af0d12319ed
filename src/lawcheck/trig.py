"""Exact coefficient ring for the symbolic track.

Elements are rational linear combinations of monomials

    pi^d * prod_i  phi_i^a_i * sin(phi_i)^b_i * cos(phi_i)^c_i

over a finite set of formal angles phi_1, phi_2, ...  The pi power may be
negative (unit sphere volumes are rational multiples of integer pi powers).
Every cos-exponent is at most 1, which makes the representation canonical,
and the form is fraction-free: integer numerators per monomial over one
positive common denominator that shares no factor with all of them, the zero
element being no numerator over 1.  So two elements are equal iff their
numerators and denominators are.

A monomial is keyed by one non-negative int, a row of FIELD_BITS-bit fields
from the least significant end: d + PI_BIAS, then the phi, sin and cos
exponents of angle 1, of angle 2, and so on.  An absent angle is three zero
fields, so every monomial has exactly one key, and a key over angles 1..m
takes (3m + 1) * FIELD_BITS bits (128 at the five fiber angles of n = 6).
The top bit of each field is a guard that a valid key keeps clear, so a
field holds 0..MAX_EXP (127), d runs over -PI_BIAS..MAX_EXP - PI_BIAS
(-64..63) and angle ids over 1..MAX_ANGLE (32).  Every key an operation
makes has its guards checked, and a set guard raises OverflowError, so no
key is ever silently changed.

The key of a product of two monomials is k1 + k2 - PI_BIAS.  Two in-range
fields sum below 2 ** FIELD_BITS, so no carry crosses a field; an exponent
past MAX_EXP sets its guard bit, and so does a pi power below -PI_BIAS,
whose field borrows from the one above.  A cos^2 appears exactly at the cos
bits of k1 & k2, and the product's split is the ring's one rewrite
cos^2 -> 1 - sin^2: it clears those cos fields and, once per such angle,
appends to its (key, coeff) pairs their negated copies with that angle's sin
field raised by 2, so m shared angles give 2 ** m pairs.  The constructor
accepts any cos power and builds each term as its cos-free monomial times
cos(angle) once per power, so the split reduces it.  ``deriv`` and
``eval_angle`` compute their keys in normal form directly.

A ring element and a form of ``algebra`` store one representation,
``Packed``: packed terms over one denominator.  A packed term is one int,
(coefficient key << shift) plus the generator bits that ``Packing`` lays
out below it (``SCALARS`` has none, so a ring element's keys are its
coefficient keys), with one integer numerator.  Sums, ``deriv``,
``eval_angle`` and ``angles`` are written once over the packing's shift.
``mul_into`` is the one product loop, for ``__mul__`` and for the wedge,
``d`` and substitution of ``algebra``: per pair of terms, a mask test for a
repeated odd generator, a popcount for the Koszul sign, one addition, one
guard test and the split.  An ``Accumulator`` sums such products as raw
integer numerators over one denominator, raised by lcm only when a
product's does not divide it, with no gcd taken; the sum is normalized once,
when it becomes a result.

``terms`` decodes the keys to {(d, ((angle, phi, sin, cos), ...)): Fraction}
with the angles ascending and the keys sorted.  It is the one place that
orders a ring element's terms, so equal elements decode to equal lists; no
operation orders its result.  Angle 1 is the distinguished boundary angle;
higher angles only appear in the fiber-sphere parametrization used by the
symbolic identity checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm

# The key that ``terms`` gives: (pi_power, angles), where angles is an
# ascending tuple of (angle_id, phi_exp, sin_exp, cos_exp) entries with at
# least one nonzero exponent and cos_exp in {0, 1}.  Inside an element the key
# is one int whose field 3a - 2 + j holds exponent j (phi, sin, cos) of angle a.
TermKey = tuple[int, tuple[tuple[int, int, int, int], ...]]

FIELD_BITS = 8
MAX_EXP = (1 << FIELD_BITS - 1) - 1
PI_BIAS = 1 << FIELD_BITS - 2
MAX_ANGLE = 32
_FIELD = (1 << FIELD_BITS) - 1
_ANGLE = (1 << 3 * FIELD_BITS) - 1  # the three fields of one angle
_COS = sum(1 << 3 * a * FIELD_BITS for a in range(1, MAX_ANGLE + 1))
_GUARDS = sum(1 << (f + 1) * FIELD_BITS - 1 for f in range(3 * MAX_ANGLE + 1))
_OVERFLOW = "exponent overflow in a monomial key"


def _phi_shift(angle):
    """Bit offset of the angle's phi field, for an angle id in 1..MAX_ANGLE."""
    if not 1 <= angle <= MAX_ANGLE:
        raise ValueError(f"angle ids run over 1..{MAX_ANGLE}, got {angle}")
    return (3 * angle - 2) * FIELD_BITS


def _encode(d, angles):
    """Key of pi^d times the (angle_id, phi, sin, cos) entries, any cos power."""
    if not -PI_BIAS <= d <= MAX_EXP - PI_BIAS:
        raise OverflowError(f"pi power {d} is outside the key's range")
    key = d + PI_BIAS
    for aid, *exps in angles:
        shift = _phi_shift(aid)
        for j, e in enumerate(exps):
            if not 0 <= e <= MAX_EXP:
                raise OverflowError(f"exponent {e} is outside the key's range")
            key += e << shift + j * FIELD_BITS
    if key & _GUARDS:
        raise OverflowError(_OVERFLOW)
    return key


def _angle_exps(key):
    """Yield (angle_id, phi, sin, cos) for each angle with a nonzero field."""
    key >>= FIELD_BITS
    aid = 1
    while key:
        if key & _ANGLE:
            yield aid, key & _FIELD, key >> FIELD_BITS & _FIELD, key >> 2 * FIELD_BITS & _FIELD
        key >>= 3 * FIELD_BITS
        aid += 1


def _decode(key) -> TermKey:
    return (key & _FIELD) - PI_BIAS, tuple(_angle_exps(key))


def _make(num, den):
    """Wrap canonical numerators (no zeros, gcd with den already 1)."""
    out = TrigScalar.__new__(TrigScalar)
    out.num = num
    out.den = den
    return out


def lowest_terms(num, den):
    """Divide nonzero numerators and den by their common factor."""
    if not num:
        return num, 1
    if den > 1:
        g = gcd(den, *num.values())
        if g > 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    return num, den


class Packing:
    """The generator bits that a packed term carries below its coefficient key.

    A packed term is a pair: one int key, (coefficient key << shift) plus
    generator bits, and its integer numerator.  The generator bits, masked by
    ``low``, are ``odd``, one bit per odd generator, and count fields whose
    guard bits are ``low_guards``; ``guards`` holds every guard bit of a
    packed key.  Bit p of ``below(odd)``, cached per mask, is the parity of
    the number of the mask's bits above p.  ``SCALARS`` packs coefficient
    keys alone.
    """

    __slots__ = ("shift", "low", "odd", "guards", "bias", "cos", "_below")

    def __init__(self, shift, odd, low_guards):
        self.shift = shift
        self.low = (1 << shift) - 1
        self.odd = odd
        self.guards = _GUARDS << shift | low_guards
        self.bias = PI_BIAS << shift
        self.cos = _COS << shift
        self._below = {}

    def below(self, odd):
        out = self._below.get(odd)
        if out is None:
            out, rest = 0, odd
            while rest:  # every odd bit flips the parity of the bits below it
                low = rest & -rest
                rest ^= low
                out ^= low - 1
            self._below[odd] = out
        return out


SCALARS = Packing(0, 0, 0)


def mul_into(num, xs, ys, packing, scale):
    """Add scale * x * y into the raw numerators num in place, taking no gcd,
    for every packed term x of xs and y of the re-iterable ys.

    The product of two terms is one loop step.  A shared odd generator gives
    0.  The Koszul sign of sorting the odd generators of x then y is the
    parity of the pairs (p in x, q in y) with p above q, which is
    popcount(y's odd bits & below(x's odd bits)).  The key is k1 + k2 -
    bias, one guard test covers every field, and a shared cos splits into
    2 ** m pairs.
    """
    get = num.get
    odd, bias, guards, cos = packing.odd, packing.bias, packing.guards, packing.cos
    for k1, c1 in xs:
        o1 = k1 & odd
        if o1:
            b1 = packing.below(o1)
        cos1 = k1 & cos
        c1 *= scale
        for k2, c2 in ys:
            if o1:
                if o1 & k2:
                    continue
                if (b1 & k2).bit_count() & 1:
                    c2 = -c2
            key = k1 + k2 - bias
            if key & guards:
                raise OverflowError(_OVERFLOW)
            shared = cos1 & k2
            if not shared:
                new = get(key, 0) + c1 * c2
                if new:
                    num[key] = new
                else:
                    del num[key]
                continue
            pairs = [(key - 2 * shared, c1 * c2)]
            while shared:  # each cos^2 -> 1 - sin^2 doubles the pairs
                sin2 = 2 * ((shared & -shared) >> FIELD_BITS)
                shared &= shared - 1
                pairs += [(k + sin2, -c) for k, c in pairs]
                # the last pair has every sin raised so far
                if pairs[-1][0] & guards:
                    raise OverflowError(_OVERFLOW)
            for key, c in pairs:
                new = get(key, 0) + c
                if new:
                    num[key] = new
                else:
                    del num[key]


class Accumulator:
    """A sum of products of packed operands, each anything with numerators
    ``num`` over ``den`` (a ring element, a form, an accumulator): raw
    numerators over one common denominator, raised by lcm only when a
    product's does not divide it."""

    __slots__ = ("packing", "num", "den")

    def __init__(self, packing, num=None, den=1):
        self.packing = packing
        self.num: dict[int, int] = {} if num is None else num
        self.den = den

    def add_product(self, x, y, scale=1):
        """Add scale * x * y."""
        pden = x.den * y.den
        den = self.den
        if den % pden:
            f = lcm(den, pden) // den
            num = self.num
            for key in num:
                num[key] *= f
            self.den = den = den * f
        mul_into(self.num, x.num.items(), y.num.items(), self.packing, scale * (den // pden))


class Packed:
    """Packed terms over one denominator: ``num`` maps each packed key to a
    nonzero integer numerator, and ``den`` > 0 shares no factor with all of
    them (zero is no numerator over 1), so two elements are equal iff their
    numerators and denominators are.  A subclass gives ``packing``, ``_new``
    (wrap canonical numerators) and ``_coerce`` (the other operand in its
    algebra, or NotImplemented).
    """

    __slots__ = ("num", "den")

    def _reduced(self, num, den):
        """An element of self's algebra: nonzero numerators num over den,
        divided by their common factor."""
        return self._new(*lowest_terms(num, den))

    # -- sums ----------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        out = dict(self.num)
        if f1 > 1:
            out = {key: val * f1 for key, val in out.items()}
        for key, val in other.num.items():
            new = out.get(key, 0) + val * f2
            if new:
                out[key] = new
            else:
                del out[key]
        return self._reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    # -- calculus, on every coefficient at once ------------------------------

    def deriv(self, angle=1):
        """Derivative with respect to the given formal angle, in normal form."""
        out: dict[int, int] = {}
        guards = self.packing.guards

        def emit(key, coeff):
            if key & guards:
                raise OverflowError(_OVERFLOW)
            out[key] = out.get(key, 0) + coeff

        shift = _phi_shift(angle) + self.packing.shift
        dp, ds, dc = 1 << shift, 1 << shift + FIELD_BITS, 1 << shift + 2 * FIELD_BITS
        for key, coeff in self.num.items():
            p, s, c = (key >> shift + j * FIELD_BITS & _FIELD for j in range(3))
            if p:
                emit(key - dp, coeff * p)
            if s and c:  # s sin^(s-1) cos^2 = s sin^(s-1) - s sin^(s+1)
                emit(key - ds - dc, coeff * s)
                emit(key + ds - dc, -coeff * s)
            elif s:
                emit(key - ds + dc, coeff * s)
            if c:
                emit(key + ds - dc, -coeff)
        return self._reduced({k: v for k, v in out.items() if v}, self.den)

    def eval_angle(self, angle, at):
        """Substitute the angle at one of the exact points '0', 'pi', 'pi/2'."""
        if at not in ("0", "pi", "pi/2"):
            raise ValueError(f"unsupported evaluation point {at!r}")
        pi, guards = self.packing.shift, self.packing.guards
        shift = _phi_shift(angle) + pi
        # (pi/2)^p = pi^p / 2^p, so at pi/2 every numerator goes over den * 2^top
        top = max((k >> shift & _FIELD for k in self.num), default=0) if at == "pi/2" else 0
        out: dict[int, int] = {}
        for key, coeff in self.num.items():
            fields = key >> shift & _ANGLE
            p, s, c = fields & _FIELD, fields >> FIELD_BITS & _FIELD, fields >> 2 * FIELD_BITS
            if at == "0":
                if p or s:
                    continue
            elif at == "pi":
                if s:
                    continue
                if c:
                    coeff = -coeff
            elif c:
                continue
            else:
                coeff <<= top - p
            key += (p << pi) - (fields << shift)  # clear the angle, raise pi by p (0 at '0')
            if key & guards:
                raise OverflowError(_OVERFLOW)
            out[key] = out.get(key, 0) + coeff
        return self._reduced({k: v for k, v in out.items() if v}, self.den << top)

    def angles(self):
        union = 0  # an angle's fields are nonzero in the union iff in some key
        for key in self.num:
            union |= key
        return {aid for aid, *_ in _angle_exps(union >> self.packing.shift)}

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)


class TrigScalar(Packed):
    """Canonical-form element of the exact trig/pi coefficient ring."""

    __slots__ = ()
    packing = SCALARS
    _new = staticmethod(_make)

    def __init__(self, terms=None):
        # every key is checked before any product is taken
        fracs = [(_encode(*key), Fraction(c)) for key, c in (terms or {}).items()]
        total = _make({}, 1)
        for key, coeff in fracs:
            if coeff:
                cos = [aid for aid, _, _, c in _angle_exps(key) for _ in range(c)]
                key -= sum(1 << 3 * aid * FIELD_BITS for aid in cos)
                term = _make({key: coeff.numerator}, coeff.denominator)
                for aid in cos:  # the product splits each cos^2
                    term = term * TrigScalar.cos(aid)
                total = total + term
        self.num, self.den = total.num, total.den

    @property
    def terms(self) -> dict[TermKey, Fraction]:
        decoded = {_decode(key): v for key, v in self.num.items()}
        return {key: Fraction(decoded[key], self.den) for key in sorted(decoded)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _make({}, 1)

    @classmethod
    def rational(cls, num, den=1):
        return cls.pi_power(0, Fraction(num, den))

    @classmethod
    def pi_power(cls, d, coeff=1):
        coeff = Fraction(coeff)
        return _make({_encode(d, ()): coeff.numerator} if coeff else {}, coeff.denominator)

    @classmethod
    def phi(cls):
        return _make({_encode(0, ((1, 1, 0, 0),)): 1}, 1)

    @classmethod
    def sin(cls, angle=1):
        return _make({_encode(0, ((angle, 0, 1, 0),)): 1}, 1)

    @classmethod
    def cos(cls, angle=1):
        return _make({_encode(0, ((angle, 0, 0, 1),)): 1}, 1)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TrigScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return TrigScalar.rational(other)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        mul_into(out, self.num.items(), other.num.items(), SCALARS, 1)
        return self._reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * TrigScalar.rational(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def to_float(self):
        """The value of a constant element, its terms summed by math.fsum; an
        element with angles raises ValueError (``templates.trig_values``
        evaluates those)."""
        if self.angles():
            raise ValueError(f"to_float needs a constant, got {self.render()}")
        # int true division rounds correctly, as float(Fraction) does
        return math.fsum(v / self.den * math.pi ** (k - PI_BIAS) for k, v in self.num.items())

    # -- rendering ---------------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        parts = []
        for (d, angles), coeff in self.terms.items():
            factors = []
            if coeff.denominator == 1:
                if abs(coeff) != 1 or (d == 0 and not angles):
                    factors.append(str(abs(coeff)))
            else:
                factors.append(f"{abs(coeff.numerator)}/{coeff.denominator}")
            if d:
                factors.append("pi" if d == 1 else f"pi^{d}")
            for aid, p, s, c in angles:
                tag = "" if aid == 1 else str(aid)
                if p:
                    factors.append(f"phi{tag}" + (f"^{p}" if p > 1 else ""))
                if s:
                    factors.append(f"sin{tag}" + (f"^{s}" if s > 1 else ""))
                if c:
                    factors.append(f"cos{tag}")
            term = "*".join(factors) or "1"
            parts.append(("-" if coeff < 0 else "+", term))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self):
        return f"TrigScalar({self.render()})"


ZERO = TrigScalar.zero()
ONE = TrigScalar.rational(1)


def sphere_volume(m):
    """Exact volume of the unit m-sphere as a TrigScalar (rational * pi^k)."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    if m % 2:  # S^(2k-1) has volume 2 pi^k / (k-1)!
        k = (m + 1) // 2
        return TrigScalar.pi_power(k, Fraction(2, math.factorial(k - 1)))
    k = m // 2  # S^(2k) has volume 2 (4^k) k! pi^k / (2k)!
    coeff = Fraction(2 * 4**k * math.factorial(k), math.factorial(2 * k))
    return TrigScalar.pi_power(k, coeff)
