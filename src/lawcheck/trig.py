"""Exact coefficient ring for the symbolic track.

Elements are rational linear combinations of monomials

    pi^d * prod_i  phi_i^a_i * sin(phi_i)^b_i * cos(phi_i)^c_i

over a finite set of formal angles phi_1, phi_2, ...  The cos-exponent of
every angle is kept at most 1 by the eager rewrite cos^2 -> 1 - sin^2, which
makes the representation canonical.  The pi power may be negative
(normalization constants such as unit sphere volumes are rational multiples
of integer pi powers).

The canonical form is fraction-free: an element stores integer numerators
per monomial over one positive common denominator that shares no factor with
all of them, and the zero element is no numerator over 1.  So an element is
zero iff it has no numerators, and two elements are equal iff their
numerators and denominators are.

A monomial is keyed by one non-negative int, a row of FIELD_BITS-bit fields
from the least significant end: d + PI_BIAS, then the phi, sin and cos
exponents of angle 1, of angle 2, and so on.  An absent angle is three zero
fields, so every monomial has exactly one key, and a key over angles 1..m
takes (3m + 1) * FIELD_BITS bits (128 at the five fiber angles of n = 6).
The top bit of each field is a guard that a valid key keeps clear, so a
field holds 0..MAX_EXP (127), d runs over -PI_BIAS..MAX_EXP - PI_BIAS
(-64..63) and angle ids over 1..MAX_ANGLE (32).

The key of a product of two monomials is k1 + k2 - PI_BIAS.  Two in-range
fields sum below 2 ** FIELD_BITS, so no carry crosses a field; an exponent
past MAX_EXP sets its guard bit, and so does a pi power below -PI_BIAS,
whose field borrows from the one above.  Every product checks the guards and
raises OverflowError, so no key is ever silently changed.  Both
cos-exponents are at most 1, so a cos^2 appears exactly at the cos bits of
k1 & k2.  A product clears those cos fields and then, once per such angle,
appends to its (key, coeff) pairs their negated copies with that angle's sin
field raised by 2, so m shared angles give 2 ** m pairs.

``terms`` decodes the keys to {(d, ((angle, phi, sin, cos), ...)): Fraction}
with the angles ascending.

Angle 1 is the distinguished boundary angle; higher angles only appear in the
fiber-sphere parametrization used by the symbolic identity checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

# The key that ``terms`` gives: (pi_power, angles), where angles is an
# ascending tuple of (angle_id, phi_exp, sin_exp, cos_exp) entries with at
# least one nonzero exponent and cos_exp in {0, 1}.  Inside an element the key
# is one int, field 0 holding pi_power + PI_BIAS and field 3a - 2 + j exponent
# j (phi, sin, cos) of angle a.
TermKey = tuple[int, tuple[tuple[int, int, int, int], ...]]

FIELD_BITS = 8
MAX_EXP = (1 << FIELD_BITS - 1) - 1
PI_BIAS = 1 << FIELD_BITS - 2
MAX_ANGLE = 32
_FIELD = (1 << FIELD_BITS) - 1
_ANGLE = (1 << 3 * FIELD_BITS) - 1  # the three fields of one angle
_COS = sum(1 << 3 * a * FIELD_BITS for a in range(1, MAX_ANGLE + 1))
_COS_HIGH = _COS * (_FIELD - 1)  # a cos field at 2 or more
_GUARDS = sum(1 << (f + 1) * FIELD_BITS - 1 for f in range(3 * MAX_ANGLE + 1))
_OVERFLOW = "exponent overflow in a monomial key"


def _encode(d, angles):
    """Key of pi^d times the (angle_id, phi, sin, cos) entries, any cos power."""
    if not -PI_BIAS <= d <= MAX_EXP - PI_BIAS:
        raise OverflowError(f"pi power {d} is outside the key's range")
    key = d + PI_BIAS
    for aid, *exps in angles:
        if not 1 <= aid <= MAX_ANGLE:
            raise ValueError(f"angle ids run over 1..{MAX_ANGLE}, got {aid}")
        for j, e in enumerate(exps):
            if not 0 <= e <= MAX_EXP:
                raise OverflowError(f"exponent {e} is outside the key's range")
            key += e << (3 * aid - 2 + j) * FIELD_BITS
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


def _reduce_cos(key, coeff):
    """Yield (key, coeff) pairs with all cos-exponents of key reduced below 2."""
    high = key & _COS_HIGH
    if not high:
        if key & _GUARDS:
            raise OverflowError(_OVERFLOW)
        yield key, coeff
        return
    shift = (high & -high).bit_length() - 1
    shift -= shift % FIELD_BITS  # the cos field of the lowest such angle
    q, r = divmod(key >> shift & _FIELD, 2)
    base = key - (2 * q << shift)
    # cos^(2q+r) = (1 - sin^2)^q cos^r
    for t in range(q + 1):
        yield from _reduce_cos(base + (2 * t << shift - FIELD_BITS),
                               -coeff * comb(q, t) if t % 2 else coeff * comb(q, t))


def _make(num, den):
    """Wrap canonical numerators (no zeros, gcd with den already 1)."""
    out = TrigScalar.__new__(TrigScalar)
    out.num = num
    out.den = den
    return out


def _reduced(num, den):
    """Divide nonzero numerators and den by their common factor."""
    if not num:
        return _make(num, 1)
    if den > 1:
        g = gcd(den, *num.values())
        if g > 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    return _make(num, den)


def _canonical(raw, den):
    """Canonical element of {key: int} over den, any cos powers in the keys."""
    acc: dict[int, int] = {}
    for key, coeff in raw.items():
        if coeff:
            for red, factor in _reduce_cos(key, coeff):
                acc[red] = acc.get(red, 0) + factor
    return _reduced({k: v for k, v in acc.items() if v}, den)


class TrigScalar:
    """Canonical-form element of the exact trig/pi coefficient ring."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        fracs = [(_encode(*key), Fraction(c)) for key, c in (terms or {}).items()]
        den = lcm(*(f.denominator for _, f in fracs))
        raw: dict[int, int] = {}
        for key, f in fracs:
            raw[key] = raw.get(key, 0) + f.numerator * (den // f.denominator)
        canon = _canonical(raw, den)
        self.num = canon.num
        self.den = canon.den

    @property
    def terms(self) -> dict[TermKey, Fraction]:
        den = self.den
        return {_decode(key): Fraction(v, den) for key, v in self.num.items()}

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

    @classmethod
    def monomial(cls, coeff=1, pi=0, **angle_exps):
        """Build coeff * pi^pi * prod of phi/sin/cos powers.

        Keyword form: phi=a, sin=b, cos=c act on angle 1; phi2=..., sin3=...
        address higher angles.
        """
        per_angle: dict[int, list[int]] = {}
        for name, exp in angle_exps.items():
            base = name.rstrip("0123456789")
            aid = int(name[len(base):] or 1)
            slot = {"phi": 0, "sin": 1, "cos": 2}[base]
            per_angle.setdefault(aid, [0, 0, 0])[slot] = exp
        angles = tuple((aid, *exps) for aid, exps in sorted(per_angle.items()))
        return cls({(pi, angles): Fraction(coeff)})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TrigScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return TrigScalar.rational(other)
        return NotImplemented

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
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        get = out.get
        terms2 = other.num.items()
        for k1, c1 in self.num.items():
            cos1 = k1 & _COS
            for k2, c2 in terms2:
                key = k1 + k2 - PI_BIAS
                if key & _GUARDS:
                    raise OverflowError(_OVERFLOW)
                coeff = c1 * c2
                shared = cos1 & k2
                pairs = [(key - 2 * shared, coeff)]
                while shared:  # each cos^2 -> 1 - sin^2 doubles the pairs
                    sin2 = 2 * ((shared & -shared) >> FIELD_BITS)
                    shared &= shared - 1
                    pairs += [(k + sin2, -c) for k, c in pairs]
                    # the last pair has every sin raised so far
                    if pairs[-1][0] & _GUARDS:
                        raise OverflowError(_OVERFLOW)
                for key, c in pairs:
                    new = get(key, 0) + c
                    if new:
                        out[key] = new
                    else:
                        del out[key]
        return _reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * TrigScalar.rational(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def deriv(self, angle=1):
        """Derivative with respect to the given formal angle."""
        raw: dict[int, int] = {}

        def emit(key, coeff):
            raw[key] = raw.get(key, 0) + coeff

        shift = (3 * angle - 2) * FIELD_BITS  # the phi field of the angle
        dp, ds, dc = 1 << shift, 1 << shift + FIELD_BITS, 1 << shift + 2 * FIELD_BITS
        for key, coeff in self.num.items():
            p, s, c = (key >> shift + j * FIELD_BITS & _FIELD for j in range(3))
            if p:
                emit(key - dp, coeff * p)
            if s:
                emit(key - ds + dc, coeff * s)
            if c:
                emit(key + ds - dc, -coeff * c)
        return _canonical(raw, self.den)

    def eval_angle(self, angle, at):
        """Substitute the angle at one of the exact points '0', 'pi', 'pi/2'."""
        if at not in ("0", "pi", "pi/2"):
            raise ValueError(f"unsupported evaluation point {at!r}")
        raw: dict[TermKey, Fraction] = {}
        for (d, angles), coeff in self.terms.items():
            rest = []
            factor = coeff
            dpi = d
            dead = False
            for aid, p, s, c in angles:
                if aid != angle:
                    rest.append((aid, p, s, c))
                    continue
                if at == "0":
                    if p or s:
                        dead = True
                        break
                elif at == "pi":
                    if s:
                        dead = True
                        break
                    dpi += p
                    if c:
                        factor = -factor
                else:  # pi/2
                    if c:
                        dead = True
                        break
                    dpi += p
                    factor = factor / Fraction(2) ** p
            if dead:
                continue
            key = (dpi, tuple(rest))
            raw[key] = raw.get(key, 0) + factor
        return TrigScalar(raw)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def angles(self):
        union = 0  # an angle's fields are nonzero in the union iff in some key
        for key in self.num:
            union |= key
        return {aid for aid, *_ in _angle_exps(union)}

    def to_float(self, angle_values=None):
        angle_values = angle_values or {}
        total = 0.0
        for key, coeff in self.num.items():
            # int true division rounds correctly, as float(Fraction) does
            val = coeff / self.den * math.pi ** ((key & _FIELD) - PI_BIAS)
            for aid, p, s, c in _angle_exps(key):
                if aid not in angle_values:
                    raise ValueError(f"no value supplied for angle {aid}")
                x = angle_values[aid]
                val *= x ** p * np.sin(x) ** s * np.cos(x) ** c
            total += val
        return total

    # -- rendering ---------------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        parts = []
        for (d, angles), coeff in sorted(self.terms.items()):
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
