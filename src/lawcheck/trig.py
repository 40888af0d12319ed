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
numerators and denominators are.  A product of canonical elements merges
their sorted angle tuples; a shared angle needs at most one cos^2 split
because both cos-exponents are at most 1, so products never re-run the
general reduction.  ``terms`` gives the same element as {monomial: Fraction}.

Angle 1 is the distinguished boundary angle; higher angles only appear in the
fiber-sphere parametrization used by the symbolic identity checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

# A term key is (pi_power, angles) where angles is a sorted tuple of
# (angle_id, phi_exp, sin_exp, cos_exp) entries with at least one nonzero
# exponent and cos_exp in {0, 1}.
TermKey = tuple[int, tuple[tuple[int, int, int, int], ...]]


def _reduce_angles(angles, coeff):
    """Yield (angles, coeff) pairs with all cos-exponents reduced below 2."""
    for idx, (aid, p, s, c) in enumerate(angles):
        if c >= 2:
            q, r = divmod(c, 2)
            # cos^(2q+r) = (1 - sin^2)^q cos^r
            for t in range(q + 1):
                sign = -1 if t % 2 else 1
                entry = (aid, p, s + 2 * t, r)
                new = angles[:idx] + (entry,) + angles[idx + 1:]
                yield from _reduce_angles(new, coeff * comb(q, t) * sign)
            return
    yield angles, coeff


def _clean_angles(angles):
    return tuple(sorted(a for a in angles if a[1] or a[2] or a[3]))


def _merge_angles(a1, a2):
    """Product of two canonical angle tuples as ((angles, sign), ...)."""
    if not a1 or not a2:
        return ((a1 or a2, 1),)
    merged = []
    splits = []
    i = j = 0
    n1, n2 = len(a1), len(a2)
    while i < n1 and j < n2:
        x, y = a1[i], a2[j]
        if x[0] == y[0]:
            c = x[3] + y[3]
            if c == 2:  # cos^2 = 1 - sin^2
                splits.append(len(merged))
                c = 0
            merged.append((x[0], x[1] + y[1], x[2] + y[2], c))
            i += 1
            j += 1
        elif x[0] < y[0]:
            merged.append(x)
            i += 1
        else:
            merged.append(y)
            j += 1
    merged.extend(a1[i:])
    merged.extend(a2[j:])
    if not splits:
        return ((tuple(merged), 1),)
    # each split entry (aid, p, s, 0) stands for cos^2 = 1 - sin^2: keep it
    # (dropped when it is 1) with the sign, or lift it by sin^2 against it
    out = [((), 1)]
    start = 0
    for pos in splits:
        aid, p, s, _ = merged[pos]
        low = tuple(merged[start:pos + 1] if p or s else merged[start:pos])
        high = tuple(merged[start:pos]) + ((aid, p, s + 2, 0),)
        out = ([(head + low, sign) for head, sign in out]
               + [(head + high, -sign) for head, sign in out])
        start = pos + 1
    tail = tuple(merged[start:])
    return [(head + tail, sign) for head, sign in out]


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
    """Canonical element of {key: int} over den, with keys in any form."""
    acc: dict[TermKey, int] = {}
    for (d, angles), coeff in raw.items():
        if not coeff:
            continue
        for red, factor in _reduce_angles(_clean_angles(angles), coeff):
            key = (d, _clean_angles(red))
            acc[key] = acc.get(key, 0) + factor
    return _reduced({k: v for k, v in acc.items() if v}, den)


class TrigScalar:
    """Canonical-form element of the exact trig/pi coefficient ring."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        fracs = [(key, Fraction(c)) for key, c in (terms or {}).items()]
        den = lcm(*(f.denominator for _, f in fracs))
        canon = _canonical({key: f.numerator * (den // f.denominator)
                            for key, f in fracs}, den)
        self.num = canon.num
        self.den = canon.den

    @property
    def terms(self) -> dict[TermKey, Fraction]:
        den = self.den
        return {key: Fraction(v, den) for key, v in self.num.items()}

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
        return _make({(d, ()): coeff.numerator} if coeff else {}, coeff.denominator)

    @classmethod
    def phi(cls):
        return _make({(0, ((1, 1, 0, 0),)): 1}, 1)

    @classmethod
    def sin(cls, angle=1):
        return _make({(0, ((angle, 0, 1, 0),)): 1}, 1)

    @classmethod
    def cos(cls, angle=1):
        return _make({(0, ((angle, 0, 0, 1),)): 1}, 1)

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
        out: dict[TermKey, int] = {}
        get = out.get
        for (d1, a1), c1 in self.num.items():
            for (d2, a2), c2 in other.num.items():
                coeff = c1 * c2
                for angles, sign in _merge_angles(a1, a2):
                    key = (d1 + d2, angles)
                    new = get(key, 0) + (coeff if sign > 0 else -coeff)
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
        raw: dict[TermKey, int] = {}

        def emit(key, coeff):
            raw[key] = raw.get(key, 0) + coeff

        for (d, angles), coeff in self.num.items():
            for idx, (aid, p, s, c) in enumerate(angles):
                if aid != angle:
                    continue
                rest = angles[:idx] + angles[idx + 1:]
                if p:
                    emit((d, rest + ((aid, p - 1, s, c),)), coeff * p)
                if s:
                    emit((d, rest + ((aid, p, s - 1, c + 1),)), coeff * s)
                if c:
                    emit((d, rest + ((aid, p, s + 1, c - 1),)), -coeff * c)
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
        out = set()
        for _, angle_part in self.num:
            out.update(a[0] for a in angle_part)
        return out

    def to_float(self, angle_values=None):
        angle_values = angle_values or {}
        total = 0.0
        for (d, angles), coeff in self.num.items():
            # int true division rounds correctly, as float(Fraction) does
            val = coeff / self.den * math.pi ** d
            for aid, p, s, c in angles:
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
