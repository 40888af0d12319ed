"""Exact coefficient ring for the symbolic track.

Elements are rational linear combinations of monomials

    pi^d * prod_i  phi_i^a_i * sin(phi_i)^b_i * cos(phi_i)^c_i

over a finite set of formal angles phi_1, phi_2, ...  The cos-exponent of
every angle is kept at most 1 by the eager rewrite cos^2 -> 1 - sin^2, which
makes the representation canonical: an element is zero iff its term dict is
empty.  The pi power may be negative (normalization constants such as unit
sphere volumes are rational multiples of integer pi powers).

Angle 1 is the distinguished boundary angle; higher angles only appear in the
fiber-sphere parametrization used by the symbolic identity checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

# A term key is (pi_power, angles) where angles is a sorted tuple of
# (angle_id, phi_exp, sin_exp, cos_exp) entries with at least one nonzero
# exponent and cos_exp in {0, 1}.
TermKey = tuple[int, tuple[tuple[int, int, int, int], ...]]

_ZERO = Fraction(0)


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


class TrigScalar:
    """Canonical-form element of the exact trig/pi coefficient ring."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc: dict[TermKey, Fraction] = {}
        if terms:
            for (d, angles), coeff in terms.items():
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                for red, factor in _reduce_angles(_clean_angles(angles), coeff):
                    key = (d, _clean_angles(red))
                    val = acc.get(key, _ZERO) + factor
                    if val:
                        acc[key] = val
                    elif key in acc:
                        del acc[key]
        self.terms = acc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def rational(cls, num, den=1):
        return cls({(0, ()): Fraction(num, den)})

    @classmethod
    def pi_power(cls, d, coeff=1):
        return cls({(d, ()): Fraction(coeff)})

    @classmethod
    def phi(cls, angle=1):
        return cls({(0, ((angle, 1, 0, 0),)): Fraction(1)})

    @classmethod
    def sin(cls, angle=1):
        return cls({(0, ((angle, 0, 1, 0),)): Fraction(1)})

    @classmethod
    def cos(cls, angle=1):
        return cls({(0, ((angle, 0, 0, 1),)): Fraction(1)})

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
        out = dict(self.terms)
        for key, val in other.terms.items():
            new = out.get(key, _ZERO) + val
            if new:
                out[key] = new
            elif key in out:
                del out[key]
        result = TrigScalar.__new__(TrigScalar)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = TrigScalar.__new__(TrigScalar)
        result.terms = {k: -v for k, v in self.terms.items()}
        return result

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
        raw: dict[TermKey, Fraction] = {}
        for (d1, a1), c1 in self.terms.items():
            for (d2, a2), c2 in other.terms.items():
                merged: dict[int, list[int]] = {}
                for aid, p, s, c in a1 + a2:
                    e = merged.setdefault(aid, [0, 0, 0])
                    e[0] += p
                    e[1] += s
                    e[2] += c
                key = (d1 + d2,
                       tuple((aid, *e) for aid, e in sorted(merged.items())))
                raw[key] = raw.get(key, _ZERO) + c1 * c2
        return TrigScalar(raw)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = TrigScalar.rational(1)
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * TrigScalar.rational(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def deriv(self, angle=1):
        """Derivative with respect to the given formal angle."""
        raw: dict[TermKey, Fraction] = {}

        def emit(key, coeff):
            raw[key] = raw.get(key, _ZERO) + coeff

        for (d, angles), coeff in self.terms.items():
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
        return TrigScalar(raw)

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
            raw[key] = raw.get(key, _ZERO) + factor
        return TrigScalar(raw)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def angles(self):
        out = set()
        for _, angle_part in self.terms:
            out.update(a[0] for a in angle_part)
        return out

    def as_fraction(self):
        """Return the value as a Fraction if the element is a pure rational."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (d, angles), coeff = next(iter(self.terms.items()))
            if d == 0 and not angles:
                return coeff
        raise ValueError(f"not a pure rational: {self.render()}")

    def to_float(self, angle_values=None):
        angle_values = angle_values or {}
        total = 0.0
        for (d, angles), coeff in self.terms.items():
            val = float(coeff) * math.pi ** d
            for aid, p, s, c in angles:
                if aid not in angle_values:
                    raise ValueError(f"no value supplied for angle {aid}")
                x = angle_values[aid]
                val *= x ** p * np.sin(x) ** s * np.cos(x) ** c
            total += val
        return total

    # -- rendering ---------------------------------------------------------

    def render(self):
        if not self.terms:
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
