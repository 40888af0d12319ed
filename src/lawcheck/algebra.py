"""Free graded-commutative differential algebra over the frame-form generators.

Generator vocabulary (indices range in 1..n):

* ``w(A,B)``   connection 1-forms, antisymmetric, stored with A < B;
* ``W(A,B)``   curvature 2-forms, antisymmetric, stored with A < B;
* ``WM(s,t)``  boundary curvature 2-forms of the induced metric, 2 <= s < t;
* ``th(A)``    tautological 1-forms of the sphere bundle;
* ``u(A)``     fiber coordinate 0-forms;
* ``dphi_i``   differentials of the formal angles of the coefficient ring.

A Form is a finite sum coefficient * monomial with TrigScalar coefficients.
Monomials keep even generators (u, W, WM) as a sorted multiset and odd
generators (w, th, dphi) as a sorted duplicate-free tuple; sorting odd factors
tracks the Koszul sign, so equality is coefficient comparison.

A Form stores what a TrigScalar stores (``trig.Packed``), packed terms over
one denominator, with the layout ``_layout(n)`` for ``trig.SCALARS``.  It
gives every generator of both algebras its place in a monomial key: bits
0.. hold one bit per odd generator, dphi_1..dphi_32 then w(a,b) then th(a),
in the sorted order of the (kind, a, b) tuples, and above them lie one
guarded FIELD_BITS-bit count field per even generator, u(a), W(a,b) and
WM(s,t).  The coefficient key sits above, so a term is one int and a Form
is its own operand of ``trig.mul_into``.  The wedge, both parts of ``d``
and the permutation sums of ``chern`` each run that loop into one
``trig.Accumulator``, normalized once into a Form; the substitution runs it
in Horner's scheme, each accumulated sum of terms times one image of a
mapped generator, and normalizes its last sum once.  Sums,
``deriv`` and ``eval_angle`` are the ring's own; the interior product with
dphi_1 (bit 0, so no sign) and the semibasic filter are bit tests.  No
operation orders its result.  Tuple monomials enter only through the
constructor, which rejects a non-canonical one, and leave only through
``terms``, a decoded view in sorted monomial order, so equal Forms decode
to equal lists.

Two modes share the data structure.  The full algebra models the sphere
bundle over the interior: dw(A,B) = W(A,B) + sum_C w(A,C)w(C,B), the Bianchi
rewrite for dW, du(A) = th(A) - sum u(B)w(B,A) and the derived rule for dth.
The boundary algebra models the restriction to the boundary with the normal
index 1 split off: u/th are gone, dw(s,t) closes through WM(s,t), W(1,s)
survives as a free generator, and its differential eliminates interior
curvature through W(s,t) = WM(s,t) + w(1,s)w(1,t).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from .trig import (FIELD_BITS, MAX_ANGLE, MAX_EXP, ONE, Accumulator, Packed, Packing, TrigScalar,
                   lowest_terms)

# generator kind codes; odd kinds sort before a monomial's theta tail
K_DPHI, K_OMEGA, K_THETA = 0, 1, 2
K_U, K_CURV, K_CURVM = 3, 4, 5

_ODD = (K_DPHI, K_OMEGA, K_THETA)
_PAIRS = (K_OMEGA, K_CURV, K_CURVM)
DEGREE = {K_DPHI: 1, K_OMEGA: 1, K_THETA: 1, K_U: 0, K_CURV: 2, K_CURVM: 2}

Gen = tuple[int, int, int]
Monomial = tuple[tuple[Gen, ...], tuple[Gen, ...]]  # (evens, odds)

_DPHI1 = 1  # the key bit of dphi_1, the first odd generator of every layout


def mono_degree(mono):
    evens, odds = mono
    return sum(DEGREE[g[0]] for g in evens) + len(odds)


def _gen_name(gen):
    kind, a, b = gen
    if kind == K_DPHI:
        return "dphi" if a == 1 else f"dphi{a}"
    if kind == K_OMEGA:
        return f"w{a}{b}"
    if kind == K_THETA:
        return f"th{a}"
    if kind == K_U:
        return f"u{a}"
    if kind == K_CURV:
        return f"W{a}{b}"
    return f"WM{a}{b}"


def _mono_name(mono):
    evens, odds = mono
    return "*".join(_gen_name(g) for g in evens + odds) or "1"


def _form(n, boundary, num, den):
    """Wrap canonical numerators of packed terms as a Form."""
    out = Form.__new__(Form)
    out.n, out.boundary, out.num, out.den = n, boundary, num, den
    return out


def _sum_form(n, boundary, acc):
    """An accumulated sum as a Form, normalized once."""
    return _form(n, boundary, *lowest_terms(acc.num, acc.den))


class Form(Packed):
    """Element of the graded algebra; immutable by convention."""

    __slots__ = ("n", "boundary")

    def __init__(self, n, terms=None, boundary=False):
        self.n = n
        self.boundary = boundary
        layout = _layout(n)
        items = [(layout.key(mono), coeff) for mono, coeff in (terms or {}).items() if coeff]
        # coefficients in lowest terms stay in lowest terms over their lcm
        self.den = den = lcm(*(coeff.den for _, coeff in items))
        self.num = {(k << layout.shift) + bits: v * (den // coeff.den)
                    for bits, coeff in items for k, v in coeff.num.items()}

    @property
    def packing(self):
        return _layout(self.n)

    def _new(self, num, den):
        return _form(self.n, self.boundary, num, den)

    @property
    def terms(self) -> dict[Monomial, TrigScalar]:
        """{monomial: coefficient}, decoded, the monomials sorted: the one
        place that orders a Form's terms."""
        layout = _layout(self.n)
        shift, low, mono = layout.shift, layout.low, layout.mono
        parts: dict[Monomial, dict[int, int]] = {}
        for key, v in self.num.items():
            parts.setdefault(mono(key & low), {})[key >> shift] = v
        return {m: TrigScalar._new(*lowest_terms(parts[m], self.den)) for m in sorted(parts)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, boundary=False):
        return _form(n, boundary, {}, 1)

    @classmethod
    def scalar(cls, n, coeff, boundary=False):
        if isinstance(coeff, (int, Fraction)):
            coeff = TrigScalar.rational(coeff)
        shift = _layout(n).shift
        return _form(n, boundary, {k << shift: v for k, v in coeff.num.items()}, coeff.den)

    @classmethod
    def generator(cls, n, kind, a, b=0, boundary=False):
        """The generator (kind, a, b) with coefficient 1.  A pair kind is
        antisymmetric: a > b gives minus (kind, b, a) and a == b gives 0.

        This is the one check of a generator: its kind must be known and its
        indices in range, 1..n (2..n for WM), a dphi angle in the coefficient
        ring's 1..MAX_ANGLE, and b is 0 for a kind with one index."""
        gen = (kind, a, b)
        if kind not in DEGREE:
            raise ValueError(f"unknown generator kind {kind} in {gen}")
        lo, hi = (1, MAX_ANGLE) if kind == K_DPHI else (2 if kind == K_CURVM else 1, n)
        if not (lo <= a <= hi and (lo <= b <= hi if kind in _PAIRS else b == 0)):
            raise ValueError(f"generator {_gen_name(gen)} {gen} needs indices "
                             f"in {lo}..{hi} at n = {n}")
        sign = 1
        if kind in _PAIRS:
            if a == b:
                return cls.zero(n, boundary)
            if a > b:
                a, b, sign = b, a, -1
        layout = _layout(n)
        return _form(n, boundary, {layout.bias + layout.units[(kind, a, b)]: sign}, 1)

    @classmethod
    def omega(cls, n, a, b, boundary=False):
        return cls.generator(n, K_OMEGA, a, b, boundary)

    @classmethod
    def curvature(cls, n, a, b, boundary=False):
        return cls.generator(n, K_CURV, a, b, boundary)

    @classmethod
    def boundary_curvature(cls, n, s, t):
        return cls.generator(n, K_CURVM, s, t, boundary=True)

    @classmethod
    def theta(cls, n, a):
        return cls.generator(n, K_THETA, a)

    @classmethod
    def coordinate(cls, n, a):
        return cls.generator(n, K_U, a)

    @classmethod
    def dphi(cls, n, angle=1, boundary=False):
        return cls.generator(n, K_DPHI, angle, boundary=boundary)

    @staticmethod
    def wedge_sum(n, products, boundary=False):
        """The sum of the products (k, f1, ..., fm), each the integer k times
        the wedge f1 ... fm (1 for m = 0), accumulated once."""
        layout = _layout(n)
        one = Form.scalar(n, ONE, boundary)
        acc = Accumulator(layout)
        for k, *forms in products:
            *heads, last = forms or [one]
            head = heads[0] if heads else one
            for factor in heads[1:]:
                step = Accumulator(layout)
                step.add_product(head, factor)
                head = step
            acc.add_product(head, last, k)
        return _sum_form(n, boundary, acc)

    # -- algebra -----------------------------------------------------------

    def _compatible(self, other):
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")
        if self.boundary != other.boundary:
            raise ValueError("cannot mix boundary and interior algebra forms")

    def _coerce(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._compatible(other)
        return other

    def __mul__(self, other):
        """Wedge product (scalars act as 0-forms)."""
        if isinstance(other, (int, Fraction, TrigScalar)):
            return self.scale(other)
        if not isinstance(other, Form):
            return NotImplemented
        self._compatible(other)
        return Form.wedge_sum(self.n, [(1, self, other)], self.boundary)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, TrigScalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, coeff):
        """Every coefficient times coeff."""
        acc = Accumulator(_layout(self.n))
        acc.add_product(self, Form.scalar(self.n, coeff, self.boundary))
        return self._reduced(acc.num, acc.den)

    # -- differential ------------------------------------------------------

    def d(self):
        """d(c m) = sum_i dphi_i (dc/dphi_i) m + c sum_g s_g d(g) (m / g).

        d(g) has the parity opposite to g's, so it moves to the front of the
        rest of m with no sign but the Leibniz one: s_g is the count of an
        even g, and (-1)^j for the odd g at position j among m's odd
        generators.  One accumulator takes both sums."""
        layout = _layout(self.n)
        acc = Accumulator(layout)
        for angle in sorted(self.angles()):
            acc.add_product(Form.dphi(self.n, angle, self.boundary), self.deriv(angle))
        leibniz: dict[int, list] = {}  # monomial bits -> [(g, unit of g, s_g)]
        quotients: dict[Gen, Accumulator] = {}  # g -> the terms m / g, times s_g
        for key, c in self.num.items():
            bits = key & layout.low
            if bits not in leibniz:  # the sign of an odd g: (-1)^(odd bits below it)
                leibniz[bits] = [(gen, unit, count if not unit & layout.odd
                                  else -1 if (bits & unit - 1).bit_count() % 2 else 1)
                                 for gen, unit, count in layout.factors(bits)]
            for gen, unit, factor in leibniz[bits]:
                if gen not in quotients:
                    quotients[gen] = Accumulator(layout, den=self.den)
                quotients[gen].num[key - unit] = c * factor
        for gen, rest in quotients.items():
            dg = _d_generator(gen, self.n, self.boundary)
            if dg:
                acc.add_product(dg, rest)
        return _sum_form(self.n, self.boundary, acc)

    def interior_dphi(self):
        """Interior product with the vector field dual to dphi (odd
        derivation).  dphi_1 comes first among the odd generators, so
        removing it changes no sign."""
        return self._reduced({k - _DPHI1: v for k, v in self.num.items() if k & _DPHI1},
                             self.den)

    def evaluate_at_zero(self):
        """Set the boundary angle to 0 and kill every dphi monomial."""
        kept = {k: v for k, v in self.num.items() if not k & _DPHI1}
        return self._reduced(kept, self.den).eval_angle(1, "0")

    # -- boundary dimension bookkeeping -------------------------------------

    def base_degree_filter(self):
        """Drop monomials whose semibasic degree exceeds the boundary
        dimension n - 1."""
        if not self.boundary:
            raise ValueError("the semibasic filter lives on the boundary algebra")
        layout = _layout(self.n)
        return self._reduced({k: v for k, v in self.num.items()
                              if layout.base_degree(k & layout.low) <= self.n - 1}, self.den)

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping, boundary=None):
        """Replace generators by forms; unmapped generators pass through.

        A monomial moves its mapped odd generators behind the unmapped ones
        (the sign of that shuffle is right because every replacement has its
        generator's parity, else ValueError) and its terms join the group of
        those that share its mapped generators S, times the product of its
        constant replacements: a sum K_S.  The images multiply out in
        Horner's scheme, from the last factor of S,

            sum_S K_S img(S_1) ... img(S_k)
                = K_() + sum_g H({S[:-1]: K_S : S[-1] = g}) img(g),

        with H the same sum over the shorter groups.  So no product of
        images is formed: one sum per distinct suffix of the groups, longest
        first, is multiplied by the image of the factor before the suffix,
        in the monomial's order, and joins the sum of the shorter suffix.
        Every product accumulates raw, and the sum of the empty suffix is
        normalized once at the end.
        """
        if boundary is None:
            boundary = self.boundary
        target = Form.zero(self.n, boundary)  # the algebra of the result
        layout = _layout(self.n)
        low, odd = layout.low, layout.odd
        consts = {}  # constant replacements; an odd generator's can only be 0
        for gen, rep in mapping.items():
            target._compatible(rep)
            if any((key & odd).bit_count() % 2 != DEGREE[gen[0]] % 2 for key in rep.num):
                raise ValueError(f"replacement for {_gen_name(gen)} has the wrong parity")
            if not any(key & low for key in rep.num):
                consts[gen] = rep
        plans: dict[int, tuple | None] = {}  # bits -> (mapped, fixed, kept bits, sign)
        groups: dict[tuple, dict[tuple, dict[int, int]]] = {}  # mapped -> fixed -> terms
        for key, c in self.num.items():
            bits = key & low
            if bits not in plans:
                plan = mapped, fixed = [], []
                kept = moved = flips = 0
                for gen, unit, count in layout.factors(bits):
                    if gen in consts:
                        if not consts[gen]:
                            plan = None
                            break
                        fixed += [gen] * count
                    elif gen in mapping:
                        mapped += [gen] * count
                        moved += gen[0] in _ODD
                    else:
                        kept += unit * count
                        if gen[0] in _ODD:
                            flips += moved
                plans[bits] = plan and (tuple(mapped), tuple(fixed), kept,
                                        -1 if flips % 2 else 1)
            if plans[bits]:
                mapped, fixed, kept, sign = plans[bits]
                group = groups.setdefault(mapped, {})
                group.setdefault(fixed, {})[key - bits + kept] = sign * c
        fixed_products = {(): Form.scalar(self.n, ONE, boundary)}
        sums: dict[tuple, Accumulator] = {}  # s -> the terms of the groups S + s, times img(S)
        for mapped, group in groups.items():
            terms = sums[mapped] = Accumulator(layout)
            for fixed, part in group.items():
                if fixed not in fixed_products:
                    fixed_products[fixed] = Form.wedge_sum(
                        self.n, [(1, *(consts[gen] for gen in fixed))], boundary)
                terms.add_product(Accumulator(layout, part, self.den), fixed_products[fixed])
        for size in range(max(map(len, sums), default=0), 0, -1):
            for suffix in [s for s in sums if len(s) == size]:
                rest = sums.setdefault(suffix[1:], Accumulator(layout))
                rest.add_product(sums.pop(suffix), mapping[suffix[0]])
        return _sum_form(self.n, boundary, sums.get((), Accumulator(layout)))

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.n == other.n and self.boundary == other.boundary
                and self.den == other.den and self.num == other.num)

    def __len__(self):
        """The number of monomials, not of packed terms."""
        low = _layout(self.n).low
        return len({key & low for key in self.num})

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def render(self):
        terms = self.terms
        if not terms:
            return "0"
        return " + ".join(f"({terms[mono].render()})*{_mono_name(mono)}"
                          for mono in sorted(terms, key=lambda m: (mono_degree(m), m)))

    def __repr__(self):
        kind = "boundary" if self.boundary else "interior"
        return f"Form(n={self.n}, {kind}, {len(self)} terms)"


# -- packed terms -------------------------------------------------------------

class _Layout(Packing):
    """The monomial keys of packed terms at one n, for both algebras, laid
    out as the module docstring says.  ``key`` and ``mono`` translate a
    canonical tuple monomial to its key and back, each translation cached;
    ``key`` rejects a monomial that is not canonical with ValueError and a
    count past MAX_EXP with OverflowError.
    """

    __slots__ = ("n", "odd_gens", "even_gens", "units", "normal", "_keys", "_monos")

    def __init__(self, n):
        self.n = n
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        odds = ([(K_DPHI, a, 0) for a in range(1, MAX_ANGLE + 1)]
                + [(K_OMEGA, a, b) for a, b in pairs] + [(K_THETA, a, 0) for a in range(1, n + 1)])
        evens = ([(K_U, a, 0) for a in range(1, n + 1)] + [(K_CURV, a, b) for a, b in pairs]
                 + [(K_CURVM, a, b) for a, b in pairs if a > 1])
        offsets = [len(odds) + f * FIELD_BITS for f in range(len(evens))]
        super().__init__(len(odds) + len(evens) * FIELD_BITS, (1 << len(odds)) - 1,
                         sum(1 << p + FIELD_BITS - 1 for p in offsets))
        self.odd_gens, self.even_gens = odds, evens
        self.units = dict(zip(odds, (1 << p for p in range(len(odds)))))
        self.units.update(zip(evens, (1 << p for p in offsets)))
        self.normal = sum(self.units[(K_OMEGA, 1, b)] for b in range(2, n + 1))  # w(1,b)
        self._keys: dict[Monomial, int] = {}
        self._monos: dict[int, Monomial] = {}

    def key(self, mono):
        """The generator bits of a monomial, which must be canonical: even
        generators sorted, then odd ones strictly increasing."""
        key = self._keys.get(mono)
        if key is None:
            evens, odds = mono
            if not (all(g[0] not in _ODD for g in evens) and list(evens) == sorted(evens)
                    and all(g[0] in _ODD for g in odds)
                    and all(g < h for g, h in zip(odds, odds[1:]))):
                raise ValueError(f"monomial {_mono_name(mono)} {mono} is not canonical: "
                                 "it needs sorted evens, then strictly increasing odds")
            try:
                key = sum([self.units[gen] for gen in evens + odds])
            except KeyError as missing:
                raise ValueError(f"no generator {missing} at n = {self.n}") from None
            if len(evens) > MAX_EXP and max(Counter(evens).values()) > MAX_EXP:
                raise OverflowError("a generator count is outside its field")
            self._keys[mono] = key
        return key

    def factors(self, bits):
        """(generator, unit, count) of each generator of a monomial key, in
        the monomial's order: the even ones by field, then the odd ones by
        bit, each with count 1."""
        out = []
        rest, field = bits >> len(self.odd_gens), 0
        while rest:
            if rest & MAX_EXP:
                gen = self.even_gens[field]
                out.append((gen, self.units[gen], rest & MAX_EXP))
            rest >>= FIELD_BITS
            field += 1
        rest = bits & self.odd
        while rest:
            low = rest & -rest
            rest ^= low
            out.append((self.odd_gens[low.bit_length() - 1], low, 1))
        return out

    def mono(self, bits):
        mono = self._monos.get(bits)
        if mono is None:
            factors = self.factors(bits)
            mono = self._monos[bits] = (
                tuple(g for g, unit, count in factors if not unit & self.odd
                      for _ in range(count)),
                tuple(g for g, unit, _ in factors if unit & self.odd))
        return mono

    def base_degree(self, bits):
        """The degree of a monomial's semibasic factors, pulled back from the
        boundary: one per w(1,b) and two per W or WM, whose fields lie above
        the n fields of u."""
        degree = (bits & self.normal).bit_count()
        rest = bits >> len(self.odd_gens) + self.n * FIELD_BITS
        while rest:
            degree += 2 * (rest & MAX_EXP)
            rest >>= FIELD_BITS
        return degree


_layout = lru_cache(maxsize=None)(_Layout)  # one layout per n


# -- structure equations ----------------------------------------------------

@lru_cache(maxsize=None)
def _d_generator(gen, n, boundary):
    """Differential of one generator by the structure equations.

    dw(A,B) = W(A,B) + sum_C w(A,C) w(C,B) and the Bianchi identity
    dW(A,B) = sum_C (w(A,C) W(C,B) - W(A,C) w(C,B)) hold on both algebras:
    C runs over 1..n in the interior and over 2..n on the boundary, where
    W(C,D) stands for WM(C,D) unless C = 1.
    """
    kind, a, b = gen
    if boundary and kind in (K_U, K_THETA):
        raise ValueError("fiber coordinates and theta forms do not live on the "
                         "boundary algebra")
    if boundary and kind == K_CURV and a != 1:
        raise ValueError("interior curvature with both indices >= 2 "
                         "does not live on the boundary algebra")
    if not boundary and kind == K_CURVM:
        raise ValueError("boundary curvature in the interior algebra")

    if kind == K_DPHI:
        return None

    w = partial(Form.omega, n, boundary=boundary)
    th, u = partial(Form.theta, n), partial(Form.coordinate, n)

    def W(c, d):
        return Form.generator(n, K_CURVM if boundary and c != 1 else K_CURV, c, d, boundary)

    inner = range(2 if boundary else 1, n + 1)
    if kind == K_OMEGA:
        products = [(1, W(a, b))] + [(1, w(a, c), w(c, b)) for c in inner]
    elif kind in (K_CURV, K_CURVM):
        products = [p for c in inner for p in ((1, w(a, c), W(c, b)), (-1, W(a, c), w(c, b)))]
    elif kind == K_U:
        products = [(1, th(a))] + [(-1, u(c), w(c, a)) for c in inner]
    elif kind == K_THETA:
        products = [p for c in inner for p in ((1, th(c), w(c, a)), (1, u(c), W(c, a)))]
    else:
        raise ValueError(f"unknown generator kind {kind}")
    return Form.wedge_sum(n, products, boundary)
