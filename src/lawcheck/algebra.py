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

Products run on packed terms (``trig.Packing``).  At each n one layout
(``_Layout``) gives every generator of both algebras its place in a
monomial key: bits 0.. hold one bit per odd generator, dphi_1..dphi_32 then
w(a,b) then th(a), in the sorted order of the (kind, a, b) tuples, and above
them lie one guarded FIELD_BITS-bit count field per even generator, u(a),
W(a,b) and WM(s,t), built like the coefficient key's fields.  The
coefficient key sits above the monomial key, so one term, monomial and
coefficient, is one int, and the product of two terms is one step of
``trig.mul_into``: the odd bits' AND rejects a repeated odd generator, the
Koszul sign is a popcount parity, and one addition with one guard test
makes the key.  The wedge, both parts of ``d``, the substitution's group
products and prefix chain, and the permutation sums of ``chern`` each run
that loop into one ``trig.Accumulator``, decoded once into a Form whose
terms are in sorted monomial order.  ``Form.terms`` stays the public dict
keyed by tuple monomials.

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
from functools import lru_cache
from math import lcm

from .trig import FIELD_BITS, MAX_ANGLE, MAX_EXP, ONE, Accumulator, Packing, TrigScalar

# generator kind codes; odd kinds sort before a monomial's theta tail
K_DPHI, K_OMEGA, K_THETA = 0, 1, 2
K_U, K_CURV, K_CURVM = 3, 4, 5

_ODD = (K_DPHI, K_OMEGA, K_THETA)
_PAIRS = (K_OMEGA, K_CURV, K_CURVM)
DEGREE = {K_DPHI: 1, K_OMEGA: 1, K_THETA: 1, K_U: 0, K_CURV: 2, K_CURVM: 2}

Gen = tuple[int, int, int]
Monomial = tuple[tuple[Gen, ...], tuple[Gen, ...]]  # (evens, odds)

_EMPTY_MONO: Monomial = ((), ())


def mono_degree(mono):
    evens, odds = mono
    return sum(DEGREE[g[0]] for g in evens) + len(odds)


def add_term(terms, mono, coeff):
    """Add coeff * mono into a Form's term dict in place, dropping zeros."""
    prev = terms.get(mono)
    new = coeff if prev is None else prev + coeff
    if new:
        terms[mono] = new
    elif prev is not None:
        del terms[mono]


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


class Form:
    """Element of the graded algebra; immutable by convention."""

    __slots__ = ("n", "boundary", "terms")

    def __init__(self, n, terms=None, boundary=False):
        self.n = n
        self.boundary = boundary
        self.terms: dict[Monomial, TrigScalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self.terms[mono] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, boundary=False):
        return cls(n, boundary=boundary)

    @classmethod
    def scalar(cls, n, coeff, boundary=False):
        if isinstance(coeff, (int, Fraction)):
            coeff = TrigScalar.rational(coeff)
        return cls(n, {_EMPTY_MONO: coeff}, boundary=boundary)

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
        sign = ONE
        if kind in _PAIRS:
            if a == b:
                return cls.zero(n, boundary)
            if a > b:
                a, b, sign = b, a, -ONE
        gen = (kind, a, b)
        mono = ((), (gen,)) if kind in _ODD else ((gen,), ())
        return cls(n, {mono: sign}, boundary=boundary)

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
        the wedge f1 ... fm (1 for m = 0), accumulated once.  A form that
        several products share is packed once."""
        layout = _layout(n)
        packed = {}  # by id: ``products`` keeps every form alive

        def pack(f):
            if id(f) not in packed:
                packed[id(f)] = layout.pack(f.terms.items())
            return packed[id(f)]

        acc = Accumulator(layout)
        for k, *forms in products:
            factors = [pack(f) for f in forms] or [layout.one]
            head = factors[0] if len(factors) > 1 else layout.one
            for factor in factors[1:-1]:
                step = Accumulator(layout)
                step.add_product(head, factor)
                head = step.packed()
            acc.add_product(head, factors[-1], k)
        return layout.form(acc, boundary)

    # -- algebra -----------------------------------------------------------

    def _compatible(self, other):
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")
        if self.boundary != other.boundary:
            raise ValueError("cannot mix boundary and interior algebra forms")

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._compatible(other)
        res = Form(self.n, boundary=self.boundary)
        res.terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            add_term(res.terms, mono, coeff)
        return res

    def __neg__(self):
        res = Form(self.n, boundary=self.boundary)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

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
        if isinstance(coeff, (int, Fraction)):
            coeff = TrigScalar.rational(coeff)
        res = Form(self.n, boundary=self.boundary)
        for mono, c in self.terms.items():
            new = c * coeff
            if new:
                res.terms[mono] = new
        return res

    # -- differential ------------------------------------------------------

    def d(self):
        """d(c m) = sum_i dphi_i (dc/dphi_i) m + c sum_g s_g d(g) (m / g).

        d(g) has the parity opposite to g's, so it moves to the front of the
        rest of m with no sign but the Leibniz one: s_g is the count of an
        even g, and (-1)^j for the odd g at position j among m's odd
        generators.  One accumulator takes both sums."""
        layout = _layout(self.n)
        acc = Accumulator(layout)
        by_angle: dict[int, list] = {}
        for mono, coeff in self.terms.items():
            for angle in coeff.angles():
                by_angle.setdefault(angle, []).append((mono, coeff.deriv(angle)))
        for angle, items in by_angle.items():
            acc.add_product(layout.term(K_DPHI, angle, 0), layout.pack(items))
        units, leibniz = layout.units, {}  # monomial key -> [(g, unit of g, s_g)]
        for evens, odds in self.terms:
            leibniz[layout.key((evens, odds))] = (
                [(g, units[g], count) for g, count in Counter(evens).items()]
                + [(g, units[g], -1 if j % 2 else 1) for j, g in enumerate(odds)])
        den, terms = layout.pack(self.terms.items())
        quotients: dict[Gen, list] = {}
        for key, c in terms:
            for gen, unit, factor in leibniz[key & layout.low]:
                quotients.setdefault(gen, []).append((key - unit, c * factor))
        for gen, rest in quotients.items():
            dg = _d_generator(gen, self.n, self.boundary)
            if dg:
                acc.add_product(layout.pack(dg.terms.items()), (den, rest))
        return layout.form(acc, self.boundary)

    def interior_dphi(self):
        """Interior product with the vector field dual to dphi (odd derivation)."""
        target = (K_DPHI, 1, 0)
        out = Form.zero(self.n, self.boundary)
        for (evens, odds), coeff in self.terms.items():
            for pos, gen in enumerate(odds):
                if gen == target:
                    sign = -1 if pos % 2 else 1
                    mono = (evens, odds[:pos] + odds[pos + 1:])
                    add_term(out.terms, mono, coeff if sign > 0 else -coeff)
                    break
        return out

    def evaluate_at_zero(self):
        """Set the boundary angle to 0 and kill every dphi monomial."""
        out = Form.zero(self.n, self.boundary)
        target = (K_DPHI, 1, 0)
        for (evens, odds), coeff in self.terms.items():
            if target in odds:
                continue
            c = coeff.eval_angle(1, "0")
            if c:
                add_term(out.terms, (evens, odds), c)
        return out

    # -- boundary dimension bookkeeping -------------------------------------

    @staticmethod
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

    def base_degree_filter(self):
        """Drop monomials whose semibasic degree exceeds the boundary
        dimension n - 1."""
        if not self.boundary:
            raise ValueError("the semibasic filter lives on the boundary algebra")
        res = Form(self.n, boundary=self.boundary)
        for mono, coeff in self.terms.items():
            if self._base_degree(mono) <= self.n - 1:
                res.terms[mono] = coeff
        return res

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping, boundary=None):
        """Replace generators by forms; unmapped generators pass through.

        A term folds constant replacements into its coefficient, moves its
        other mapped odd generators behind the unmapped ones (the sign of
        that shuffle is right because every replacement has its generator's
        parity, else ValueError), and joins the group of terms that share
        those mapped generators.  Groups are walked in sorted order, so keys
        with a common prefix are adjacent: each multiplies out one product
        of replacements from its prefix's product, and only the live chain
        of prefix products is kept, packed.  Every product accumulates raw
        into one accumulator, normalized once at the end.
        """
        if boundary is None:
            boundary = self.boundary
        target = Form.zero(self.n, boundary)  # the algebra of the result
        consts = {}  # constant replacements; an odd generator's can only be 0
        for gen, rep in mapping.items():
            target._compatible(rep)
            if any(mono_degree(m) % 2 != DEGREE[gen[0]] % 2 for m in rep.terms):
                raise ValueError(f"replacement for {_gen_name(gen)} has the wrong parity")
            if rep.terms.keys() <= {_EMPTY_MONO}:
                consts[gen] = rep.coefficient_of(_EMPTY_MONO)
        groups: dict[tuple[Gen, ...], list[tuple[Monomial, TrigScalar]]] = {}
        for (evens, odds), coeff in self.terms.items():
            kept_evens, kept_odds, key = [], [], []
            moved = flips = 0
            for gen in evens + odds:
                if gen in consts:
                    if not consts[gen]:
                        break
                    coeff = coeff * consts[gen]
                elif gen in mapping:
                    key.append(gen)
                    moved += gen[0] in _ODD
                elif gen[0] in _ODD:
                    kept_odds.append(gen)
                    flips += moved
                else:
                    kept_evens.append(gen)
            else:
                groups.setdefault(tuple(key), []).append(
                    ((tuple(kept_evens), tuple(kept_odds)), -coeff if flips % 2 else coeff))
        layout = _layout(self.n)
        acc = Accumulator(layout)
        reps = {}
        prev, chain = (), [layout.one]  # chain[k]: prev[:k]'s product, packed
        for key in sorted(groups):
            k = 0
            while k < min(len(key), len(prev)) and key[k] == prev[k]:
                k += 1
            del chain[k + 1:]
            for gen in key[k:]:
                if gen not in reps:
                    reps[gen] = layout.pack(mapping[gen].terms.items())
                step = Accumulator(layout)
                step.add_product(chain[-1], reps[gen])
                chain.append(step.packed())
            prev = key
            acc.add_product(layout.pack(groups[key]), chain[-1])
        return layout.form(acc, boundary)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.n == other.n and self.boundary == other.boundary
                and self.terms == other.terms)

    def __len__(self):
        return len(self.terms)

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def coefficient_of(self, mono: Monomial):
        return self.terms.get(mono, TrigScalar.zero())

    def render(self):
        if not self.terms:
            return "0"
        lines = []
        for mono in sorted(self.terms, key=lambda m: (mono_degree(m), m)):
            coeff = self.terms[mono]
            evens, odds = mono
            gens = "*".join(_gen_name(g) for g in evens + odds) or "1"
            lines.append(f"({coeff.render()})*{gens}")
        return " + ".join(lines)

    def __repr__(self):
        kind = "boundary" if self.boundary else "interior"
        return f"Form(n={self.n}, {kind}, {len(self.terms)} terms)"


# -- packed terms -------------------------------------------------------------

class _Layout(Packing):
    """The monomial keys of packed terms at one n, for both algebras, laid
    out as the module docstring says.  ``key`` and ``mono`` translate a
    canonical tuple monomial to its key and back, each translation cached;
    a count past MAX_EXP raises OverflowError.
    """

    __slots__ = ("n", "odd_gens", "even_gens", "units", "one", "_keys", "_monos")

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
        self.one = (1, [(self.bias, 1)])  # the scalar 1, packed
        self._keys: dict[Monomial, int] = {}
        self._monos: dict[int, Monomial] = {}

    def key(self, mono):
        """The generator bits of a monomial."""
        key = self._keys.get(mono)
        if key is None:
            evens, odds = mono
            try:
                key = sum([self.units[gen] for gen in evens + odds])
            except KeyError as missing:
                raise ValueError(f"no generator {missing} at n = {self.n}") from None
            if len(evens) > MAX_EXP and max(Counter(evens).values()) > MAX_EXP:
                raise OverflowError("a generator count is outside its field")
            self._keys[mono] = key
        return key

    def mono(self, key):
        mono = self._monos.get(key)
        if mono is None:
            odds, rest = [], key & self.odd
            while rest:
                low = rest & -rest
                odds.append(self.odd_gens[low.bit_length() - 1])
                rest ^= low
            evens, rest = [], key >> len(self.odd_gens)
            for gen in self.even_gens:
                if not rest:
                    break
                evens += [gen] * (rest & MAX_EXP)
                rest >>= FIELD_BITS
            mono = self._monos[key] = (tuple(evens), tuple(odds))
        return mono

    def term(self, kind, a, b):
        """The generator (kind, a, b) with coefficient 1, packed; a pair kind
        is antisymmetric, so a > b gives minus (kind, b, a) and a == b gives
        None, the zero term."""
        if kind not in _PAIRS or a < b:
            return 1, [(self.bias + self.units[(kind, a, b)], 1)]
        if a > b:
            return 1, [(self.bias + self.units[(kind, b, a)], -1)]
        return None

    def pack(self, items):
        """(den, packed terms) of the (monomial, coefficient) pairs of a
        re-iterable, over the lcm of their denominators."""
        den = 1
        for _, coeff in items:
            if den % coeff.den:
                den = lcm(den, coeff.den)
        shift, keys, out = self.shift, self._keys, []
        for mono, coeff in items:
            bits = keys.get(mono)
            if bits is None:
                bits = self.key(mono)
            f = den // coeff.den
            for k, v in coeff.num.items():
                out.append(((k << shift) + bits, v * f))
        return den, out

    def form(self, acc, boundary):
        """The accumulated sum as a Form, its monomials in sorted order."""
        monos = self._monos
        res = Form(self.n, boundary=boundary)
        res.terms = dict(sorted([(monos.get(bits) or self.mono(bits), c)
                                 for bits, c in acc.split().items()]))
        return res


_layout = lru_cache(maxsize=None)(_Layout)  # one layout per n


# -- structure equations ----------------------------------------------------

_D_CACHE: dict[tuple[int, bool, Gen], Form | None] = {}


def _d_generator(gen, n, boundary):
    """Differential of one generator by the structure equations.

    dw(A,B) = W(A,B) + sum_C w(A,C) w(C,B) and the Bianchi identity
    dW(A,B) = sum_C (w(A,C) W(C,B) - W(A,C) w(C,B)) hold on both algebras:
    C runs over 1..n in the interior and over 2..n on the boundary, where
    W(C,D) stands for WM(C,D) unless C = 1.
    """
    key = (n, boundary, gen)
    hit = _D_CACHE.get(key, False)
    if hit is not False:
        return hit
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
    layout = _layout(n)

    def w(c, d):
        return layout.term(K_OMEGA, c, d)

    def W(c, d):
        return layout.term(K_CURVM if boundary and c != 1 else K_CURV, c, d)

    def th(c):
        return layout.term(K_THETA, c, 0)

    def u(c):
        return layout.term(K_U, c, 0)

    inner = range(2 if boundary else 1, n + 1)
    if kind == K_OMEGA:
        products = [(1, layout.one, W(a, b))] + [(1, w(a, c), w(c, b)) for c in inner]
    elif kind in (K_CURV, K_CURVM):
        products = [p for c in inner for p in ((1, w(a, c), W(c, b)), (-1, W(a, c), w(c, b)))]
    elif kind == K_U:
        products = [(1, layout.one, th(a))] + [(-1, u(c), w(c, a)) for c in inner]
    elif kind == K_THETA:
        products = [p for c in inner for p in ((1, th(c), w(c, a)), (1, u(c), W(c, a)))]
    else:
        raise ValueError(f"unknown generator kind {kind}")
    acc = Accumulator(layout)
    for k, x, y in products:
        if x and y:
            acc.add_product(x, y, k)
    out = layout.form(acc, boundary)
    _D_CACHE[key] = out
    return out
