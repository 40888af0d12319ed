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

Two modes share the data structure.  The full algebra models the sphere
bundle over the interior: dw(A,B) = W(A,B) + sum_C w(A,C)w(C,B), the Bianchi
rewrite for dW, du(A) = th(A) - sum u(B)w(B,A) and the derived rule for dth.
The boundary algebra models the restriction to the boundary with the normal
index 1 split off: u/th are gone, dw(s,t) closes through WM(s,t), W(1,s)
survives as a free generator, and its differential eliminates interior
curvature through W(s,t) = WM(s,t) + w(1,s)w(1,t).
"""

from __future__ import annotations

from fractions import Fraction

from .trig import ONE, TrigScalar, collect, mul_add

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


def mono_mul(m1: Monomial, m2: Monomial):
    """Multiply canonical monomials; returns (sign, monomial) or None."""
    e1, o1 = m1
    e2, o2 = m2
    evens = tuple(sorted(e1 + e2))
    # merge the two sorted odd tuples, counting the crossings
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
        antisymmetric: a > b gives minus (kind, b, a) and a == b gives 0."""
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
        cls._check_index(n, a), cls._check_index(n, b)
        return cls.generator(n, K_OMEGA, a, b, boundary)

    @classmethod
    def curvature(cls, n, a, b, boundary=False):
        cls._check_index(n, a), cls._check_index(n, b)
        return cls.generator(n, K_CURV, a, b, boundary)

    @classmethod
    def boundary_curvature(cls, n, s, t):
        if not (2 <= s <= n and 2 <= t <= n):
            raise ValueError(f"boundary curvature indices must lie in 2..{n}")
        return cls.generator(n, K_CURVM, s, t, boundary=True)

    @classmethod
    def theta(cls, n, a):
        cls._check_index(n, a)
        return cls.generator(n, K_THETA, a)

    @classmethod
    def coordinate(cls, n, a):
        cls._check_index(n, a)
        return cls.generator(n, K_U, a)

    @classmethod
    def dphi(cls, n, angle=1, boundary=False):
        return cls.generator(n, K_DPHI, angle, boundary=boundary)

    @staticmethod
    def _check_index(n, a):
        if not 1 <= a <= n:
            raise ValueError(f"frame index {a} outside 1..{n}")

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
        accs = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = mono_mul(m1, m2)
                if hit is not None:
                    mul_add(accs, hit[1], c1, c2, hit[0] < 0)
        return Form(self.n, collect(accs), self.boundary)

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
        accs = {}
        for mono, coeff in self.terms.items():
            # derivative of the coefficient contributes dphi_i wedge mono
            for angle in sorted(coeff.angles()):
                dc = coeff.deriv(angle)
                hit = mono_mul(((), ((K_DPHI, angle, 0),)), mono) if dc else None
                if hit is not None:
                    mul_add(accs, hit[1], dc, ONE, hit[0] < 0)
            # graded Leibniz over the canonical word: prefix * d(gen) * suffix,
            # signed by the parity of the prefix (the number of odd factors)
            evens, odds = mono
            for k, gen in enumerate(evens + odds):
                dg = _d_generator(gen, self.n, self.boundary)
                if not dg:
                    continue
                j = k - len(evens)  # position among the odd factors
                if j < 0:
                    prefix, suffix, sign = (evens[:k], ()), (evens[k + 1:], odds), 1
                else:
                    prefix, suffix, sign = (evens, odds[:j]), ((), odds[j + 1:]), (-1) ** j
                for m, c in dg.terms.items():
                    left = mono_mul(prefix, m)
                    right = left and mono_mul(left[1], suffix)
                    if right:
                        mul_add(accs, right[1], coeff, c, sign * left[0] * right[0] < 0)
        return Form(self.n, collect(accs), self.boundary)

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
        of prefix products is kept.  Every coefficient product accumulates
        raw into its output monomial (``trig.mul_add``) and is normalized
        once at the end.
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
        groups: dict[tuple[Gen, ...], dict[Monomial, TrigScalar]] = {}
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
                add_term(groups.setdefault(tuple(key), {}),
                         (tuple(kept_evens), tuple(kept_odds)),
                         -coeff if flips % 2 else coeff)
        accs = {}
        prev, chain = (), [Form.scalar(self.n, 1, boundary)]  # chain[k]: prev[:k]'s product
        for key in sorted(groups):
            k = 0
            while k < min(len(key), len(prev)) and key[k] == prev[k]:
                k += 1
            del chain[k + 1:]
            for gen in key[k:]:
                chain.append(chain[-1] * mapping[gen])
            prev = key
            for mono, coeff in groups[key].items():
                for m, c in chain[-1].terms.items():
                    hit = mono_mul(mono, m)
                    if hit is not None:
                        mul_add(accs, hit[1], coeff, c, hit[0] < 0)
        return Form(self.n, collect(accs), boundary)

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

    def w(c, d):
        return Form.generator(n, K_OMEGA, c, d, boundary)

    def W(c, d):
        return Form.generator(n, K_CURVM if boundary and c != 1 else K_CURV,
                              c, d, boundary)

    inner = range(2 if boundary else 1, n + 1)
    out: Form | None
    if kind == K_DPHI:
        out = None
    elif kind == K_OMEGA:
        out = W(a, b)
        for c in inner:
            out = out + w(a, c) * w(c, b)
    elif kind in (K_CURV, K_CURVM):
        out = Form.zero(n, boundary)
        for c in inner:
            out = out + w(a, c) * W(c, b)
            out = out - W(a, c) * w(c, b)
    elif kind == K_U:
        out = Form.theta(n, a)
        for c in inner:
            out = out - Form.coordinate(n, c) * w(c, a)
    elif kind == K_THETA:
        out = Form.zero(n)
        for c in inner:
            out = out + Form.theta(n, c) * w(c, a)
            out = out + Form.coordinate(n, c) * W(c, a)
    else:
        raise ValueError(f"unknown generator kind {kind}")
    _D_CACHE[key] = out
    return out
