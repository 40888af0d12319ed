"""Numeric templates of chern's exact forms: the numeric track's one evaluator.

``compile_template`` expands a constant-coefficient interior form into
entries, in the order of ``Form.terms``, which is sorted, so that equal
forms give equal templates bit for bit: a coefficient, the u factors and one
signed product per assignment of the slots to the other factors.
``evaluate_template`` reads the operands of those products from the
node-last maps of a chunk of nodes, as every numeric layer holds them: u[A],
theta[A, slot] and the curvature on index pairs of ``pairs``,
curv[frame pair, slot pair].  ``trig_values`` evaluates a coefficient-ring
element at angle values, floats or node arrays, summing in the sorted order
of ``TrigScalar.terms``; the ring itself converts only constants.

The structural-zero helpers of node-last maps live here too, below
``geometry``, which imports them: an entry is a node array or a plain
number, and None, or an absent key, is a structural zero.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from operator import add

import numpy as np

from .algebra import DEGREE, K_DPHI, K_OMEGA, K_U
from .chern import build_phi, perm_sign


def pairs(n):
    """Index pairs (a, b), a < b < n, by b, then a: (a, b) is at b (b - 1) / 2 + a."""
    return [(a, b) for b in range(n) for a in range(b)]


def _mul(a, b):
    """a * b, None (a structural zero) if either is; a plain-number factor 1
    is folded."""
    if a is None or b is None:
        return None
    if not isinstance(a, np.ndarray) and a == 1:
        return b
    return a if not isinstance(b, np.ndarray) and b == 1 else a * b


def _sum(terms):
    """The terms added in order, None (a structural zero) left out; None for none."""
    terms = [t for t in terms if t is not None]
    return reduce(add, terms) if terms else None


def _minus(a, b):
    """a - b, where None is a structural zero."""
    return a if b is None else -b if a is None else a - b


def trig_values(scalar, angles):
    """The value of ``scalar`` with angle a at ``angles[a]``, a float or a node
    array, its terms summed in the sorted order of ``terms``."""
    total = 0.0
    for (d, exps), coeff in scalar.terms.items():
        val = float(coeff) * math.pi ** d
        for aid, p, s, c in exps:
            x = angles[aid]
            val = val * (x ** p * np.sin(x) ** s * np.cos(x) ** c)
        total = total + val
    return total


@dataclass(frozen=True)
class FormTemplate:
    slots: int
    entries: tuple    # (coeff, us, products), products ((sign, operand keys), ...)
    curved: bool      # whether a product reads the curvature


def compile_template(form, slots):
    """Expand a constant-coefficient interior form for numeric evaluation.

    An entry has a product for each assignment of its factors, in order,
    to slots that repeats no slot, a 2-form taking a slot pair once, in the
    order of ``itertools.product``: the sign of the slot permutation and
    the operand keys, (0, (A, slot)) for theta[A, slot] and (1, (I, J)) for
    the curvature on frame pair I and slot pair J.
    """
    entries = []
    for (evens, odds), coeff in form.terms.items():
        if any(kind in (K_DPHI, K_OMEGA) for kind, _, _ in odds):
            raise ValueError("numeric templates bind neither formal angles nor the connection")
        us = tuple(a - 1 for kind, a, _ in evens if kind == K_U)
        factors = [(DEGREE[k], a - 1, b - 1) for k, a, b in evens + odds if k != K_U]
        if not factors or sum(f[0] for f in factors) != slots:
            continue  # wrong degree; contributes nothing to a top-degree density
        choices = [[((s,), (0, (a, s))) for s in range(slots)] if deg == 1 else
                   [(st, (1, (b * (b - 1) // 2 + a, J))) for J, st in enumerate(pairs(slots))]
                   for deg, a, b in factors]
        products = []
        for assignment in product(*choices):
            perm = sum((st for st, _ in assignment), ())
            if len(set(perm)) == slots:
                products.append((perm_sign(perm), tuple(key for _, key in assignment)))
        entries.append((coeff.to_float(), us, tuple(products)))
    return FormTemplate(slots=slots, entries=tuple(entries), curved=any(
        c for *_, products in entries for _, keys in products for c, _ in keys))


def evaluate_template(tpl, u, theta, curv, count):
    """The compiled density at ``count`` nodes, an (N,) array, from the
    node-last maps u[A], theta[A, slot] and curv[I, J] to (N,) arrays or
    plain numbers; an absent key is a structural zero, and a map the form
    does not read may be None.  Each entry is its coefficient times its u
    factors times the signed sum, in compiled order, of its products with
    no structurally zero factor; the entries are added in order to 0.0, so
    that no node reads -0.0."""
    maps = (theta, curv)
    total = 0.0
    for coeff, us, products in tpl.entries:
        alternated = None
        for sign, keys in products:
            value = reduce(_mul, [maps[c].get(key) for c, key in keys])
            alternated = _minus(alternated, value) if sign < 0 else _sum([alternated, value])
        scalar = reduce(_mul, [u.get(a) for a in us], coeff)
        total = _sum([total, _mul(scalar, alternated)])
    return total if isinstance(total, np.ndarray) else np.full(count, total)


@lru_cache(maxsize=None)
def phi_template(n):
    return compile_template(build_phi(n).phi, n - 1)


@lru_cache(maxsize=None)
def euler_template(n):
    return compile_template(build_phi(n).euler, n)
