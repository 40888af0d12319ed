"""Numeric templates of chern's exact forms: the numeric track's one evaluator.

``compile_template`` flattens a constant-coefficient interior form into
einsum entries over its slots, in the order of ``Form.terms``, which is
sorted, so that equal forms give equal templates bit for bit;
``evaluate_template`` binds the generators to frame, connection and
curvature arrays of a chunk of nodes.  ``trig_values`` evaluates a
coefficient-ring element at angle values, floats or node arrays, summing in
the sorted order of ``TrigScalar.terms``; the ring itself converts only
constants.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .algebra import DEGREE, K_DPHI, K_THETA, K_U
from .chern import build_phi, signed_permutations

_SLOTS = "abcdefgh"  # einsum letters of the form slots


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
    entries: tuple    # (coeff, u_list, factors, subscripts), factors ((kind, a, b, deg), ...)
    alternating: np.ndarray  # sign of each permutation of the slots, (slots,) * slots


def compile_template(form, slots):
    """Flatten a constant-coefficient interior form for numeric evaluation.

    An entry's sum over signed slot permutations is one einsum of its
    factors, in slot order, with the alternating tensor of the slots.
    """
    entries = []
    for (evens, odds), coeff in form.terms.items():
        if any(kind == K_DPHI for kind, _, _ in odds):
            raise ValueError("numeric templates cannot bind formal angles")
        us = [a - 1 for kind, a, _ in evens if kind == K_U]
        factors = [(k, a - 1, b - 1, DEGREE[k]) for k, a, b in evens + odds if k != K_U]
        ends = list(accumulate(f[3] for f in factors))
        if not ends or ends[-1] != slots:
            continue  # wrong degree; contributes nothing to a top-degree density
        # a 2-form factor counts each slot pair twice among the permutations
        pairs = sum(f[3] == 2 for f in factors)
        subscripts = ",".join("..." + _SLOTS[e - f[3]:e] for f, e in zip(factors, ends))
        entries.append((coeff.to_float() / 2 ** pairs, tuple(us), tuple(factors),
                        f"{subscripts},{_SLOTS[:slots]}->..."))
    alternating = np.zeros((slots,) * slots)
    for perm, sign in signed_permutations(slots):
        alternating[perm] = sign
    return FormTemplate(slots=slots, entries=tuple(entries), alternating=alternating)


def evaluate_template(tpl, u, theta, omega, curv):
    """Evaluate the compiled density at a batch of nodes.

    u: (N, n), theta: (N, n, slots), omega/curv: (N, n, n, slots[, slots]);
    an argument whose generators the form lacks is never read.
    """
    total = 0.0
    for coeff, us, factors, subscripts in tpl.entries:
        scalar = math.prod((u[..., a] for a in us), start=coeff)
        operands = [(theta[..., a, :] if kind == K_THETA else omega[..., a, b, :])
                    if deg == 1 else curv[..., a, b, :, :]
                    for kind, a, b, deg in factors]
        total = total + scalar * np.einsum(subscripts, *operands, tpl.alternating)
    return total


@lru_cache(maxsize=None)
def phi_template(n):
    return compile_template(build_phi(n).phi, n - 1)


@lru_cache(maxsize=None)
def euler_template(n):
    return compile_template(build_phi(n).euler, n)
