"""Numeric templates of chern's exact forms: the numeric track's one evaluator.

``compile_template`` flattens a constant-coefficient interior form into
einsum entries over its slots, in the order of ``Form.terms``, which is
sorted, so that equal forms give equal templates bit for bit;
``evaluate_template`` binds the generators to frame, connection and
curvature arrays of a chunk of nodes, a 2-form on the index pairs of
``pairs``.  ``trig_values`` evaluates a coefficient-ring element at angle
values, floats or node arrays, summing in the sorted order of
``TrigScalar.terms``; the ring itself converts only constants.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import DEGREE, K_DPHI, K_THETA, K_U
from .chern import build_phi, perm_sign

_FACTORS = "abcdefgh"  # einsum letters of the factors of an entry


def pairs(n):
    """Index pairs (a, b), a < b < n, by b, then a: (a, b) is at b (b - 1) / 2 + a."""
    return [(a, b) for b in range(n) for a in range(b)]


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
    signs: tuple      # each entry's ``_slot_signs``


@lru_cache(maxsize=None)
def _slot_signs(degrees):
    """Sign of each assignment of the slots to factors of ``degrees`` (1 or
    2), one axis per factor, over the slots or the slot ``pairs``; 0 where a
    slot repeats.  A 2-form takes each pair once, not once in each order."""
    slots = sum(degrees)
    choices = [[(s,) for s in range(slots)] if d == 1 else pairs(slots) for d in degrees]
    signs = np.zeros([len(c) for c in choices])
    for index in np.ndindex(signs.shape):
        perm = sum((c[i] for c, i in zip(choices, index)), ())
        signs[index] = perm_sign(perm) if len(set(perm)) == slots else 0
    return signs


def compile_template(form, slots):
    """Flatten a constant-coefficient interior form for numeric evaluation.

    An entry's sum over signed slot assignments is one einsum of its
    factors, in order, with the ``_slot_signs`` of their degrees.
    """
    entries, signs = [], []
    for (evens, odds), coeff in form.terms.items():
        if any(kind == K_DPHI for kind, _, _ in odds):
            raise ValueError("numeric templates cannot bind formal angles")
        us = [a - 1 for kind, a, _ in evens if kind == K_U]
        factors = [(k, a - 1, b - 1, DEGREE[k]) for k, a, b in evens + odds if k != K_U]
        degrees = tuple(f[3] for f in factors)
        if not factors or sum(degrees) != slots:
            continue  # wrong degree; contributes nothing to a top-degree density
        letters = _FACTORS[:len(factors)]
        subscripts = ",".join("..." + x for x in letters)
        entries.append((coeff.to_float(), tuple(us), tuple(factors),
                        f"{subscripts},{letters}->..."))
        signs.append(_slot_signs(degrees))
    return FormTemplate(slots=slots, entries=tuple(entries), signs=tuple(signs))


def evaluate_template(tpl, u, theta, omega, curv):
    """Evaluate the compiled density at a batch of nodes.

    u: (N, n), theta: (N, n, slots), omega: (N, n, n, slots), curv: (N, P, Q)
    on frame and slot ``pairs``; an argument the form lacks is never read.
    """
    total = 0.0
    for (coeff, us, factors, subscripts), signs in zip(tpl.entries, tpl.signs):
        scalar = math.prod((u[..., a] for a in us), start=coeff)
        operands = [(theta[..., a, :] if kind == K_THETA else omega[..., a, b, :])
                    if deg == 1 else curv[..., b * (b - 1) // 2 + a, :]
                    for kind, a, b, deg in factors]
        total = total + scalar * np.einsum(subscripts, *operands, signs)
    return total


@lru_cache(maxsize=None)
def phi_template(n):
    return compile_template(build_phi(n).phi, n - 1)


@lru_cache(maxsize=None)
def euler_template(n):
    return compile_template(build_phi(n).euler, n)
