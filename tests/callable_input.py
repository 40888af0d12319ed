"""The tests' Python-callable inputs, given the ``jets`` that lawcheck reads.

lawcheck reads every numeric input (a metric, embedding, outward vector,
field or frame twist) one way, as the compiled expressions give it: through
``jets(x, order)``, the node-last maps of its values (order 0), gradients
and Hessians.  ``OnJets`` wraps a Python callable so that it reads the same
way: its ``jets`` runs the callable on the parameter Jets of the nodes,
forward mode by Jet arithmetic, an independent path beside the compiled
derivative programs.  It has no ``reads``, so the quadratures evaluate it on
every axis.  ``CONSTANT_POLAR`` is the constant field e_x of the unit disk in
polar coordinates (r, psi), the tests' shared section and field.
"""

from itertools import combinations_with_replacement

import numpy as np

from lawcheck.geometry import Jet, _present, jet_cos, jet_sin


class OnJets:
    """A Python callable ``fn`` of a list of m parameter Jets to a list of
    entries, or an n x n nested list of them (rows of a matrix)."""

    def __init__(self, fn):
        self.fn = fn

    def jets(self, x, order):
        """The node-last maps of the values {k: v} and, from ``order`` 1,
        gradients {(i, k): d_i v} and, at ``order`` 2, Hessians
        {(i, j, k): d_i d_j v}, in both orders of (i, j), at the nodes x
        (N, m), the structural zeros left out and (k, l) in place of k for a
        matrix: an entry that is a Jet gives all its derivatives, a plain
        number or node array none.  numpy faults are left to lawcheck's
        checks, which see their inf or NaN."""
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            result = self.fn(Jet.variables(x, max(order, 1)))
        values, grads, hess = {}, {}, {}
        for k, row in enumerate(result):
            for key, e in ([((k, l), e) for l, e in enumerate(row)]
                           if isinstance(row, (list, tuple)) else [(k, row)]):
                index = key if isinstance(key, tuple) else (key,)
                if not isinstance(e, Jet):
                    if _present(e):
                        values[key] = e
                    continue
                values[key] = e.v
                if order:
                    grads.update(((i, *index), d) for i, d in enumerate(e.g))
                if e.h is not None:
                    for i, j in combinations_with_replacement(range(len(e.g)), 2):
                        hess[(i, j, *index)] = hess[(j, i, *index)] = e.h[i, j]
        return values, grads, hess


CONSTANT_POLAR = OnJets(lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]])
