"""The tests' Python-callable inputs, given the ``jets`` that lawcheck reads.

lawcheck reads every numeric input (a metric, embedding, outward vector or
field) one way, as the compiled expressions give it: through
``jets(x, order)``, the node-last maps of its values (order 0), gradients
and Hessians.  ``OnJets`` wraps a Python callable so that it reads the same
way: its ``jets`` runs the callable on the parameter Jets of the nodes,
forward mode by Jet arithmetic, an independent path beside the compiled
derivative programs.  It has no ``reads``, so the Euler and Phi integrals,
which read the parameters each input reads, take compiled inputs only.
``CONSTANT_POLAR`` is the constant field e_x of the unit disk in polar
coordinates (r, psi), compiled, the tests' shared section and field.
``rotated_frames`` rotates every boundary frame by a twist, for the
frame-rotation invariance of Phi.

This module is the tests' one import point for ``Jet`` and for ``jet_sin``,
``jet_cos`` and ``jet_exp``, which apply sin, cos and exp to a Jet, a node
array or a float.  lawcheck's own expression table calls numpy or math
only; ``install_jet_functions`` puts these dispatchers in its place for a
test that runs a compiled vector on Jets (the ``jet_functions`` fixture of
``conftest.py``).
"""

import math
from contextlib import contextmanager
from itertools import combinations_with_replacement
from unittest import mock

import numpy as np

from lawcheck import expressions, geometry
from lawcheck.expressions import compile_vector
from lawcheck.geometry import Jet, _add, _along, _present, _product


def _dispatch(jet_fn, array_fn, float_fn):
    return lambda x: (jet_fn if isinstance(x, Jet) else
                      array_fn if isinstance(x, np.ndarray) else float_fn)(x)


jet_sin = _dispatch(Jet.sin, np.sin, math.sin)
jet_cos = _dispatch(Jet.cos, np.cos, math.cos)
jet_exp = _dispatch(Jet.exp, np.exp, math.exp)


def install_jet_functions(patch):
    """Let compiled expressions call sin, cos and exp on Jets, through
    ``patch`` (a pytest MonkeyPatch), which restores lawcheck's table."""
    for name, fn in (("sin", jet_sin), ("cos", jet_cos), ("exp", jet_exp)):
        patch.setitem(expressions._FUNCTIONS, name, fn)


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


CONSTANT_POLAR = compile_vector(["cos(psi)", "-sin(psi)/r"], ["r", "psi"])


@contextmanager
def rotated_frames(twist):
    """Within the block, every frame that ``geometry.boundary_frame`` builds
    is rotated by ``twist``, an n x n rotation R of the boundary parameters
    read through its first-order ``jets``: E becomes R E, with
    d(R E)[i, a, k] = dR[i, a, b] E[b, k] + R[a, b] dE[i, b, k], before the
    connection and curvature are built from it, so row 0 is no longer the
    normal.  A twist of None leaves the frames as they are."""
    adapted = geometry.adapted_frame

    def rotated(bpatch, t, order=1):
        bf, jets = adapted(bpatch, t, order)
        R, dR, _ = twist.jets(np.asarray(t, dtype=float), 1)
        E, dE = bf.frame, bf.dframe
        bf.frame = _product(R, E)
        bf.dframe = {(i, *ak): v for i in range(bpatch.m) for ak, v in _add(
            _product(_along(dR, i), E), _product(R, _along(dE, i))).items()}
        return bf, jets

    with mock.patch.object(geometry, "adapted_frame", adapted if twist is None else rotated):
        yield
