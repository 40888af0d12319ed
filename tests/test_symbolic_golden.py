"""Rendered symbolic forms agree with the renders recorded in tests/data.

``tests/data/symbolic_golden.json`` holds the sha256 of ``render()`` and the
term count of each form below, recorded from the Fraction-coefficient ring
that preceded the fraction-free one.  It gates the contract that
``Form.render`` output, and so ``lawcheck symbolic-check --print``, does not
depend on how the coefficient ring stores its numbers.
"""

import hashlib
import json
from pathlib import Path

from lawcheck.chern import (CoeffFunctions, boundary_family, build_phi,
                            polar_substitute, region_d1, specialize_boundary)

GOLDEN = Path(__file__).parent / "data" / "symbolic_golden.json"


def symbolic_forms():
    """Name -> Form or TrigScalar of every recorded symbolic object."""
    forms = {}
    for n in range(2, 6):
        fam = build_phi(n)
        forms[f"build_phi({n}).phi"] = fam.phi
        forms[f"build_phi({n}).euler"] = fam.euler
        forms[f"specialize_boundary(build_phi({n}).phi)"] = specialize_boundary(fam.phi)
    for n in range(3, 6):
        fam = boundary_family(n)
        forms[f"boundary_family({n}).gamma"] = fam.gamma
        forms[f"boundary_family({n}).upsilon"] = fam.upsilon
    for n in range(2, 5):
        forms[f"polar_substitute(build_phi({n}).phi)"] = polar_substitute(build_phi(n).phi)
    coeffs = CoeffFunctions(5)  # recorded under the names coeff_functions(5).*
    for i, j in region_d1(5):
        forms[f"coeff_functions(5).a({i}, {j})"] = coeffs.a(i, j)
        forms[f"coeff_functions(5).A({i}, {j})"] = coeffs.A(i, j)
    return forms


def fingerprint(obj):
    text = obj.render()
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "terms": len(obj.terms)}


def test_symbolic_renders_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = {name: fingerprint(obj) for name, obj in symbolic_forms().items()}
    assert sorted(got) == sorted(golden)
    mismatched = [name for name in golden if got[name] != golden[name]]
    assert not mismatched, f"renders differ from the recorded ones: {mismatched}"
