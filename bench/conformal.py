"""Write the conformal-2d scenario files for one seed.

Each file is a 2-D catalog scenario whose metric g is replaced by e^{2f} g,
with f a polynomial of degree 2 in the chart map's ambient coordinates:
every monomial of degree 0, 1 and 2 appears, with a coefficient drawn
uniformly from [-AMPLITUDE, AMPLITUDE] by ``random.Random("<seed>/<base>")``.
The polynomial has the same monomials for every seed, so only the
coefficient values change the work.

A conformal change moves the boundary integral of Phi(n) by
(1/2pi) * (boundary integral of the outward normal derivative of f), and
Gauss-Bonnet moves the integral of Omega by the opposite amount, so each file
comes with its expected integrals.  Coefficients are drawn again (from the
same generator) until that shift is at least MIN_SHIFT, so the change is
never a near no-op.

    python3 bench/conformal.py --seed 1 --out bench/out/conformal
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from itertools import combinations_with_replacement

import numpy as np

import oracles

BASES = ("disk-saddle", "hemisphere-tilted")
AMPLITUDE = 0.15
MIN_SHIFT = 0.02


def _monomials(k):
    """Index tuples of the degree <= 2 monomials in k ambient coordinates."""
    return [()] + [(i,) for i in range(k)] + list(
        combinations_with_replacement(range(k), 2))


def _polynomial_text(coeffs, ambient):
    terms = ["0"]
    for mono, c in coeffs:
        factors = [repr(abs(c))] + [f"({ambient[i]})" for i in mono]
        terms.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(terms)


def _gradient(coeffs, points):
    """Gradient of f = sum c * prod(X_i) at ambient points (k, N)."""
    grad = np.zeros_like(points)
    for mono, c in coeffs:
        for pos, i in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1:]
            grad[i] += c * np.prod([points[j] for j in rest], axis=0)
    return grad


def boundary_shift(cfg, coeffs, nodes=512):
    """(1/2pi) * integral over the boundary of the outward derivative of f,
    by the trapezoid rule on each boundary circle (exact for the
    trigonometric polynomials that arise here)."""
    kind, circles = oracles.boundary_circles(cfg)
    t = np.arange(nodes) * (2 * math.pi / nodes)
    total = 0.0
    for level, sign in circles:
        if kind == "flat":
            points = np.array([level * np.cos(t), level * np.sin(t)])
            normal = sign * np.array([np.cos(t), np.sin(t)])
            arc = level
        elif kind == "sphere":
            points = np.array([math.sin(level) * np.cos(t),
                               math.sin(level) * np.sin(t),
                               math.cos(level) * np.ones_like(t)])
            normal = sign * np.array([math.cos(level) * np.cos(t),
                                      math.cos(level) * np.sin(t),
                                      -math.sin(level) * np.ones_like(t)])
            arc = math.sin(level)
        else:
            raise ValueError(f"{cfg['name']} is not a 2-D catalog scenario")
        flux = np.sum(_gradient(coeffs, points) * normal, axis=0)
        total += float(np.mean(flux)) * arc
    return total


def perturb(base_cfg, seed):
    """(scenario config, expectation) of the conformal change of one base."""
    ambient = base_cfg["patch"]["chart_map"]
    rng = random.Random(f"{seed}/{base_cfg['name']}")
    while True:
        coeffs = [(mono, rng.uniform(-AMPLITUDE, AMPLITUDE))
                  for mono in _monomials(len(ambient))]
        shift = boundary_shift(base_cfg, coeffs)
        if abs(shift) >= MIN_SHIFT:
            break
    factor = f"exp(2*({_polynomial_text(coeffs, ambient)}))"
    cfg = json.loads(json.dumps(base_cfg))
    cfg["name"] = f"{base_cfg['name']}-conformal"
    cfg["seed"] = seed
    cfg["description"] = (f"{base_cfg['name']} with its metric scaled by "
                          f"e^(2f), f drawn from seed {seed}")
    cfg["patch"]["metric"] = [[e if e == "0" else f"{factor}*({e})" for e in row]
                              for row in base_cfg["patch"]["metric"]]
    exp = oracles.catalog_expectation(base_cfg)
    exp["name"] = cfg["name"]
    exp["unperturbed_omega_x"] = exp["omega_x"]
    exp["omega_x"] -= shift
    exp["phi_normal"] += shift
    return cfg, exp


def write_scenarios(seed, out_dir, catalog_dir):
    """Write one file per base scenario; returns [(path, expectation)]."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for base in BASES:
        with open(os.path.join(catalog_dir, f"{base}.json")) as fh:
            cfg, exp = perturb(json.load(fh), seed)
        path = os.path.join(out_dir, f"{cfg['name']}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        written.append((path, exp))
    return written


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(here, "out", "conformal"))
    args = parser.parse_args()
    catalog = os.path.join(os.path.dirname(here), "src", "lawcheck", "catalog")
    for path, exp in write_scenarios(args.seed, args.out, catalog):
        print(path, json.dumps({k: exp[k] for k in ("omega_x", "phi_normal")}))


if __name__ == "__main__":
    main()
