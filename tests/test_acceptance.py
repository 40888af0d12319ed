"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s or on
failure) and asserts the criterion.  Scenario runs are shared through a
module fixture so the whole gate stays fast.
"""

import gc
import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from lawcheck.algebra import Form
from lawcheck.chern import (
    build_gamma_and_check,
    build_phi,
    build_upsilon_and_check,
    check_dphi,
)
from lawcheck.geometry import BoundaryPatch, RiemannianPatch
from lawcheck.integrate import (
    gauss_grid,
    integrate_fiber_volume,
    integrate_phi_over_section,
)
from lawcheck.fields import InteriorSingularity, index_at
from lawcheck.runner import run_scenario
from lawcheck.scenarios import catalog_names, load_catalog_scenario

from callable_input import CONSTANT_POLAR, OnJets
from test_algebra import rand_form


def _line(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} {detail}".rstrip())
    return passed


GOLDEN = Path(__file__).parent / "data" / "catalog_golden.json"


@pytest.fixture(scope="module")
def catalog_reports():
    reports = {}
    for name in catalog_names():
        t0 = time.perf_counter()
        report = run_scenario(load_catalog_scenario(name))
        report.wall_time_s = time.perf_counter() - t0
        reports[name] = report
    return reports


def test_criterion_1_transgression_equation_closed():
    t0 = time.perf_counter()
    residuals = {n: check_dphi(n) for n in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0
    ok = all(r.is_zero for r in residuals.values()) and elapsed < 60.0
    assert _line(1, ok, f"(d Phi + Euler = 0 for n=2..5, {elapsed:.1f}s)")
    for n, r in residuals.items():
        assert r.is_zero, f"n={n} residual has {len(r)} terms"
    assert elapsed < 60.0


def test_criterion_2_angular_derivative_formula():
    residuals = {n: build_upsilon_and_check(n) for n in (3, 4, 5)}
    ok = all(r.is_zero for r in residuals.values())
    assert _line(2, ok, "(interior-product formula for n=3,4,5)")
    for n, r in residuals.items():
        assert r.is_zero, f"n={n} residual has {len(r)} terms"


def test_criterion_3_transgression_primitive():
    residuals = {n: build_gamma_and_check(n) for n in (3, 4, 5)}
    ok = all(r.is_zero for r in residuals.values())
    assert _line(3, ok, "(d Gamma matches the boundary difference, n=3,4,5)")
    for n, r in residuals.items():
        assert r.is_zero, f"n={n} residual has {len(r)} terms"


def test_criterion_4_fiber_normalization():
    v2 = integrate_fiber_volume(2)
    v3 = integrate_fiber_volume(3)
    ok = abs(v2 - 1.0) < 1e-8 and abs(v3 - 1.0) < 1e-6
    assert _line(4, ok, f"(fiber deviations {abs(v2 - 1):.1e} [n=2], "
                        f"{abs(v3 - 1):.1e} [n=3])")
    assert abs(v2 - 1.0) < 1e-8
    assert abs(v3 - 1.0) < 1e-6


def test_criterion_5_law_of_vector_fields(catalog_reports):
    assert len(catalog_reports) >= 10
    ok = True
    for name, r in catalog_reports.items():
        ok &= r.residuals["law"] == 0
        tol = 1e-6 if r.dimension == 2 else 1e-3
        for bucket in r.indices.values():
            for entry in bucket:
                ok &= entry["residual"] <= tol
    assert _line(5, ok, f"(ind V + ind d-V = chi on {len(catalog_reports)} "
                        f"scenarios, integer residuals in tolerance)")
    for name, r in catalog_reports.items():
        assert r.residuals["law"] == 0, f"{name}: law residual {r.residuals['law']}"
        tol = 1e-6 if r.dimension == 2 else 1e-3
        for bucket in r.indices.values():
            for entry in bucket:
                assert entry["residual"] <= tol, (name, entry)


def test_criterion_6_boundary_term_identity(catalog_reports):
    ok = True
    for name, r in catalog_reports.items():
        tol = 1e-6 if r.dimension == 2 else 1e-2
        ok &= abs(r.residuals["thm"]) < tol
        ok &= r.wall_time_s < 30.0
    assert _line(6, ok, "(normal-vs-section integral difference equals the "
                        "inward index sum; every scenario under 30 s)")
    for name, r in catalog_reports.items():
        tol = 1e-6 if r.dimension == 2 else 1e-2
        assert abs(r.residuals["thm"]) < tol, (name, r.residuals["thm"])
        assert r.wall_time_s < 30.0, (name, r.wall_time_s)


def test_criterion_7_relative_gauss_bonnet(catalog_reports):
    targets = ["disk-constant", "annulus-constant", "hemisphere-radial",
               "cap-radial"]
    ok = all(abs(catalog_reports[t].residuals["gauss_bonnet"]) < 1e-6
             for t in targets)
    assert _line(7, ok, "(int Omega + int Phi(normal) = chi on disk, annulus, "
                        "hemisphere, cap)")
    for t in targets:
        assert abs(catalog_reports[t].residuals["gauss_bonnet"]) < 1e-6, t


def test_criterion_8_property_suites():
    # d squared vanishes on 200 random forms per dimension
    for n in (2, 3, 4, 5):
        rng = random.Random(8000 + n)
        for _ in range(200):
            assert rand_form(rng, n).d().d().is_zero

    # wedge associativity and graded commutativity on random forms
    rng = random.Random(99)
    for n in (2, 3, 4):
        for _ in range(40):
            a, b, c = (rand_form(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
    for _ in range(60):
        a = rand_form(rng, 4, max_terms=1)
        b = rand_form(rng, 4, max_terms=1)
        if len(a.degrees()) == 1 and len(b.degrees()) == 1:
            sign = -1 if (a.degrees()[0] % 2 and b.degrees()[0] % 2) else 1
            assert a * b == (b * a).scale(sign)

    # frame-rotation invariance of the section integrals
    disk = RiemannianPatch(2, [(0, 1), (0, 2 * math.pi)],
                           OnJets(lambda x: [[1, 0], [0, x[0] * x[0]]]))
    rim = BoundaryPatch(disk, [(0, 2 * math.pi)],
                        embed=OnJets(lambda t: [1.0 + 0 * t[0], t[0]]),
                        outward=OnJets(lambda t: [1.0, 0.0]))
    grid = gauss_grid(rim.box, [64])

    @OnJets
    def twist(t_jets):
        gamma = (t_jets[0] * 3.0).sin() * 0.5
        c, s = gamma.cos(), gamma.sin()
        return [[c, -1.0 * s], [s, c]]

    max_shift = 0.0
    for section in (None, CONSTANT_POLAR):
        ((base,),), *_ = integrate_phi_over_section(rim, (section,), grid)
        ((rot,),), *_ = integrate_phi_over_section(rim, (section,), grid,
                                                   frame_twist=twist)
        max_shift = max(max_shift, abs(rot - base))
    assert max_shift < 1e-8

    # index invariance under radius halving and positive rescaling
    field = lambda x: [x[0] * x[0] - x[1] * x[1], 2.0 * x[0] * x[1]]
    sing = InteriorSingularity("z2", [0, 0], 0.4, [0, 0], 0.2, OnJets(field))
    base = index_at(sing, order=192)
    assert index_at(sing, order=192, radius=0.1).value == base.value
    scaled = InteriorSingularity("z2s", [0, 0], 0.4, [0, 0], 0.2,
                                 OnJets(lambda x: [3.0 * c for c in field(x)]))
    assert index_at(scaled, order=192).value == base.value

    _line(8, True, "(d^2 = 0 on 800 random forms, wedge laws, frame-rotation "
                   f"shift {max_shift:.1e}, index invariances)")


def _assert_agrees(got, want, where):
    """Floats within 1e-13 absolute; everything else identical, types too."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-13, (where, got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_agrees(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_agrees(a, b, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_profile_densities_sum_to_the_integrals(catalog_reports):
    """The CSV profile holds the integrands themselves: summed with the
    quadrature weights over every boundary, its densities give the reported
    integrals of Phi over the normal and the field section."""
    for name, report in catalog_reports.items():
        for column, key in (("density_normal", "phi_normal"),
                            ("density_section", "phi_section")):
            total = math.fsum(row["weight"] * row[column] for row in report.profile_rows())
            assert abs(total - report.integrals[key]) <= 1e-13, (name, key, total)


def test_a_report_keeps_its_profile_as_columns():
    """A ``ball3-radial`` report holds its profile as per-boundary arrays,
    not per-node rows: it retains 0.057 MB traced (1,024 rows of per-node
    dicts retained 0.53 MB), bounded at 0.1 MB, a 75 % margin.  The memory
    is the difference with and without the report, so caches that the run
    fills do not count."""
    tracemalloc.start()
    try:
        report = run_scenario(load_catalog_scenario("ball3-radial"))
        gc.collect()
        with_report = tracemalloc.get_traced_memory()[0]
        del report
        gc.collect()
        retained = with_report - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 0.1 * 2**20, retained


def test_catalog_matches_golden_reports(catalog_reports):
    """Every report field but the wall time, and the profile rows of the 2-D
    scenarios, agree with the reports recorded in tests/data from the
    per-node implementation."""
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(catalog_reports)
    for name, report in catalog_reports.items():
        got = report.to_dict()
        if report.dimension == 2:
            got["profile"] = report.profile_rows()
        _assert_agrees(json.loads(json.dumps(got)), golden[name], name)
