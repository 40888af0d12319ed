"""Scenario configs, reports, and the command-line surface."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lawcheck import cli, runner
from lawcheck.fields import index_at, index_tangential
from lawcheck.integrate import integrate_euler, integrate_phi_over_section
from lawcheck.report import ScenarioReport, emit_report
from lawcheck.runner import run_scenario, run_suite
from lawcheck.scenarios import (
    ConfigError,
    catalog_names,
    load_catalog_raw,
    load_catalog_scenario,
    load_scenario,
)

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture(scope="module")
def disk_report():
    return run_scenario(load_catalog_scenario("disk-constant"))


# -- configuration ------------------------------------------------------------

def test_catalog_has_at_least_ten_scenarios():
    assert len(catalog_names()) >= 10


def test_catalog_chi_matches_topology():
    for name in catalog_names():
        raw = load_catalog_raw(name)
        family = name.split("-")[0]
        expected_chi = {"disk": 1, "ball3": 1, "cap": 1, "hemisphere": 1,
                        "annulus": 0}[family]
        assert raw["chi"] == expected_chi, name


def test_constant_expressions_in_configs():
    sc = load_catalog_scenario("hemisphere-tilted")
    assert sc.patch.box[0][1] == pytest.approx(math.pi / 2)
    assert sc.boundaries[0].box[0] == (pytest.approx(-math.pi / 2),
                                       pytest.approx(3 * math.pi / 2))


@pytest.mark.parametrize("mutation,message", [
    (lambda c: c.pop("chi"), "chi"),
    (lambda c: c.pop("patch"), "patch"),
    (lambda c: c["patch"].pop("metric"), "metric"),
    (lambda c: c["field"]["components"].append("bogus("), "bogus"),
    (lambda c: c["expected"].pop("ind_v"), "ind_v"),
    (lambda c: c.update(dimension=4), "dimension"),
])
def test_config_validation_errors(mutation, message):
    cfg = load_catalog_raw("disk-constant")
    mutation(cfg)
    with pytest.raises(ConfigError):
        load_scenario(cfg)


_DEEP = ["(" * 400 + "1" + ")" * 400, "-" * 3000 + "1"]


def _set(*path_and_value):
    """Mutation that sets cfg[path] to value."""
    *path, key, value = path_and_value

    def mutate(cfg):
        for step in path:
            cfg = cfg[step]
        cfg[key] = value
    return mutate


def _rename(old, new):
    """Mutation that renames the parameter ``old`` to ``new`` throughout."""
    def mutate(cfg):
        cfg.update(json.loads(re.sub(rf"\b{old}\b", new, json.dumps(cfg))))
    return mutate


def _two_singularities(first, second):
    """Mutation that doubles the first interior singularity, the first copy
    without the key ``first`` and the second without ``second``."""
    def mutate(cfg):
        sing = cfg["interior_singularities"][0]
        copies = [dict(sing), dict(sing, name=sing["name"] + "-copy")]
        for copy, key in zip(copies, (first, second)):
            copy.pop(key, None)
        cfg["interior_singularities"] = copies
    return mutate


_SADDLE = ("interior_singularities", 0)
_MALFORMED = {
    "dimension-abc": ("disk-constant", _set("dimension", "abc")),
    "seed-abc": ("disk-constant", _set("seed", "abc")),
    "margin-abc": ("disk-constant", _set("field", "margin", "abc")),
    "order-abc": ("disk-constant", _set("orders", {"boundary": "abc"})),
    "order-0": ("disk-constant", _set("orders", {"interior": 0})),
    "order-negative": ("disk-constant", _set("orders", {"degree": -3})),
    "tolerance-x": ("disk-constant", _set("tolerances", {"thm": "x"})),
    "tolerance-unknown-key": ("disk-constant", _set("tolerances", {"gauss-bonnet": 1e-30})),
    "tolerance-negative": ("disk-constant", _set("tolerances", {"thm": -1})),
    "order-unknown-key": ("disk-constant", _set("orders", {"boundry": 8})),
    "patch-box-one-interval": ("disk-constant", _set("patch", "box", [[0, 1]])),
    "patch-box-short-interval": ("disk-constant",
                                 _set("patch", "box", [[0], [0, "2*pi"]])),
    "boundary-box-empty": ("disk-constant", _set("boundaries", 0, "box", [])),
    "metric-1x1": ("disk-constant", _set("patch", "metric", [["1"]])),
    "metric-asymmetric": ("disk-constant",
                          _set("patch", "metric", [["1", "0.5"], ["0", "r*r"]])),
    "metric-asymmetric-mirror": ("disk-constant",
                                 _set("patch", "metric", [["1", "0"], ["0.5", "r*r"]])),
    "metric-infinite": ("disk-constant", _set("patch", "metric", 0, 0, "1e200*1e200")),
    "metric-overflow-near-excluded-points": ("cap-radial",
                                             _set("patch", "metric", 0, 0, "exp(1000)")),
    "embed-1-entry": ("disk-constant", _set("boundaries", 0, "embed", ["1"])),
    "outward-3-entries": ("disk-constant",
                          _set("boundaries", 0, "outward", ["1", "0", "0"])),
    "outward-tangent": ("disk-constant", _set("boundaries", 0, "outward", ["0", "1"])),
    "embed-constant": ("disk-constant", _set("boundaries", 0, "embed", ["1", "0*t"])),
    "location-empty": ("disk-constant",
                       _set("tangential_singularities", 0, "location", [])),
    "ambient-length": ("disk-saddle", _set(*_SADDLE, "ambient", [0])),
    "center-length": ("disk-saddle", _set(*_SADDLE, "center", [0, 0, 0])),
    "singularity-field-length": ("disk-saddle", _set(*_SADDLE, "field", ["x"])),
    "chart-params-length": ("disk-saddle", _set(*_SADDLE, "chart_params", ["x"])),
    "component-400-deep": ("disk-constant", _set("field", "components", 0, _DEEP[0])),
    "components-1-entry": ("disk-constant", _set("field", "components", ["1"])),
    "radius-0": ("disk-saddle", _set(*_SADDLE, "radius", 0)),
    "tangential-radius-0": ("disk-saddle",
                            _set("tangential_singularities", 0, "radius", 0)),
    "radius-infinite": ("disk-saddle", _set(*_SADDLE, "radius", 1e400)),
    "exclusion-radius-infinite": ("disk-saddle", _set(*_SADDLE, "exclusion_radius", 1e400)),
    "tangential-radius-infinite": ("disk-saddle",
                                   _set("tangential_singularities", 0, "radius", 1e400)),
    "margin-0": ("disk-constant", _set("field", "margin", 0)),
    "margin-negative": ("disk-constant", _set("field", "margin", -1)),
    "margin-infinite": ("disk-constant", _set("field", "margin", "1e200*1e200")),
    "chi-fraction": ("disk-constant", _set("chi", 1.5)),
    "expected-fraction": ("disk-constant", _set("expected", "ind_v", 0.5)),
    "name-not-string": ("disk-constant", _set("name", None)),
    "description-not-string": ("disk-constant", _set("description", 5)),
    "patch-box-reversed": ("disk-constant", _set("patch", "box", [[1, 0], [0, "2*pi"]])),
    "patch-box-empty-interval": ("disk-constant",
                                 _set("patch", "box", [[0.5, 0.5], [0, "2*pi"]])),
    "patch-box-infinite": ("disk-saddle", _set("patch", "box", [[0, 1e400], [0, "2*pi"]])),
    "boundary-box-reversed": ("disk-constant", _set("boundaries", 0, "box", [["2*pi", 0]])),
    "center-infinite": ("disk-saddle", _set(*_SADDLE, "center", [1e400, 0])),
    "ambient-nan": ("disk-saddle", _set(*_SADDLE, "ambient", [math.nan, 0])),
    "ambient-missing-after-default-radius": ("disk-saddle",
                                             _two_singularities("radius", "ambient")),
    "ambient-missing-before-default-radius": ("disk-saddle",
                                              _two_singularities("ambient", "radius")),
    "location-infinite": ("disk-constant",
                          _set("tangential_singularities", 0, "location", [1e400])),
    "chi-huge": ("disk-constant", _set("chi", 10 ** 400)),
    "param-named-pi": ("disk-constant", _rename("psi", "pi")),
    "params-repeated": ("disk-constant", _set("patch", "params", ["r", "r"])),
    "exponent-1e400": ("disk-constant", _set("field", "components", 0, "r ^ 1e400")),
    "box-boolean": ("disk-double-vortex", _set("patch", "box", [[False, True], [0, "2*pi"]])),
    "radius-boolean": ("disk-double-vortex", _set(*_SADDLE, "radius", True)),
    "margin-boolean": ("disk-double-vortex", _set("field", "margin", True)),
    "center-boolean": ("disk-double-vortex", _set(*_SADDLE, "center", [True, 0])),
    "location-boolean": ("disk-double-vortex",
                         _set("tangential_singularities", 0, "location", [True])),
}


def _assert_one_config_error_line(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_malformed_scenario_exit_2(case, tmp_path, capsys):
    base, mutate = _MALFORMED[case]
    cfg = load_catalog_raw(base)
    mutate(cfg)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    _assert_one_config_error_line(cli.main(["run", "--scenario", str(path)]), capsys)


@pytest.mark.parametrize("case", ["metric-asymmetric", "metric-asymmetric-mirror"])
def test_cli_asymmetric_metric_names_the_asymmetry(case, tmp_path, capsys):
    """A literal 0 in one triangle of the metric does not hide its asymmetry
    from the Cholesky factor, which reads the lower triangle only."""
    base, mutate = _MALFORMED[case]
    cfg = load_catalog_raw(base)
    mutate(cfg)
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(cfg))
    err = _assert_one_config_error_line(cli.main(["run", "--scenario", str(path)]), capsys)
    assert "not symmetric" in err


@pytest.mark.parametrize("case,message", [
    ("param-named-pi", "parameter 'pi'"), ("params-repeated", "parameter 'r'"),
    ("exponent-1e400", "exponent must be an integer literal"),
])
def test_cli_refused_expression_names_its_cause(case, message, tmp_path, capsys):
    """A parameter named pi is refused, not read as the constant, and an
    exponent that overflows is refused like any non-integer exponent."""
    base, mutate = _MALFORMED[case]
    cfg = load_catalog_raw(base)
    mutate(cfg)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(cfg))
    err = _assert_one_config_error_line(cli.main(["run", "--scenario", str(path)]), capsys)
    assert message in err


@pytest.mark.parametrize("case", ["ambient-missing-after-default-radius",
                                  "ambient-missing-before-default-radius"])
def test_cli_missing_ambient_names_the_key_in_either_order(case, tmp_path, capsys):
    """A singularity without ``ambient`` is named the same way whether or not
    an earlier singularity computes its default radius from the others."""
    base, mutate = _MALFORMED[case]
    cfg = load_catalog_raw(base)
    mutate(cfg)
    path = tmp_path / "ambient.json"
    path.write_text(json.dumps(cfg))
    err = _assert_one_config_error_line(cli.main(["run", "--scenario", str(path)]), capsys)
    assert err == "configuration error: missing 'ambient' in singularity\n"


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "disk-constant", "--order", "-4"],
    ["run", "--scenario", "disk-constant", "--order", "0"],
    ["suite", "--filter", "("],
], ids=["order-negative", "order-0", "filter-bad-regex"])
def test_cli_bad_argument_exit_2(argv, capsys):
    _assert_one_config_error_line(cli.main(argv), capsys)


_CATALOG = {name: load_catalog_raw(name) for name in catalog_names()}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _nodes(node, path=()):
    """(path, value) of every node of a JSON tree."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _parent(cfg, path):
    for step in path[:-1]:
        cfg = cfg[step]
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_load_scenario_raises_only_config_error(data):
    """A catalog config with one key dropped, or one leaf replaced by an
    arbitrary JSON value or a deeply nested expression, loads or raises
    ConfigError."""
    cfg = copy.deepcopy(_CATALOG[data.draw(st.sampled_from(sorted(_CATALOG)))])
    nodes = list(_nodes(cfg))
    if data.draw(st.booleans()):
        keys = [p for p, _ in nodes if p and isinstance(_parent(cfg, p), dict)]
        path = data.draw(st.sampled_from(keys))
        del _parent(cfg, path)[path[-1]]
    else:
        leaves = [p for p, v in nodes if not isinstance(v, (dict, list))]
        path = data.draw(st.sampled_from(leaves))
        _parent(cfg, path)[path[-1]] = data.draw(_JSON | st.sampled_from(_DEEP))
    try:
        load_scenario(cfg)
    except ConfigError:
        pass


# leaves that parse, so that runs get past the loader into the numeric track
_NUMERIC = st.floats() | st.sampled_from(
    ["0", "-1", "1e-300", "1e200*1e200", "r-r", "r*r-0.5", "1/(r-0.5)", "exp(1000)", "sin(t)"])
_CATALOG_2D = sorted(name for name, cfg in _CATALOG.items() if cfg["dimension"] == 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_cli_run_of_a_mutated_file_ends_in_an_exit_code(data):
    """``lawcheck run --order 16`` on a 2-D catalog file with one leaf
    replaced by an arbitrary JSON value, a number or an expression exits
    0, 1 or 2 without a traceback, with one stderr line on exit 2."""
    cfg = copy.deepcopy(_CATALOG[data.draw(st.sampled_from(_CATALOG_2D))])
    leaves = [p for p, v in _nodes(cfg) if not isinstance(v, (dict, list))]
    path = data.draw(st.sampled_from(leaves))
    _parent(cfg, path)[path[-1]] = data.draw(_JSON | st.sampled_from(_DEEP) | _NUMERIC)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "mutated.json")
        with open(scenario, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--scenario", scenario, "--order", "16"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1


def test_duplicate_tangential_names_keep_their_indices():
    """Tangential indices are kept per singularity, not per name: two
    singularities both called west still give ind d-V = -1."""
    cfg = load_catalog_raw("disk-double-vortex")
    for sing in cfg["tangential_singularities"]:
        sing["name"] = "west"
    report = run_scenario(load_scenario(cfg))
    assert report.passed, report.failures
    assert report.sums["ind_dminus"] == -1
    assert [r["name"] for r in report.indices["tangential_minus"]
            + report.indices["tangential_plus"]] == ["west", "west"]


def test_tangential_singularity_boundary_reference_checked():
    cfg = load_catalog_raw("disk-constant")
    cfg["tangential_singularities"][0]["boundary"] = 5
    with pytest.raises(ConfigError):
        load_scenario(cfg)


# -- reports --------------------------------------------------------------------

def test_report_json_round_trip(disk_report):
    text = disk_report.to_json()
    back = ScenarioReport.from_json(text)
    assert back.to_json() == text
    assert back.sums == disk_report.sums
    assert back.residuals == disk_report.residuals


def test_report_determinism_byte_identical():
    a = run_scenario(load_catalog_scenario("disk-constant"))
    b = run_scenario(load_catalog_scenario("disk-constant"))
    assert a.to_json().encode() == b.to_json().encode()


def test_csv_has_one_row_per_boundary_node(disk_report):
    payload = emit_report(disk_report, fmt="csv")
    lines = [ln for ln in payload.strip().splitlines() if ln]
    assert len(lines) - 1 == disk_report.quadrature["boundary_order"]
    assert lines[0].startswith("scenario,boundary,node")


def test_csv_rows_cover_all_components():
    report = run_scenario(load_catalog_scenario("annulus-rotational"))
    payload = emit_report(report, fmt="csv")
    rows = payload.strip().splitlines()[1:]
    assert len(rows) == 2 * report.quadrature["boundary_order"]
    assert {r.split(",")[1] for r in rows} == {"outer", "inner"}


def test_csv_numeric_cells_parse_as_floats(disk_report):
    rows = list(csv.DictReader(io.StringIO(emit_report(disk_report, fmt="csv"))))
    assert rows
    for row in rows:
        for key in ("weight", "density_normal", "density_section",
                    "section_angle", "v_dot_n"):
            assert math.isfinite(float(row[key])), (key, row[key])
        assert all(math.isfinite(float(v)) for v in row["t_params"].split(";"))


def test_text_table_labels_law_residual(disk_report):
    text = emit_report(disk_report, fmt="text")
    assert "ind V + ind d-V - chi" in text
    assert "pass" in text


def test_unknown_format_rejected(disk_report):
    with pytest.raises(ValueError):
        emit_report(disk_report, fmt="yaml")


# -- runner ----------------------------------------------------------------------

def test_report_contents(disk_report):
    r = disk_report
    assert r.passed and not r.failures
    assert r.sums == {"ind_v": 0, "ind_dminus": 1, "ind_dplus": -1}
    assert r.residuals["law"] == 0
    assert abs(r.residuals["thm"]) < 1e-6
    assert abs(r.residuals["gauss_bonnet"]) < 1e-6
    assert all(d < 1e-8 for d in r.convergence.values())


def test_degree_order_reaches_3d_indices():
    """orders.degree sets the sphere quadrature of 3-D interior indices."""
    cfg = load_catalog_raw("ball3-radial")
    cfg["orders"] = {"boundary": 4, "interior": 4, "degree": 6}
    scenario = load_scenario(cfg)
    report = run_scenario(scenario)
    [sing] = scenario.field_spec.interior
    assert report.quadrature["degree_order"] == 6
    assert report.indices["interior"][0]["raw"] == index_at(sing, order=6).raw
    assert report.indices["interior"][0]["raw"] != index_at(sing, order=48).raw


def test_suite_empty_filter_matches_nothing():
    suite = run_suite("no-such-entry-anywhere")
    assert suite.all_passed
    assert suite.scenario_reports == [] and suite.symbolic_reports == []


def test_suite_symbolic_filter():
    suite = run_suite("symbolic-.*-n3")
    names = [r.name for r in suite.symbolic_reports]
    assert names == ["symbolic-dphi-n3", "symbolic-gamma-n3",
                     "symbolic-upsilon-n3"]
    assert suite.scenario_reports == []
    assert suite.all_passed


def test_suite_dimension_filter_selects_scenarios():
    suite = run_suite("annulus.*n2|symbolic-dphi-n2 ")
    assert [r.name for r in suite.scenario_reports] == \
        ["annulus-constant", "annulus-rotational"]
    assert [r.name for r in suite.symbolic_reports] == ["symbolic-dphi-n2"]
    assert suite.all_passed


# -- command line ------------------------------------------------------------------

def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in catalog_names():
        assert name in out


def test_cli_run_text(capsys):
    assert cli.main(["run", "--scenario", "disk-rotational"]) == 0
    out = capsys.readouterr().out
    assert "disk-rotational" in out and "pass" in out


def test_cli_run_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = cli.main(["run", "--scenario", "disk-constant", "--format", "json",
                     "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["passed"] is True


def test_cli_run_unknown_scenario_exit_2(capsys):
    assert cli.main(["run", "--scenario", "moebius"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_run_bad_config_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--scenario", str(bad)]) == 2


def test_cli_run_custom_config_file(tmp_path, capsys):
    cfg = load_catalog_raw("disk-rotational")
    cfg["name"] = "my-disk"
    path = tmp_path / "my-disk.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--scenario", str(path)]) == 0
    assert "my-disk" in capsys.readouterr().out


def test_cli_run_sheared_outward_vector_exit_0(tmp_path, capsys):
    """An outward vector that points outward but is not normal to the
    boundary gives the catalog's index sums."""
    cfg = load_catalog_raw("disk-saddle")
    cfg["boundaries"][0]["outward"] = ["1", "0.3"]
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--scenario", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sums"] == {
        "ind_v": -1, "ind_dminus": 2, "ind_dplus": -2}


def test_cli_run_failing_scenario_exit_1(tmp_path, capsys):
    cfg = load_catalog_raw("disk-rotational")
    cfg["expected"]["ind_v"] = 5  # force a verification failure
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_nan_integral_fails_its_gates(monkeypatch):
    """A gate passes only when its value is <= the tolerance, so a NaN
    integral fails the convergence and Gauss-Bonnet gates."""
    monkeypatch.setattr(runner, "integrate_euler",
                        lambda patch, grid: (math.nan,) * len(grid.parts))
    report = run_scenario(load_catalog_scenario("disk-saddle"))
    assert not report.passed
    assert any("moves omega_x by nan" in f for f in report.failures)
    assert any("Gauss-Bonnet residual nan" in f for f in report.failures)


def test_nan_section_integral_fails_the_boundary_identity(monkeypatch):
    def nan_integrals(bpatch, sections, grid):
        # NaN integrals beside finite densities, angles and v_dot_n arrays
        return (((math.nan,) * len(sections),) * len(grid.parts),
                *np.zeros((3, len(sections), len(grid))))

    monkeypatch.setattr(runner, "integrate_phi_over_section", nan_integrals)
    report = run_scenario(load_catalog_scenario("disk-constant"))
    assert not report.passed
    assert any("boundary-term identity residual nan" in f for f in report.failures)


def test_every_gate_fails_with_its_message_in_order(monkeypatch):
    """Zero tolerances, shifted ``expected``, chi + 1, an index that changes
    under radius halving, nonzero index residuals and integrals that move
    with the order fail every gate of ``disk-saddle``; ``failures`` lists
    each message once, in report order."""
    def interior(sing, order, radius=None):
        res = index_at(sing, order, radius)
        return dataclasses.replace(res, value=res.value + (radius is not None),
                                   residual=0.25)

    def tangential(*args, **kwargs):
        return dataclasses.replace(index_tangential(*args, **kwargs), residual=0.125)

    def euler(patch, grid):
        return tuple(w + 1e-6 * len(grid.weights[part])
                     for w, part in zip(integrate_euler(patch, grid), grid.parts))

    def phi(bpatch, sections, grid):
        integrals, *integrand = integrate_phi_over_section(bpatch, sections, grid)
        sizes = [len(grid.weights[part]) for part in grid.parts]
        return tuple((phi_n + 1e-6 * size, phi_s + 2e-6 * size)
                     for (phi_n, phi_s), size in zip(integrals, sizes)), *integrand

    for name, patched in (("index_at", interior), ("index_tangential", tangential),
                          ("integrate_euler", euler),
                          ("integrate_phi_over_section", phi)):
        monkeypatch.setattr(runner, name, patched)
    cfg = load_catalog_raw("disk-saddle")
    cfg["tolerances"] = dict.fromkeys(("integer", "thm", "gauss_bonnet", "convergence"), 0)
    cfg["expected"] = {"ind_v": 0, "ind_dminus": 3}
    cfg["chi"] = 2
    report = run_scenario(load_scenario(cfg))
    moved, residuals = report.convergence, report.residuals
    tangential_names = [r["name"] for key in ("tangential_minus", "tangential_plus")
                        for r in report.indices[key]]
    assert sorted(tangential_names) == ["east", "north", "south", "west"]
    assert report.failures == [
        "index of center changed under radius halving: -1 vs 0",
        "index residual of center is 2.50e-01 > 0e+00",
        *(f"tangential index residual of {name} is 1.25e-01 > 0e+00" for name in tangential_names),
        *(f"quadrature non-convergence: doubling the order moves {key} by {moved[key]:.2e}"
          for key in ("omega_x", "phi_normal", "phi_section")),
        "law residual is -1, not 0",
        f"boundary-term identity residual {residuals['thm']:.3e} exceeds 0e+00",
        f"relative Gauss-Bonnet residual {residuals['gauss_bonnet']:.3e} exceeds 0e+00",
        "ind V = -1, catalog expects 0",
        "ind d-V = 2, catalog expects 3",
    ]
    assert all(moved.values()) and residuals["thm"] and not report.passed


def test_cli_non_finite_degree_is_one_genericity_line(tmp_path, capsys):
    """A huge index radius makes the degree integral NaN: exit 1 with one
    ``genericity violation:`` line and no numpy warnings."""
    cfg = load_catalog_raw("disk-saddle")
    cfg["interior_singularities"][0]["radius"] = 1e300
    path = tmp_path / "huge-radius.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("genericity violation:") and len(err.splitlines()) == 1


def test_cli_run_unwritable_output_exit_2(tmp_path):
    assert cli.main(["run", "--scenario", "disk-rotational", "--out",
                     str(tmp_path / "no" / "way" / "out.json")]) == 2


def test_cli_symbolic_check(capsys):
    assert cli.main(["symbolic-check", "--n", "3", "--identity", "gamma"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_symbolic_check_n2_boundary_identity_exit_2(capsys):
    assert cli.main(["symbolic-check", "--n", "2", "--identity", "upsilon"]) == 2


def test_cli_symbolic_check_bad_n_exit_2(capsys):
    assert cli.main(["symbolic-check", "--n", "9"]) == 2
    assert cli.main(["symbolic-check", "--n", "6"]) == 2


def test_cli_non_positive_definite_metric_exit_2(tmp_path, capsys):
    _assert_not_positive_definite(tmp_path, capsys, {(0, 0): "r*r-0.5"})


@pytest.mark.parametrize("entries", [{(0, 0): "0"}, {(1, 0): "0", (1, 1): "0"}],
                         ids=["zero-diagonal-entry", "zero-row"])
def test_cli_literal_zero_metric_is_not_positive_definite_exit_2(tmp_path, capsys, entries):
    """A literal "0" is a structural zero: a "0" diagonal entry, or an all-"0"
    last row that leaves no entry in its row or column, is no pivot."""
    _assert_not_positive_definite(tmp_path, capsys, entries)


def _assert_not_positive_definite(tmp_path, capsys, entries):
    raw = load_catalog_raw("disk-constant")
    for (k, l), text in entries.items():
        raw["patch"]["metric"][k][l] = text
    path = tmp_path / "bad-metric.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: metric not positive definite")
    assert "Traceback" not in err and "np.float64" not in err


def test_cli_expression_fault_exit_2(tmp_path, capsys):
    raw = load_catalog_raw("disk-constant")
    raw["patch"]["metric"][1][1] = "r*r/(r-r)"
    path = tmp_path / "zero-division.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: expression 'r*r/(r-r)' fails at [")
    assert "Traceback" not in err and "np.float64" not in err


def test_cli_overflowing_metric_derivative_exit_2(tmp_path, capsys):
    """An entry whose value is finite on the disk but whose derivative
    overflows at its rim exits 2 with one line that names the entry."""
    raw = load_catalog_raw("disk-constant")
    raw["patch"]["metric"][0][0] = "exp(705*r)"
    path = tmp_path / "steep-metric.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: metric entry (0, 0) has a derivative "
                          "that is not finite at chart point [1.0, ")
    assert "Traceback" not in err and "np.float64" not in err


def test_cli_symbolic_print_phi(capsys):
    assert cli.main(["symbolic-check", "--n", "2", "--identity", "dphi",
                     "--print", "phi"]) == 0
    out = capsys.readouterr().out
    assert "u1*th2" in out


def test_cli_suite_filtered(capsys):
    assert cli.main(["suite", "--filter", "symbolic-upsilon-n4"]) == 0
    out = capsys.readouterr().out
    assert "symbolic-upsilon-n4" in out and "ALL PASSED" in out


def test_cli_suite_empty_filter_exit_0(capsys):
    assert cli.main(["suite", "--filter", "zzz-nothing"]) == 0
    assert "ALL PASSED" in capsys.readouterr().out


def test_cli_run_order_override(tmp_path):
    out_path = tmp_path / "r.json"
    code = cli.main(["run", "--scenario", "disk-rotational", "--order", "32",
                     "--format", "json", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["quadrature"]["boundary_order"] == 32
    assert data["passed"] is True
