"""Scenario configs, reports, and the command-line surface."""

import copy
import csv
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lawcheck import cli
from lawcheck.fields import index_at
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


_SADDLE = ("interior_singularities", 0)
_MALFORMED = {
    "dimension-abc": ("disk-constant", _set("dimension", "abc")),
    "seed-abc": ("disk-constant", _set("seed", "abc")),
    "margin-abc": ("disk-constant", _set("field", "margin", "abc")),
    "order-abc": ("disk-constant", _set("orders", {"boundary": "abc"})),
    "order-0": ("disk-constant", _set("orders", {"interior": 0})),
    "order-negative": ("disk-constant", _set("orders", {"degree": -3})),
    "tolerance-x": ("disk-constant", _set("tolerances", {"thm": "x"})),
    "patch-box-one-interval": ("disk-constant", _set("patch", "box", [[0, 1]])),
    "patch-box-short-interval": ("disk-constant",
                                 _set("patch", "box", [[0], [0, "2*pi"]])),
    "boundary-box-empty": ("disk-constant", _set("boundaries", 0, "box", [])),
    "metric-1x1": ("disk-constant", _set("patch", "metric", [["1"]])),
    "metric-asymmetric": ("disk-constant",
                          _set("patch", "metric", [["1", "0.5"], ["0", "r*r"]])),
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
    "chi-fraction": ("disk-constant", _set("chi", 1.5)),
    "expected-fraction": ("disk-constant", _set("expected", "ind_v", 0.5)),
    "name-not-string": ("disk-constant", _set("name", None)),
}


def _assert_one_config_error_line(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_malformed_scenario_exit_2(case, tmp_path, capsys):
    base, mutate = _MALFORMED[case]
    cfg = load_catalog_raw(base)
    mutate(cfg)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    _assert_one_config_error_line(cli.main(["run", "--scenario", str(path)]), capsys)


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
    assert report.indices["interior"][0]["raw"] != index_at(sing).raw


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


def test_cli_run_failing_scenario_exit_1(tmp_path, capsys):
    cfg = load_catalog_raw("disk-rotational")
    cfg["expected"]["ind_v"] = 5  # force a verification failure
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--scenario", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


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
    raw = load_catalog_raw("disk-constant")
    raw["patch"]["metric"][0][0] = "r*r-0.5"
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
