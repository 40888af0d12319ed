"""Scenario configs, reports, and the command-line surface."""

import csv
import io
import json
import math
import os

import pytest

from lawcheck import cli
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


def test_emit_report_to_file(tmp_path, disk_report):
    path = tmp_path / "report.json"
    emit_report(disk_report, fmt="json", path=str(path))
    data = json.loads(path.read_text())
    assert data["name"] == "disk-constant"
    assert data["residuals"]["law"] == 0
    assert "wall_time_s" not in data


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
