"""Verification reports: structure, serialization, and emission formats."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, replace


PROFILE_COLUMNS = ("t", "weight", "density_normal", "density_section", "angle", "v_dot_n")


@dataclass
class ScenarioReport:
    name: str
    dimension: int
    chi: int
    seed: int
    indices: dict            # interior / tangential_minus / tangential_plus lists
    sums: dict               # ind_v, ind_dminus, ind_dplus
    integrals: dict          # omega_x, phi_normal, phi_section
    convergence: dict        # order-doubling deltas per integral
    residuals: dict          # law (int), thm (float), gauss_bonnet (float)
    tolerances: dict
    quadrature: dict
    warnings: list
    failures: list
    passed: bool
    wall_time_s: float = 0.0
    # per boundary, {"boundary": name} and the node columns of PROFILE_COLUMNS
    profile: list = field(default_factory=list, repr=False)

    def to_dict(self, include_timing=False):
        out = asdict(replace(self, profile=[]))  # no deep copy of the dropped profile
        del out["profile"]
        if not include_timing:
            del out["wall_time_s"]
        return out

    def to_json(self, include_timing=False):
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def profile_rows(self):
        """The profile as one dict per node, in boundary and node order:
        boundary, node, then each of PROFILE_COLUMNS as Python floats (t as
        a list of them)."""
        return [{"boundary": cols["boundary"], "node": node, **dict(zip(PROFILE_COLUMNS, row))}
                for cols in self.profile
                for node, row in enumerate(zip(*(cols[key].tolist() for key in PROFILE_COLUMNS)))]

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data.setdefault("wall_time_s", 0.0)
        data.setdefault("profile", [])
        return cls(**data)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def emit_report(report: ScenarioReport, fmt="json", include_timing=False):
    """Render a report as json, text, or csv."""
    if fmt == "json":
        payload = report.to_json(include_timing)
    elif fmt == "text":
        payload = _text_table([report], include_timing)
    elif fmt == "csv":
        payload = _profile_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return payload


def _fmt_float(x):
    return f"{x: .3e}"


def _text_table(reports, include_timing=False):
    headers = ["scenario", "n", "chi", "ind V", "ind d-V",
               "int Omega", "int Phi(n)", "int Phi(V)",
               "law: ind V + ind d-V - chi", "thm residual", "GB residual",
               "status"]
    if include_timing:
        headers.append("time [s]")
    rows = []
    for r in reports:
        row = [r.name, str(r.dimension), str(r.chi),
               str(r.sums["ind_v"]), str(r.sums["ind_dminus"]),
               _fmt_float(r.integrals["omega_x"]),
               _fmt_float(r.integrals["phi_normal"]),
               _fmt_float(r.integrals["phi_section"]),
               str(r.residuals["law"]),
               _fmt_float(r.residuals["thm"]),
               _fmt_float(r.residuals["gauss_bonnet"]),
               "pass" if r.passed else "FAIL"]
        if include_timing:
            row.append(f"{r.wall_time_s:.2f}")
        rows.append(row)
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    for r in reports:
        for w in r.warnings:
            lines.append(f"# warning [{r.name}]: {w}")
        for f in r.failures:
            lines.append(f"# FAILURE [{r.name}]: {f}")
    return "\n".join(lines) + "\n"


def _profile_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scenario", "boundary", "node", "t_params", "weight",
                     "density_normal", "density_section", "section_angle",
                     "v_dot_n"])
    for row in report.profile_rows():
        writer.writerow([
            report.name, row["boundary"], row["node"],
            ";".join(f"{v!r}" for v in row["t"]),
            repr(row["weight"]), repr(row["density_normal"]),
            repr(row["density_section"]), repr(row["angle"]),
            repr(row["v_dot_n"]),
        ])
    return buf.getvalue()


@dataclass
class SymbolicReport:
    name: str
    identity: str
    dimension: int
    residual_terms: int
    passed: bool
    wall_time_s: float = 0.0

    def to_dict(self, include_timing=False):
        out = asdict(self)
        if not include_timing:
            del out["wall_time_s"]
        return out


@dataclass
class SuiteReport:
    scenario_reports: list
    symbolic_reports: list
    all_passed: bool

    def to_dict(self, include_timing=False):
        return {
            "scenarios": [r.to_dict(include_timing) for r in self.scenario_reports],
            "symbolic": [r.to_dict(include_timing) for r in self.symbolic_reports],
            "all_passed": self.all_passed,
        }

    def to_json(self, include_timing=False):
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def to_text(self, include_timing=False):
        parts = []
        if self.scenario_reports:
            parts.append(_text_table(self.scenario_reports, include_timing))
        if self.symbolic_reports:
            lines = ["identity checks:"]
            for r in self.symbolic_reports:
                status = "pass" if r.passed else "FAIL"
                lines.append(f"  {r.name:<24} residual terms = "
                             f"{r.residual_terms:<4d} {status}")
            parts.append("\n".join(lines) + "\n")
        verdict = "ALL PASSED" if self.all_passed else "FAILURES PRESENT"
        parts.append(verdict + "\n")
        return "\n".join(parts)
