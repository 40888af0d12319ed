"""The line trace of user commands (``tests/line_trace.py``) on a small case."""

import argparse
from pathlib import Path

import line_trace


def test_the_counting_rule_skips_docstrings_declarations_and_module_level():
    source = ('"""Module."""\n'
              "X = 1\n"
              "class C:\n"
              "    Y = 2\n"
              "    def f(self):\n"
              '        """Doc."""\n'
              "        global X\n"
              "        if X:\n"
              "            return (1 +\n"
              "                    2)\n"
              "        @staticmethod\n"
              "        def g():\n"
              "            pass\n")
    found = line_trace.statements(source)
    assert {k: (list(own), owner) for k, (own, owner) in found.items()} == {
        8: ([8], "C.f"), 9: ([9, 10], "C.f"), 12: ([11, 12], "C.f"), 13: ([13], "C.f.g")}


def test_tracing_lawcheck_list_runs_the_list_command_alone():
    """``lawcheck list`` exits 0 and, of cli.py's functions, runs main and
    the list command, not the run command; the report counts every module."""
    codes, ran = line_trace.trace([["list"]])
    assert codes == [0]
    cli = (line_trace.SRC / "cli.py").read_text()
    found = line_trace.statements(cli)
    by_owner = {}
    for own, owner in found.values():
        by_owner.setdefault(owner, []).append(not ran["cli.py"].isdisjoint(own))
    assert all(by_owner["_cmd_list"]) and any(by_owner["main"])
    assert not any(by_owner["_cmd_run"])
    lines = line_trace.report(ran)
    assert len(lines) == len(list(line_trace.SRC.glob("*.py"))) + 2
    assert lines[-2].startswith("total") and "cli.py:_cmd_run" in lines[-1]


def test_the_commands_use_every_subcommand_and_format():
    """``COMMANDS`` runs every subcommand that lawcheck's parser declares,
    each with every choice of its ``--format`` (the default counts), both
    read from the parser, and ``run`` on a scenario file by its path."""
    from lawcheck import cli

    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {(name, choice) for name, p in sub.choices.items() for choice in next(
        (a.choices for a in p._actions if "--format" in a.option_strings), [None])}
    parsed = [parser.parse_args(argv) for argv in line_trace.COMMANDS]
    assert {(ns.command, getattr(ns, "format", None)) for ns in parsed} == declared
    assert any(Path(ns.scenario).is_file() for ns in parsed if ns.command == "run")
