"""The README's examples, schema and column lists, checked against the program."""

import argparse
import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from aoi_outage import cli
from aoi_outage.scenarios import PRESETS, parse_scenario
from aoi_outage.simulate import CHECKPOINTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """The README's text under `## title`, up to the next `## ` heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def block(title: str, lang: str) -> str:
    """The first fenced `lang` block of a README section."""
    match = re.search(rf"^```{lang}\n(.*?)^```$", section(title), re.M | re.S)
    assert match, f"README section {title!r} has no {lang} block"
    return match.group(1)


def flat(title: str) -> str:
    """A README section with its line breaks and runs of spaces made single spaces."""
    return " ".join(section(title).split())


COMMANDS = [line for line in block("Command line", "bash").splitlines() if line.startswith("aoi-outage ")]


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    [choices] = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return choices


def test_command_block_runs_every_subcommand():
    assert {shlex.split(command)[1] for command in COMMANDS} == set(subcommands(cli.build_parser()))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parses(command):
    parser = cli.build_parser()
    # a flag spelled short of its full name is a misspelling here
    for sub in subcommands(parser).values():
        sub.allow_abbrev = False
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            parser.parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}\n{usage.getvalue()}")


def test_schema_block_is_a_preset_that_loads():
    document = json.loads(block("Scenario config schema", "json"))
    assert document == PRESETS["scenario_b"]
    parse_scenario(document)  # raises ConfigError on a document it refuses


def test_library_sketch_runs_and_prints():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block("Library sketch", "python"), {})
    # one line per policy: p_out, mean burst length, mean interval
    rows = [[float(value) for value in line.split()] for line in printed.getvalue().splitlines()]
    assert len(rows) == 2 and all(len(row) == 3 and min(row) > 0.0 for row in rows)


def test_checkpoints_are_the_programs():
    match = re.search(r"measured at checkpoints ((?:\d+, )+\d+ and \d+) periods", flat("Output conventions"))
    assert match, "README names no burst-convergence checkpoints"
    assert [int(cp) for cp in re.findall(r"\d+", match.group(1))] == list(CHECKPOINTS)


#: Each CSV the README lists columns for, and a tiny run that writes it to
#: the path "{out}".
TINY_RUNS = {
    "simulate --csv": ["simulate", "--config", "scenario_b", "--policy", "naive", "--reps", "1",
                       "--periods", "10", "--out", "{out}.json", "--csv", "{out}"],
    "reproduce-table2": ["reproduce-table2", "--reps", "1", "--periods", "10", "--out", "{out}"],
    "burst-convergence": ["burst-convergence", "--config", "scenario_b", "--n-policies", "1", "--out", "{out}"],
}


def documented_columns() -> dict[str, list[str]]:
    found = re.findall(r"`([^`]+)` columns: `([^`]+)`", flat("Output conventions"))
    return {command: [column.strip() for column in columns.split(",")] for command, columns in found}


@pytest.mark.parametrize("command", TINY_RUNS)
def test_column_list_is_the_written_header(command, tmp_path):
    out = str(tmp_path / "table.csv")
    assert cli.main([arg.format(out=out) for arg in TINY_RUNS[command]]) == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert documented_columns()[command] == header
