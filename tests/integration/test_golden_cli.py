"""The ``tels`` command line must match the checked-in CLI golden exactly.

``golden_cli.json`` (regenerated only via ``make_golden.py``) pins every
subcommand's flags — option strings, nargs, type, choices, metavar, help
text and the value each resolves to when not given — and the synthesis
parameters the synthesizing commands run with, with no flags and with
every option flag set.
"""

from __future__ import annotations

import json

import pytest

from tests.integration.make_golden import GOLDEN_PATH, parser_rows, run_rows

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _normalized(rows: dict) -> dict:
    """The rows as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(rows))


@pytest.fixture(scope="module")
def parsers() -> dict:
    return _normalized(parser_rows())


@pytest.fixture(scope="module")
def runs() -> dict:
    return _normalized(run_rows())


@pytest.mark.parametrize("command", sorted(GOLDEN["parsers"]))
def test_parser_matches_golden(parsers, command):
    assert parsers.get(command) == GOLDEN["parsers"][command]


def test_no_unpinned_subcommand(parsers):
    assert sorted(parsers) == sorted(GOLDEN["parsers"])


@pytest.mark.parametrize("command", sorted(GOLDEN["runs"]))
def test_run_parameters_match_golden(runs, command):
    assert runs[command] == GOLDEN["runs"][command]
