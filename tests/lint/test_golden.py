"""Lint findings must match the checked-in diagnostics golden exactly.

``golden_diagnostics.json`` (regenerated only via ``make_golden.py``) pins
every diagnostic — rule, severity, gate, net, message, in report order —
over the hand-built fixtures and over the engine post-pass on a few
corpus circuits under each gate model.  Restructuring the rules or the
engine's lint wiring must reproduce it, serially and on a process pool.
"""

from __future__ import annotations

import json

import pytest

from tests.lint.make_golden import GOLDEN_PATH, engine_rows, fixture_rows

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _mismatches(actual: dict, expected: dict) -> list[str]:
    return sorted(
        key
        for key in set(actual) | set(expected)
        if actual.get(key) != expected.get(key)
    )


def test_fixture_diagnostics_match_golden():
    actual = fixture_rows()
    assert not _mismatches(actual, GOLDEN["fixtures"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_post_pass_matches_golden(jobs):
    actual = engine_rows(jobs=jobs)
    assert not _mismatches(actual, GOLDEN["engine"])
