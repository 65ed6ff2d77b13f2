"""Every prepared network must match the checked-in prepared-network golden.

``golden_prepared.json`` (regenerated only via ``make_golden.py``) pins the
``to_blif`` bytes, as a sha256, of ``prepare_tels`` on the large corpus and
the Table-I circuits and of ``prepare_one_to_one(..., max_fanin=3)`` on the
Table-I circuits (i10 excepted).  Making the transforms faster must
reproduce every one of them.
"""

from __future__ import annotations

import json

import pytest

from tests.network.make_golden import GOLDEN_PATH, capture, cases

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_lists_every_case():
    assert sorted(GOLDEN) == sorted(f"{flow}/{name}" for flow, name in cases())


@pytest.mark.parametrize(("flow", "name"), cases())
def test_prepared_network_matches_golden(flow, name):
    assert capture(flow, name) == GOLDEN[f"{flow}/{name}"]
