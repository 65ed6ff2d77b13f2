"""Regenerate the simulation golden (``golden_simulation.json``).

Run from the repo root::

    PYTHONPATH=src python -m tests.core.make_golden

``test_golden_simulation.py`` recomputes every row; see its docstring for
what the rows pin.
"""

from __future__ import annotations

import json

from tests.core.test_golden_simulation import GOLDEN_PATH, LABELS, golden_row


def main() -> None:
    rows = [golden_row(label) for label in LABELS]
    # One network per line, so a drift shows up as a readable diff.
    GOLDEN_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"
    )
    print(f"{len(rows)} networks")


if __name__ == "__main__":
    main()
