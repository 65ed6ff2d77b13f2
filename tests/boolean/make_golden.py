"""Regenerate the packed-kernel golden (``golden_tables.json``).

Run from the repo root::

    PYTHONPATH=src python -m tests.boolean.make_golden

The golden pins the outputs of the packed truth-table kernels on seeded
inputs: ``cover_table``, ``cofactor_table``, ``smooth_table``,
``table_support`` and the Chow row of three covers per width from 1 to
``MAX_TABLE_VARS`` variables; ``weighted_sums`` and ``fires_table`` on
weight vectors of both signs; ``simulate_vectors`` on two networks over
vector widths on both sides of the 64-bit word boundaries; and
``simulate_threshold_vectors`` on one seeded threshold network per gate
model over the same widths.  Tables
wider than 256 bits are stored as a popcount and a digest.
``test_bitset_differential.py`` recomputes every entry; regenerate only
when a kernel's output changes on purpose.
"""

from __future__ import annotations

import json

from tests.boolean.test_bitset_differential import (
    GOLDEN_PATH,
    cover_row,
    golden_covers,
    golden_weights,
    simulation_rows,
    threshold_simulation_rows,
    weights_row,
)


def main() -> None:
    golden = {
        "covers": [cover_row(cover) for cover in golden_covers()],
        "weights": [weights_row(weights) for weights in golden_weights()],
        "simulation": simulation_rows(),
        "threshold": threshold_simulation_rows(),
    }
    # One case per line, so a drift shows up as a readable diff.
    sections = [
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(row) for row in rows)
        + "\n]"
        for name, rows in golden.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    for name, rows in golden.items():
        print(f"{name}: {len(rows)} cases")


if __name__ == "__main__":
    main()
