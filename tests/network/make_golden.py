"""Regenerate the prepared-network golden (``golden_prepared.json``).

Run from the repo root::

    PYTHONPATH=src python tests/network/make_golden.py

The golden pins the bytes of every network the two SIS stand-ins
prepare, as the sha256 of its ``to_blif`` text:

* ``prepare_tels`` on the 40 large-corpus circuits
  (``repro.benchgen.mcnc.corpus_names()``, the circuits perfbench's seed 0
  runs) and on the Table-I circuits except i10;
* ``prepare_one_to_one(..., max_fanin=3)`` on the Table-I circuits
  except i10.

After writing the golden the script prints the same two hashes for i10.
Preparing i10 takes too long for a test of its own (most of it in
``prepare_one_to_one``), so ``test_i10_flow``
(``tests/integration/test_endtoend.py``), which prepares it anyway,
checks them against its ``I10_PREPARED``.  Regenerate only when a prepared
network changes on purpose; ``test_golden_prepared.py`` and
``test_i10_flow`` fail on any drift.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.benchgen.mcnc import (
    benchmark_names,
    build_benchmark,
    build_corpus_circuit,
    corpus_names,
)
from repro.io.blif import to_blif
from repro.network.scripts import prepare_one_to_one, prepare_tels

GOLDEN_PATH = Path(__file__).with_name("golden_prepared.json")

TABLE1 = tuple(benchmark_names(include_large=False))
CORPUS = tuple(corpus_names())


def digest(network) -> str:
    return hashlib.sha256(to_blif(network).encode()).hexdigest()


def capture(flow: str, name: str) -> str:
    """The hash of one prepared network; ``flow`` is ``tels`` or ``one_to_one``."""
    source = (
        build_corpus_circuit(name) if name in CORPUS else build_benchmark(name)
    )
    if flow == "tels":
        return digest(prepare_tels(source))
    return digest(prepare_one_to_one(source, max_fanin=3))


def cases() -> list[tuple[str, str]]:
    return (
        [("tels", name) for name in CORPUS + TABLE1]
        + [("one_to_one", name) for name in TABLE1]
    )


def main() -> None:
    golden = {f"{flow}/{name}": capture(flow, name) for flow, name in cases()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} hashes to {GOLDEN_PATH}")
    for flow in ("tels", "one_to_one"):
        print(f"{flow}/i10: {capture(flow, 'i10')}", flush=True)


if __name__ == "__main__":
    main()
