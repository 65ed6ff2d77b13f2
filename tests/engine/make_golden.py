"""Regenerate the engine counter golden (``golden_metrics.json``).

Run from the repo root::

    PYTHONPATH=src python tests/engine/make_golden.py

The golden pins every counter a serial synthesis run reports, in each
place it is rendered:

* every ``phase`` and ``task-done`` event the run emits (``seconds``
  dropped);
* the ``SynthesisReport`` counters;
* the non-timing fields of ``report.checker.stats`` and of the run's
  ``store.stats`` delta;
* the daemon's job-result payload (``report_to_dict``) without its
  ``wall_s`` keys.

Runs: comp, cm85a and parmix at ψ=3 under each gate model, plus a
cold/warm pair of comp against one persistent ``cache_dir``.  Regenerate
only when a counter changes on purpose; ``test_golden_metrics.py`` fails
on any drift.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import fields
from pathlib import Path

from repro.benchgen.extended import build_extended_benchmark
from repro.core.synthesis import SynthesisOptions
from repro.core.verify import verify_threshold_network
from repro.engine.scheduler import run_synthesis
from repro.engine.store import ResultStore
from repro.network.scripts import prepare_tels
from repro.serve.schemas import report_to_dict

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")

CIRCUITS = ("comp", "cm85a", "parmix")
GATE_MODELS = ("ltg", "multi-threshold", "flash")
#: CheckStats fields that hold seconds, not counts.
TIMING_FIELDS = {"exact_wall_s", "scipy_wall_s"}


def _without_wall_s(value):
    if isinstance(value, dict):
        return {
            k: _without_wall_s(v) for k, v in value.items() if k != "wall_s"
        }
    if isinstance(value, list):
        return [_without_wall_s(v) for v in value]
    return value


def _counters(record, skip=frozenset()) -> dict:
    return {
        f.name: getattr(record, f.name)
        for f in fields(record)
        if f.name not in skip
    }


def capture(
    name: str,
    model: str = "ltg",
    cache_dir: str | None = None,
    jobs: int = 1,
) -> dict:
    """One run's counters, in every place they are rendered."""
    source = build_extended_benchmark(name)
    prepared = prepare_tels(source)
    store = (
        ResultStore.with_cache_dir(cache_dir)
        if cache_dir is not None
        else ResultStore()
    )
    store_before = store.stats.snapshot()
    events: list[dict] = []

    def listen(event: dict) -> None:
        if event["event"] in ("phase", "task-done"):
            events.append(
                {k: v for k, v in event.items() if k != "seconds"}
            )

    result = run_synthesis(
        prepared,
        SynthesisOptions(psi=3, seed=0, gate_model=model),
        jobs=jobs,
        store=store,
        on_event=listen,
    )
    report = result.report
    verified = verify_threshold_network(source, result.network)
    return {
        "events": events,
        "report": {
            name: getattr(report, name)
            for name in (
                "nodes_processed",
                "gates_emitted",
                "binate_splits",
                "unate_splits",
                "kway_splits",
                "theorem2_applications",
                "and_factor_splits",
                "degraded_cones",
            )
        },
        "checker_stats": _counters(report.checker.stats, TIMING_FIELDS),
        "store_stats": _counters(store.stats.since(store_before)),
        "result": _without_wall_s(
            report_to_dict(result.network, report, verified, 0.0)
        ),
    }


def capture_all() -> dict[str, dict]:
    golden = {
        f"{name}/{model}": capture(name, model)
        for name in CIRCUITS
        for model in GATE_MODELS
    }
    with tempfile.TemporaryDirectory() as tmp:
        golden["comp/ltg/cache-cold"] = capture("comp", cache_dir=tmp)
        golden["comp/ltg/cache-warm"] = capture("comp", cache_dir=tmp)
    return golden


def main() -> None:
    golden = capture_all()
    # One compact line per run: the events make an indented file ~640 KB.
    rows = [
        json.dumps(key)
        + ":"
        + json.dumps(run, sort_keys=True, separators=(",", ":"))
        for key, run in sorted(golden.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    for key, run in golden.items():
        print(
            f"{key}: {len(run['events'])} events, "
            f"{run['checker_stats']['calls']} checks, "
            f"{run['report']['gates_emitted']} gates"
        )


if __name__ == "__main__":
    main()
