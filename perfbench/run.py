"""TELS benchmark: one command, four workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk --seed 0 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` runs the workload twice in the same process,
first with span wrappers around the layer entry points (:mod:`layers`),
then without, and reports the per-layer metrics, the tracing overhead and
a stage table whose rows sum to the traced wall time.  Spans are written
to ``.perfbench_out/`` at the end.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
The program is imported from ``src/`` of the checkout this file sits in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: End-to-end metrics and their units, printed by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "circuit_ms_p50": "ms",
    "circuit_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "gates": "count",
    "area": "count",
    "levels": "count",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: The speed-scaled metrics; the run also prints them unscaled.
TIMINGS = (
    "setup_s",
    "wall_s",
    "circuit_ms_p50",
    "circuit_ms_p90",
    "jobs_per_s",
    "job_ms_p50",
    "job_ms_p90",
)

#: Minimum set-up batches per untraced run; ``setup_s`` is their median.
SETUPS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    """Percentile, interpolating linearly between the closest ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(run) -> dict[str, float]:
    jobs_per_s = run.completed / run.elapsed
    totals = run.totals()
    return {
        "setup_s": statistics.median(run.setup_s),
        # The daemon has no pass boundary: its wall time is one round of
        # the job mix at the measured throughput.
        "wall_s": (
            statistics.median(run.pass_walls)
            if run.pass_walls
            else run.unit / jobs_per_s
        ),
        "circuit_ms_p50": 1000 * percentile(run.circuit_s, 0.5),
        "circuit_ms_p90": 1000 * percentile(run.circuit_s, 0.9),
        "jobs_per_s": jobs_per_s,
        "job_ms_p50": 1000 * percentile(run.job_s, 0.5),
        "job_ms_p90": 1000 * percentile(run.job_s, 0.9),
        "gates": totals.get("gates", 0),
        "area": totals.get("area", 0),
        "levels": totals.get("levels", 0),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": run.peak_rss_mb,
    }


def check_exact(runs) -> list[str]:
    """Exact counts must repeat across every pass of every run."""
    reference = runs[0].totals()
    problems = []
    for run in runs:
        for counts in run.exact:
            if counts != reference:
                problems.append(f"exact counts differ: {counts} vs {reference}")
    return problems


def describe(workload: str, run) -> str:
    text = (
        f"{workload}: {len(run.pass_walls) or run.completed} "
        f"{'passes' if run.pass_walls else 'jobs'}, "
        f"{len(run.job_s)} {'per-circuit means' if run.by_circuit else 'job samples'}, "
        f"{run.attempted} attempted, "
        f"{run.failed} failed; exact {run.totals()}"
    )
    if run.scales:
        text += f"; speed scale median {statistics.median(run.scales):.3f}"
    if "early_closes" in run.extra:
        text += (
            f"; {run.extra['early_closes']} event streams closed before "
            "their job-done event"
        )
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("bulk", "wide", "daemon", "distributed"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import layers
    import workloads
    from spans import NullTracer, Tracer
    from speed import Unscaled

    OUT.mkdir(exist_ok=True)
    measure = getattr(workloads, args.workload)
    if args.workload == "daemon":
        measure = lambda *a: workloads.daemon(*a, out_dir=OUT)  # noqa: E731

    if not args.trace:
        run = measure(args.seed, args.seconds, NullTracer(), SETUPS)
        unscaled = end_to_end(run.finalize(Unscaled()))
        runs = [run.finalize(run.speed)]
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in end_to_end(run).items()
        }
        print(
            "unscaled: "
            + ", ".join(f"{name} {unscaled[name]:.4f}" for name in TIMINGS)
        )
    else:
        # Traced half first: warm process-level caches then favour the
        # untraced half, so the overhead ratio errs high, never low.  Each
        # half is scaled by its own speed probes, so machine drift between
        # the halves does not masquerade as tracing overhead.
        tracer = Tracer(layers.install)
        half = args.seconds / 2
        traced = measure(args.seed, half, tracer, 1)
        untraced = measure(args.seed, half, NullTracer(), 1)
        runs = [traced.finalize(traced.speed), untraced.finalize(untraced.speed)]
        values, table, wall = layers.per_layer(
            args.workload, tracer, traced, untraced
        )
        metrics = {
            name: {"value": values[name], "unit": layers.unit_of(name)}
            for name in layers.PER_LAYER
        }
        per = "round per client" if args.workload == "daemon" else "pass"
        print(f"stage table: {args.workload}, seconds per {per}")
        for name, seconds, concurrent in table:
            if not concurrent:
                print(f"  {name:<40} {seconds:9.4f} {100 * seconds / wall:6.1f}%")
        rows_sum = sum(row[1] for row in table if not row[2])
        print(f"  {'sum of rows':<40} {rows_sum:9.4f}")
        print(f"  {'traced wall':<40} {wall:9.4f}")
        concurrent_rows = [row for row in table if row[2]]
        if concurrent_rows:
            print("  concurrently, on the worker threads:")
        for name, seconds, _concurrent in concurrent_rows:
            print(f"    {name:<38} {seconds:9.4f}")
        if tracer.missing:
            print(f"wrappers not installed: {', '.join(tracer.missing)}")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    problems = check_exact(runs)
    for run in runs:
        print(describe(args.workload, run))
        problems += run.errors
    for problem in problems:
        print(f"FAIL: {problem}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
