"""Run one workload over several seeds and summarize each metric.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload bulk --seeds 1-10 [--seconds 22]
        [--json out.json]

Each seed is one ``perfbench/run.py`` process.  For every metric it prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 - Q1) / median, which ``BENCHMARK.json`` bounds must
exceed; for the speed-scaled timings it also prints the unscaled median and
spread.  With ``--json`` the summary is also written out; that is how
``baseline.json`` was produced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="22")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    samples: dict[str, list[float]] = {}
    unscaled: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    incorrect = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", args.seconds,
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            incorrect.append(seed)
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for line in lines:
            if line.startswith("unscaled: "):
                for pair in line[len("unscaled: "):].split(", "):
                    name, value = pair.split()
                    unscaled.setdefault(name, []).append(float(value))
        print(f"seed {seed}: {lines[-2]}", flush=True)

    summary = {name: summarize(values) for name, values in samples.items()}
    raw = {name: summarize(values) for name, values in unscaled.items()}
    for name, row in summary.items():
        text = (
            f"{name:<36} {row['median']:14.4f} {units[name]:<6} "
            f"q1 {row['q1']:.4f} q3 {row['q3']:.4f} spread {row['spread']:.4f}"
        )
        if name in raw:
            text += f"  (unscaled {raw[name]['median']:.4f}, spread {raw[name]['spread']:.4f})"
        print(text)
    if incorrect:
        print(f"incorrect on seeds {incorrect}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {"workload": args.workload, "seeds": args.seeds,
                 "metrics": summary, "unscaled": raw, "samples": samples},
                indent=1,
            )
            + "\n"
        )
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
