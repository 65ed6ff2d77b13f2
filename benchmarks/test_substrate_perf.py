"""Substrate micro-benchmarks: the operations the synthesis loop lives on.

Not tied to a paper artifact; these catch performance regressions in the
cover engine, simplex, simulation, and the script pipelines.
"""

from __future__ import annotations

import random

from repro.benchgen.mcnc import build_benchmark
from repro.boolean.cover import Cover
from repro.boolean.factor import factor
from repro.boolean.kernels import kernels
from repro.boolean.minimize import minimize
from repro.network.scripts import script_algebraic
from repro.network.simulate import random_pi_vectors, simulate_vectors


def _random_covers(count, nvars, cubes, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = [
            "".join(rng.choice("01-") for _ in range(nvars))
            for _ in range(cubes)
        ]
        out.append(Cover.from_strings(rows))
    return out


def test_benchmark_complement(benchmark):
    covers = _random_covers(30, 8, 8)

    def run():
        for cover in covers:
            cover.complement()

    benchmark(run)


def test_benchmark_tautology(benchmark):
    covers = _random_covers(50, 8, 10, seed=1)

    def run():
        for cover in covers:
            cover.is_tautology()

    benchmark(run)


def test_benchmark_minimize(benchmark):
    covers = _random_covers(20, 6, 8, seed=2)

    def run():
        for cover in covers:
            minimize(cover)

    benchmark(run)


def test_benchmark_kernels(benchmark):
    covers = _random_covers(20, 8, 10, seed=3)

    def run():
        for cover in covers:
            kernels(cover)

    benchmark(run)


def test_benchmark_factor(benchmark):
    covers = _random_covers(20, 8, 10, seed=4)

    def run():
        for cover in covers:
            factor(cover)

    benchmark(run)


def test_benchmark_bit_parallel_simulation(benchmark):
    net = build_benchmark("comp")
    rng = random.Random(0)
    vecs = random_pi_vectors(net, 4096, rng)
    benchmark(lambda: simulate_vectors(net, vecs, 4096))


def test_benchmark_script_algebraic(benchmark):
    source = build_benchmark("term1")
    benchmark(lambda: script_algebraic(source))
