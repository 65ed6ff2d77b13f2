"""Unit tests for the script pipelines (SIS stand-ins)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.network.scripts import (
    prepare_one_to_one,
    prepare_tels,
    script_algebraic,
    script_boolean,
)
from repro.network.simulate import equivalent_networks
from tests.conftest import random_network


class TestScriptAlgebraic:
    def test_preserves_function(self, motivational_network):
        out = script_algebraic(motivational_network)
        assert equivalent_networks(motivational_network, out)

    def test_reduces_literals_fuzz(self):
        for seed in range(12):
            net = random_network(seed + 500)
            out = script_algebraic(net)
            assert equivalent_networks(net, out), seed
            assert out.num_literals() <= net.num_literals() + 2, seed

    def test_output_names_preserved(self):
        net = random_network(510)
        out = script_algebraic(net)
        assert out.outputs == net.outputs


class TestScriptBoolean:
    def test_preserves_function_fuzz(self):
        for seed in range(12):
            net = random_network(seed + 520)
            out = script_boolean(net)
            assert equivalent_networks(net, out), seed

    def test_never_more_literals_than_algebraic_much(self):
        for seed in range(6):
            net = random_network(seed + 530)
            alg = script_algebraic(net)
            boo = script_boolean(net)
            assert boo.num_literals() <= alg.num_literals() + 4


class TestPrepareOneToOne:
    def test_bounded_fanin_simple_gates(self):
        net = random_network(540)
        out = prepare_one_to_one(net, max_fanin=3)
        assert equivalent_networks(net, out)
        for node in out.node_names:
            func = out.function(node)
            assert func.nvars <= 3
            single_cube = func.num_cubes <= 1
            or_shape = all(c.num_literals == 1 for c in func.cover.cubes)
            assert single_cube or or_shape

    def test_output_does_not_depend_on_hash_seed(self):
        """Extracted kernels are rebuilt in one order in every process."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = (
            "import sys\n"
            "from repro.benchgen.mcnc import build_benchmark\n"
            "from repro.io.blif import to_blif\n"
            "from repro.network.scripts import prepare_one_to_one\n"
            "net = prepare_one_to_one(build_benchmark('x1'), max_fanin=3)\n"
            "sys.stdout.write(to_blif(net))\n"
        )
        outputs = []
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_inverter_gates_default(self):
        net = random_network(541)
        out = prepare_one_to_one(net, max_fanin=3)
        for node in out.node_names:
            func = out.function(node)
            if func.nvars == 1 and func.num_cubes == 1:
                continue  # inverter or buffer
            for cube in func.cover.cubes:
                assert cube.neg == 0, (node, func)


class TestPrepareTels:
    def test_preserves_function_fuzz(self):
        for seed in range(8):
            net = random_network(seed + 550)
            out = prepare_tels(net)
            assert equivalent_networks(net, out), seed

    def test_fine_granularity(self):
        net = random_network(560)
        out = prepare_tels(net)
        for node in out.node_names:
            func = out.function(node)
            single_cube = func.num_cubes <= 1
            or_shape = all(c.num_literals == 1 for c in func.cover.cubes)
            assert single_cube or or_shape
