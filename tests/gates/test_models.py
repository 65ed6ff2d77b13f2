"""Gate-model backends: model table, MT absorption, flash device rules.

The default (``ltg``) behavior is pinned separately by
``test_differential.py``; this module covers what the other backends add
on top — the model table and its lookups, the multi-threshold parity
absorption the single-threshold flow cannot do, the flash grid/drift
sign-off, and the NP-transform algebra persistent entries round-trip
through.
"""

from __future__ import annotations

import pytest

from repro.boolean.function import BooleanFunction
from repro.cache.canonical import NPTransform
from repro.core.identify import is_threshold_function
from repro.core.threshold import MultiThresholdVector, WeightThresholdVector
from repro.errors import ReproError
from repro.gates import (
    MODELS,
    FlashModel,
    LtgModel,
    MultiThresholdModel,
    get_model,
    model_for_fingerprint,
    model_names,
)

#: 3-input odd parity in SOP form — the smallest XOR cone worth absorbing.
XOR3 = "a b' c' + a' b c' + a' b' c + a b c"


class TestRegistry:
    def test_builtins_registered(self):
        assert set(model_names()) == {"ltg", "multi-threshold", "flash"}

    def test_get_model_returns_shared_instances(self):
        assert isinstance(get_model("ltg"), LtgModel)
        assert isinstance(get_model("multi-threshold"), MultiThresholdModel)
        assert isinstance(get_model("flash"), FlashModel)
        assert get_model("ltg") is get_model("ltg")

    def test_unknown_model_raises_with_known_names(self):
        with pytest.raises(ReproError, match="ltg"):
            get_model("cmos")

    def test_fingerprints_are_distinct(self):
        prints = [m.fingerprint for m in MODELS.values()]
        assert len(prints) == len(set(prints))

    def test_model_for_fingerprint_is_exact(self):
        # Each model's own fingerprint resolves (ltg's is None, its keys
        # carry no suffix); a re-parameterized one from the same family
        # does not, since no live key can carry it.
        assert get_model("ltg").fingerprint is None
        for model in MODELS.values():
            assert model_for_fingerprint(model.fingerprint) is model
        assert model_for_fingerprint("flash-v1:L16:d0.1") is None
        assert model_for_fingerprint("mtg-v1:k9:w3") is None
        assert model_for_fingerprint("ltg-v1") is None
        assert model_for_fingerprint("quantum-v1") is None


class TestMultiThresholdAbsorption:
    def test_parity_is_not_a_single_threshold_function(self):
        assert is_threshold_function(BooleanFunction.parse(XOR3)) is None

    def test_parity_absorbs_into_one_k_threshold_gate(self):
        vector = is_threshold_function(
            BooleanFunction.parse(XOR3), gate_model="multi-threshold"
        )
        assert isinstance(vector, MultiThresholdVector)
        # <1,1,1; 1,2,3>: the weighted sum counts true inputs and the
        # output toggles at every threshold — exactly odd parity.
        assert vector.weights == (1, 1, 1)
        assert vector.thresholds == (1, 2, 3)
        for total, on in ((0, False), (1, True), (2, False), (3, True)):
            assert vector.fires(total) is on

    def test_threshold_functions_still_come_back_single(self):
        # Anything the LTG pipeline already handles must not grow extra
        # thresholds: the MT search only runs after the LTG path fails.
        vector = is_threshold_function(
            BooleanFunction.parse("a b + a c + b c"),
            gate_model="multi-threshold",
        )
        assert isinstance(vector, WeightThresholdVector)

    def test_mt_vector_verifies_against_its_cover(self):
        model = get_model("multi-threshold")
        xor2_key = (2, ((1, 2), (2, 1)))  # a b' + a' b
        good = MultiThresholdVector((1, 1), (1, 2))
        assert model.verify_vector(xor2_key, good, 0, 1)
        # An AND vector disagrees with XOR on (1, 1): rejected.
        bad = MultiThresholdVector((1, 1), (2,))
        assert not model.verify_vector(xor2_key, bad, 0, 1)

    def test_np_transform_roundtrip(self):
        model = get_model("multi-threshold")
        vector = MultiThresholdVector((1, 2, 1), (1, 3, 4))
        transform = NPTransform(perm=(2, 0, 1), flipped=(False, True, True))
        encoded = model.encode_canonical(vector, transform)
        assert encoded is not None and len(encoded) == 6
        decoded = model.decode_canonical(encoded, transform)
        assert decoded == vector

    def test_persistent_roundtrip(self, tmp_path):
        # An MT solve flushed to disk must come back verbatim on a warm
        # run — including its extra thresholds, which ride in the same
        # entry format as single-threshold weights.
        from repro.engine.store import ResultStore

        cold = is_threshold_function(
            BooleanFunction.parse(XOR3),
            cache_dir=str(tmp_path),
            gate_model="multi-threshold",
        )
        store = ResultStore.with_cache_dir(str(tmp_path))
        warm = is_threshold_function(
            BooleanFunction.parse(XOR3),
            store=store,
            gate_model="multi-threshold",
        )
        assert warm == cold
        assert store.stats.persistent_hits > 0


class TestFlashDeviceRules:
    def test_required_margin_scales_with_peak_weight(self):
        model = get_model("flash")
        assert model.required_margin(()) == 0
        assert model.required_margin((1, 1)) == 1
        assert model.required_margin((5, -3)) == 2  # ceil(0.25 * 5)
        assert model.required_margin((8,)) == 2

    def test_admits_vector_rejects_off_grid_weights(self):
        model = get_model("flash")
        assert not model.admits_vector(
            WeightThresholdVector((model.levels + 1,), 1)
        )
        assert not model.admits_vector(MultiThresholdVector((1, 1), (1, 2)))

    def test_admits_vector_enforces_the_drift_floor(self):
        model = get_model("flash")
        # <1, 1; 2> (AND): both margins are 0 < ceil(0.25 * 1) = 1.
        assert not model.admits_vector(WeightThresholdVector((1, 1), 2))
        # <2, 2; 3>: ON margin 1, OFF margin 1 — covers the drift of w=2.
        assert model.admits_vector(WeightThresholdVector((2, 2), 3))

    def test_or_vector_signs_off_its_own_drift(self):
        model = get_model("flash")
        vec = model.or_vector(3, 0, 1)
        on, off = vec.margins()
        req = model.required_margin(vec.weights)
        assert req > 0
        assert on >= req and off >= req

    def test_check_widens_margins_to_cover_drift(self):
        vector = is_threshold_function(
            BooleanFunction.parse("a b + a c + b c"), gate_model="flash"
        )
        assert isinstance(vector, WeightThresholdVector)
        model = get_model("flash")
        assert model.admits_vector(vector)


class TestEngineAbsorption:
    """End-to-end: the same parity cone, one gate model apart."""

    @staticmethod
    def _parity_network():
        from repro.benchgen.circuits import CircuitBuilder

        cb = CircuitBuilder("p6")
        cb.output(cb.parity_tree(cb.inputs("y", 6)), "even")
        return cb.done()

    def test_multi_threshold_beats_ltg_on_parity(self):
        from repro.core.area import network_stats
        from repro.core.synthesis import (
            SynthesisOptions,
            synthesize_with_report,
        )
        from repro.core.verify import verify_threshold_network
        from repro.network.scripts import prepare_tels

        results = {}
        for model in ("ltg", "multi-threshold"):
            source = self._parity_network()
            net, report = synthesize_with_report(
                prepare_tels(source),
                SynthesisOptions(
                    psi=9, gate_model=model, preserve_sharing=False
                ),
            )
            assert verify_threshold_network(source, net)
            results[model] = (
                network_stats(net).gates,
                report.checker.stats.multithreshold_hits,
            )
        ltg_gates, _ = results["ltg"]
        mt_gates, mt_hits = results["multi-threshold"]
        assert mt_hits >= 1
        assert mt_gates < ltg_gates


class TestParmixStressor:
    """``parmix`` under every gate model: psi=9, sharing off, fresh store.

    The stressor holds a parity cone, a 9-support threshold cone and a
    unate non-threshold cone, so each model meets the paths it changes.
    """

    MODELS = ("ltg", "multi-threshold", "flash")

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.benchgen.extended import build_extended_benchmark
        from repro.core.synthesis import (
            SynthesisOptions,
            synthesize_with_report,
        )
        from repro.engine.store import ResultStore
        from repro.network.scripts import prepare_tels

        source = build_extended_benchmark("parmix")
        prepared = prepare_tels(source)
        results = {
            model: synthesize_with_report(
                prepared,
                SynthesisOptions(
                    psi=9,
                    gate_model=model,
                    preserve_sharing=False,
                    analyze=True,
                ),
                store=ResultStore(),
            )
            for model in self.MODELS
        }
        return source, results

    @pytest.mark.parametrize("model", MODELS)
    def test_verified_without_degraded_cones(self, runs, model):
        from repro.core.verify import verify_threshold_network

        source, results = runs
        network, report = results[model]
        assert verify_threshold_network(source, network, vectors=256)
        assert report.degraded_cones == 0

    def test_ltg_reaches_the_ilp_and_refutes_a_cone(self, runs):
        # The 9-support cone is past the fast path's Chow bound; the
        # unate non-threshold cone falls to the 2-monotonicity screen.
        _, results = runs
        stats = results["ltg"][1].checker.stats
        assert stats.ilp_solved > 0
        assert stats.fastpath_negatives > 0

    def test_multi_threshold_needs_fewer_gates_than_ltg(self, runs):
        from repro.core.area import network_stats

        _, results = runs
        ltg = network_stats(results["ltg"][0]).gates
        assert network_stats(results["multi-threshold"][0]).gates < ltg

    @pytest.mark.parametrize("model", MODELS)
    def test_auto_writes_the_exact_backends_bytes(self, runs, model):
        # Every parmix ILP is infeasible: a certified scipy INFEASIBLE is
        # the same answer the exact solver proves, so the networks agree
        # byte for byte and, with scipy, no exact solve runs.  The scipy
        # backend, skipped without scipy, runs the same verified chain.
        from repro.core.synthesis import (
            SynthesisOptions,
            synthesize_with_report,
        )
        from repro.engine.store import ResultStore
        from repro.ilp.scipy_backend import have_scipy
        from repro.io.thblif import to_thblif
        from repro.network.scripts import prepare_tels

        source, results = runs
        network, report = results[model]
        for backend in ("exact", "scipy") if have_scipy() else ("exact",):
            reference, _ = synthesize_with_report(
                prepare_tels(source),
                SynthesisOptions(
                    psi=9,
                    gate_model=model,
                    preserve_sharing=False,
                    analyze=True,
                    backend=backend,
                ),
                store=ResultStore(),
            )
            assert to_thblif(network) == to_thblif(reference), backend
        stats = report.checker.stats
        assert stats.ilp_solved > 0
        if have_scipy():
            assert stats.scipy_solves == stats.ilp_solved
            assert stats.exact_solves == 0

    @pytest.mark.parametrize("model", MODELS)
    def test_no_unverified_finding_and_lint_clean(self, runs, model):
        from repro.lint.diagnostics import LintOptions
        from repro.lint.runner import run_lint

        source, results = runs
        network, report = results[model]
        assert report.analysis.unverified_findings == []
        lint = run_lint(
            network, LintOptions(psi=9, gate_model=model), source=source
        )
        assert lint.violations == 0, lint.by_rule()


class TestWithoutNumpy:
    """Synthesis needs no numpy: every gate model runs with it blocked."""

    MODELS = ("ltg", "multi-threshold", "flash")

    #: Makes every import of numpy and scipy (which needs numpy) fail, as
    #: if neither were installed, then writes cm85a synthesized under each
    #: model named on the command line.
    SCRIPT = """
import sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, _NoNumpy())
from repro import (
    SynthesisOptions, build_benchmark, prepare_tels, synthesize,
    verify_threshold_network,
)
from repro.io.thblif import to_thblif

source = build_benchmark("cm85a")
prepared = prepare_tels(source)
for model in sys.argv[1:]:
    network = synthesize(prepared, SynthesisOptions(gate_model=model))
    assert verify_threshold_network(source, network), model
    sys.stdout.write(to_thblif(network))
assert "numpy" not in sys.modules
"""

    def test_cm85a_under_every_model(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.benchgen import build_benchmark
        from repro.core.synthesis import SynthesisOptions, synthesize
        from repro.io.thblif import to_thblif
        from repro.network.scripts import prepare_tels

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *self.MODELS],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # Without scipy, auto is the exact solver: the same networks as an
        # exact-backend run with numpy present.
        prepared = prepare_tels(build_benchmark("cm85a"))
        assert proc.stdout == "".join(
            to_thblif(
                synthesize(
                    prepared, SynthesisOptions(gate_model=m, backend="exact")
                )
            )
            for m in self.MODELS
        )
