"""Robustness certificates: machine-checked margin accounting per network.

Every synthesized gate records the defect tolerances it was solved with
(Eq. 1); gate models may demand more (the flash backend's drift floor
``ceil(drift * max|w|)``).  The certificate recomputes every gate's
worst-case ON/OFF margins from its vector, compares them against the
floors its gate model requires, and derives two network-wide facts:

* **slack** — ``min(margin - required)`` over all gates and both sides;
  non-negative slack proves every gate honors its recorded (and
  device-implied) tolerances.
* **perturbation bound** — the largest ``eps`` such that *any* additive
  per-weight perturbation with ``max |eps_i| < bound`` provably leaves
  every network output unchanged.  A gate's weighted sum moves by at
  most ``fanin * eps``, so ``bound = min over gates of
  min(on_margin, off_margin) / fanin`` (Section VI-C's noise model, made
  a theorem instead of an experiment).

Gates too wide to enumerate (``fanin > max_enumeration_fanin``) are
listed as skipped rather than silently trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.threshold import ThresholdNetwork


@dataclass(frozen=True)
class GateCertificate:
    """Margin accounting for one gate."""

    gate: str
    fanin: int
    on_margin: int | None
    off_margin: int | None
    required_on: int
    required_off: int

    @property
    def slack(self) -> int | None:
        """Tightest margin minus its requirement; None when one-sided."""
        slacks = []
        if self.on_margin is not None:
            slacks.append(self.on_margin - self.required_on)
        if self.off_margin is not None:
            slacks.append(self.off_margin - self.required_off)
        return min(slacks) if slacks else None

    @property
    def perturbation_bound(self) -> float:
        """Largest provably tolerated per-weight noise for this gate."""
        if self.fanin == 0:
            return math.inf  # no weights to perturb
        margins = [
            m for m in (self.on_margin, self.off_margin) if m is not None
        ]
        if not margins:
            return math.inf  # constant gate: nothing can flip it
        return min(margins) / self.fanin

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "fanin": self.fanin,
            "on_margin": self.on_margin,
            "off_margin": self.off_margin,
            "required_on": self.required_on,
            "required_off": self.required_off,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class RobustnessCertificate:
    """Network-wide margin facts, derived gate by gate."""

    network: str
    gate_model: str
    gates: tuple[GateCertificate, ...]
    #: Gates too wide to enumerate — explicitly not covered.
    skipped: tuple[str, ...]
    constant_gates: tuple[str, ...]
    stuck_outputs: tuple[tuple[str, int], ...]

    @property
    def min_slack(self) -> int | None:
        slacks = [g.slack for g in self.gates if g.slack is not None]
        return min(slacks) if slacks else None

    @property
    def weakest_gate(self) -> str | None:
        worst: GateCertificate | None = None
        for cert in self.gates:
            if cert.slack is None:
                continue
            if worst is None or cert.slack < (worst.slack or 0):
                worst = cert
        return worst.gate if worst else None

    @property
    def meets_tolerances(self) -> bool:
        """Every covered gate honors its recorded + model-required floors."""
        return all(
            g.slack is None or g.slack >= 0 for g in self.gates
        )

    @property
    def perturbation_bound(self) -> float:
        """Network-level provable per-weight noise tolerance."""
        bounds = [g.perturbation_bound for g in self.gates]
        return min(bounds) if bounds else math.inf

    @property
    def complete(self) -> bool:
        """True when no gate had to be skipped."""
        return not self.skipped

    def to_dict(self) -> dict:
        bound = self.perturbation_bound
        return {
            "network": self.network,
            "gate_model": self.gate_model,
            "gates": len(self.gates),
            "skipped": list(self.skipped),
            "min_slack": self.min_slack,
            "weakest_gate": self.weakest_gate,
            "meets_tolerances": self.meets_tolerances,
            "perturbation_bound": (
                None if math.isinf(bound) else round(bound, 6)
            ),
            "constant_gates": list(self.constant_gates),
            "stuck_outputs": [
                {"output": name, "value": value}
                for name, value in self.stuck_outputs
            ],
        }


def build_certificate(
    network: ThresholdNetwork,
    gate_model: str = "ltg",
    constant_gates: dict[str, int] | None = None,
    stuck_outputs: dict[str, int] | None = None,
    max_enumeration_fanin: int = 16,
) -> RobustnessCertificate:
    """Recompute every gate's margins and roll them up network-wide."""
    from repro.gates import get_model

    model = get_model(gate_model)
    drift_floor = getattr(model, "required_margin", None)
    certs: list[GateCertificate] = []
    skipped: list[str] = []
    for gate in network.gates():
        if gate.fanin > max_enumeration_fanin:
            skipped.append(gate.name)
            continue
        on_margin, off_margin = gate.margins()
        required_on = gate.delta_on
        required_off = gate.delta_off
        if drift_floor is not None:
            floor = drift_floor(gate.vector.weights)
            required_on = max(required_on, floor)
            required_off = max(required_off, floor)
        certs.append(
            GateCertificate(
                gate=gate.name,
                fanin=gate.fanin,
                on_margin=on_margin,
                off_margin=off_margin,
                required_on=required_on,
                required_off=required_off,
            )
        )
    return RobustnessCertificate(
        network=network.name,
        gate_model=gate_model,
        gates=tuple(certs),
        skipped=tuple(skipped),
        constant_gates=tuple(sorted(constant_gates or ())),
        stuck_outputs=tuple(sorted((stuck_outputs or {}).items())),
    )
