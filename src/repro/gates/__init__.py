"""Gate models: the technology layer under the TELS flow.

:data:`MODELS` is the fixed table of the three models: the paper's ``ltg``,
``multi-threshold`` (arXiv:1301.0048) and ``flash`` (arXiv:1910.04910).
See ``docs/GATE_MODELS.md`` for the interface contract.
"""

from repro.errors import ReproError
from repro.gates.base import GateModel
from repro.gates.flash import FlashModel
from repro.gates.ltg import LtgModel
from repro.gates.multi_threshold import MultiThresholdModel

#: Every gate model by name, one shared instance each.
MODELS: dict[str, GateModel] = {
    model.name: model
    for model in (LtgModel(), MultiThresholdModel(), FlashModel())
}


def model_names() -> tuple[str, ...]:
    """The model names, sorted (CLI choices, docs)."""
    return tuple(sorted(MODELS))


def get_model(name: str) -> GateModel:
    """The shared instance of one model."""
    try:
        return MODELS[name]
    except KeyError:
        known = ", ".join(model_names())
        raise ReproError(
            f"unknown gate model {name!r} (known: {known})"
        ) from None


def model_for_fingerprint(fingerprint: str | None) -> GateModel | None:
    """The model whose fingerprint is exactly ``fingerprint``, or None.

    ``None`` is ``ltg``'s fingerprint: its keys carry no suffix.
    """
    for model in MODELS.values():
        if model.fingerprint == fingerprint:
            return model
    return None


__all__ = [
    "MODELS",
    "GateModel",
    "LtgModel",
    "MultiThresholdModel",
    "FlashModel",
    "get_model",
    "model_for_fingerprint",
    "model_names",
]
