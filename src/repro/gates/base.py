"""The :class:`GateModel` interface.

A gate model is everything the synthesis flow must know about a target gate
technology, factored out of the single-threshold assumptions that used to be
baked into :mod:`repro.core.threshold`, :mod:`repro.core.identify`, and the
ILP chain:

* **representation** — which :data:`~repro.core.threshold.GateVector`
  flavours the model emits (the LTG's ``<w; T>``, the multi-threshold
  ``<w; T1..Tk>``, ...);
* **feasibility** — :meth:`GateModel.check_cover` decides whether one cover
  is realizable as a single gate and returns the solved vector.  Models
  drive the shared LTG machinery (Chow fast path + Fig. 6 ILP) through
  :meth:`~repro.core.identify.ThresholdChecker.solve_ltg` and layer their
  own search or tolerance algebra on top;
* **NP-transform algebra** — :meth:`encode_canonical` /
  :meth:`decode_canonical` map vectors to and from NP-canonical space, and
  :meth:`verify_vector` re-checks a transformed vector against a cover
  under Eq. (1), which is what lets a model's solves live in the
  persistent NP-canonical cache;
* **fingerprint** — a stable string versioning the model *and* its
  parameters, appended to both the in-memory store key and the persistent
  entry key, so two models never share cache entries.  The paper's ``ltg``
  model has none, which keeps its historical un-suffixed key shapes.

The models themselves are the fixed table :data:`repro.gates.MODELS`.
"""

from __future__ import annotations

import abc

from repro.core.threshold import (
    GateVector,
    WeightThresholdVector,
    make_or_vector,
)


class GateModel(abc.ABC):
    """One gate technology: representation, feasibility, algebra.

    Subclasses define the class attributes ``name`` (the
    :data:`~repro.gates.MODELS` key and ``--gate-model`` argument) and
    ``fingerprint`` (the cache-key version string; bump it whenever the
    model's solutions change shape or semantics).  ``supports_binate``
    tells the cone synthesizer whether binate covers are worth checking
    before splitting (the LTG's answer is no: a binate function is never a
    single threshold gate).
    """

    #: Model name, e.g. ``"ltg"``; also the CLI ``--gate-model`` value.
    name: str = ""
    #: Version string appended to every cache key (see module doc); None
    #: keeps the key un-suffixed.
    fingerprint: str | None = None
    #: Whether :meth:`check_cover` can realize binate covers.
    supports_binate: bool = False

    # -- cache keys ----------------------------------------------------
    def store_key(
        self,
        canonical: tuple,
        delta_on: int,
        delta_off: int,
        max_weight: int | None,
    ) -> tuple:
        """The vector-tier memo key for one (cover, tolerance) instance.

        The model's fingerprint, when it has one, is the fifth element, so
        no two models can ever exchange cache entries.
        """
        key = (canonical, delta_on, delta_off, max_weight)
        return key if self.fingerprint is None else (*key, self.fingerprint)

    # -- feasibility ---------------------------------------------------
    @abc.abstractmethod
    def check_cover(self, checker, cover, canonical) -> GateVector | None:
        """Solve one cover as a single gate of this model, or None.

        ``checker`` is the calling
        :class:`~repro.core.identify.ThresholdChecker` — it carries the
        tolerances, the solver configuration, the stats counters, and
        :meth:`~repro.core.identify.ThresholdChecker.solve_ltg`, the shared
        single-threshold pipeline.  ``canonical`` is the cover's canonical
        key (already computed by the checker).
        """

    # -- fixed-structure vectors (cone emission helpers) ---------------
    def or_vector(self, k: int, delta_on: int, delta_off: int) -> GateVector:
        """The k-input OR vector this model emits for split roots."""
        return make_or_vector(k, delta_on, delta_off)

    def buffer_vector(self, delta_on: int, delta_off: int) -> GateVector:
        """A 1-input buffer vector (collapsed OR roots)."""
        return self.or_vector(1, delta_on, delta_off)

    def admits_vector(self, vector: GateVector) -> bool:
        """Whether a directly-constructed vector satisfies model limits.

        The cone synthesizer asks before installing Theorem-2 extended
        vectors; a refusal falls back to the plain OR root.
        """
        return True

    # -- NP-transform algebra (persistent cache) -----------------------
    def encode_canonical(self, vector: GateVector, transform) -> list[int] | None:
        """Map a solved vector into NP-canonical space for persistence.

        Returns None when the vector cannot be represented (the entry then
        stays memory-only).  The default handles the single-threshold
        layout ``[w_1..w_n, T]``.
        """
        from repro.cache.canonical import vector_to_canonical

        if not isinstance(vector, WeightThresholdVector):
            return None
        return vector_to_canonical(vector, transform)

    def decode_canonical(self, values: list[int], transform) -> GateVector | None:
        """Invert :meth:`encode_canonical` for one persisted entry."""
        from repro.cache.canonical import vector_from_canonical

        if len(values) != len(transform.perm) + 1:
            return None
        return vector_from_canonical(values, transform)

    def verify_vector(
        self,
        cover_key: tuple,
        vector: GateVector,
        delta_on: int,
        delta_off: int,
    ) -> bool:
        """Exhaustively re-check a (possibly transformed) vector.

        Eq. (1) on the cover (:func:`~repro.cache.canonical.verify_vector_key`);
        a model with device limits adds them.  Persisted entries are never
        trusted without this.
        """
        from repro.cache.canonical import verify_vector_key

        return verify_vector_key(cover_key, vector, delta_on, delta_off)
