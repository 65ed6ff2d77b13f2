"""The shared result store: canonical-cover keyed caches for the engine.

The store generalizes the old per-run :class:`ThresholdChecker` memo into a
two-tier cache that can be shared across tasks, outputs, whole benchmark
runs, and experiment sweeps:

* **analysis tier** (delta-independent): canonical cover → the positive-unate
  rewrite, its phase substitution, and the minimized complement (the maximal
  false points).  These are the expensive two-level steps of Fig. 6 and do
  not depend on the defect tolerances, so a ψ/δ ablation sweep reuses them
  wholesale — only the ILP is re-solved.  ``None`` records a cover proven
  non-unate (hence non-threshold for *every* tolerance setting).
* **vector tier** (delta-dependent): (canonical cover, δ_on, δ_off, w_max) →
  the solved weight–threshold vector, or ``None`` for ILP-infeasible.

Process-pool workers keep their own store and journal every new entry; the
scheduler merges the journals back into the master store so later tasks,
runs, and sweep points see them.

A third, *persistent* tier (:class:`repro.cache.store.PersistentCache`) can
be layered underneath: a vector-tier miss is retried against the on-disk
cache under the cover's NP-semi-canonical signature, and a hit is mapped
back through the recorded permutation/negation transform — then re-verified
against the cover's ON/OFF sets before being trusted.  Every newly solved
vector (including merged worker journals) is committed back to the
persistent journal; :meth:`ResultStore.flush_persistent` writes it out.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.boolean.cover import Cover
from repro.core.identify import Counters
from repro.core.threshold import GateVector

_MISSING = object()


@dataclass(frozen=True)
class CoverAnalysis:
    """Delta-independent threshold-check preprocessing of one cover.

    Attributes:
        positive: the positive-unate rewrite of the cover (Section IV).
        flipped: per-variable phase-substitution flags.
        off_cubes: minimized complement of ``positive`` — one cube per
            maximal false point (the OFF-set constraint generators).
    """

    positive: Cover
    flipped: tuple[bool, ...]
    off_cubes: Cover


@dataclass
class StoreStats(Counters):
    """Hit/miss counters, per tier.

    A lookup counts into the record its caller passes (an engine cone's
    own) or, by default, into :attr:`ResultStore.stats`.

    Vector-tier semantics: ``vector_hits`` counts every *served* lookup
    (whichever tier answered); the ``persistent_*`` counters break out the
    subset that reached the on-disk tier, and ``transformed_hits`` /
    ``transform_rejects`` the persistent hits that needed a nontrivial
    NP transform (rejects failed re-verification and fell through to a
    miss).
    """

    vector_hits: int = 0
    vector_misses: int = 0
    analysis_hits: int = 0
    analysis_misses: int = 0
    persistent_hits: int = 0
    persistent_misses: int = 0
    transformed_hits: int = 0
    transform_rejects: int = 0

    @property
    def vector_lookups(self) -> int:
        return self.vector_hits + self.vector_misses

    @property
    def vector_hit_rate(self) -> float:
        lookups = self.vector_lookups
        return self.vector_hits / lookups if lookups else 0.0

    @property
    def analysis_lookups(self) -> int:
        return self.analysis_hits + self.analysis_misses

    @property
    def analysis_hit_rate(self) -> float:
        lookups = self.analysis_lookups
        return self.analysis_hits / lookups if lookups else 0.0

    @property
    def persistent_lookups(self) -> int:
        return self.persistent_hits + self.persistent_misses

    @property
    def persistent_hit_rate(self) -> float:
        lookups = self.persistent_lookups
        return self.persistent_hits / lookups if lookups else 0.0

    @property
    def hits(self) -> int:
        return self.vector_hits + self.analysis_hits


@dataclass
class StoreDelta:
    """New entries journaled since :meth:`ResultStore.begin_journal`."""

    vectors: dict[tuple, GateVector | None] = field(default_factory=dict)
    analyses: dict[tuple, CoverAnalysis | None] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.vectors) + len(self.analyses)


class ResultStore:
    """Canonical-cover keyed cache shared across synthesis tasks and sweeps.

    ``persistent`` optionally layers a
    :class:`repro.cache.store.PersistentCache` under the vector tier: misses
    are retried on disk under the cover's NP-canonical signature, and every
    new solve (local or merged from a worker journal) is committed back.
    """

    def __init__(self, persistent=None) -> None:
        self._vectors: dict[tuple, GateVector | None] = {}
        self._analyses: dict[tuple, CoverAnalysis | None] = {}
        self.stats = StoreStats()
        self._journal: StoreDelta | None = None
        self.persistent = persistent
        self._canonical_memo: dict[tuple, tuple] = {}
        # Serializes multi-step mutations (persistent lookups/installs,
        # journal merges, snapshots) when the daemon's job threads share
        # one store.  Plain dict reads stay lock-free: they are GIL-atomic
        # and the entries are immutable once installed.
        self._lock = threading.RLock()

    @classmethod
    def with_cache_dir(cls, cache_dir) -> "ResultStore":
        """A store layered over the persistent cache at ``cache_dir``."""
        from repro.cache.store import open_cache

        return cls(persistent=open_cache(cache_dir))

    # -- vector tier ---------------------------------------------------
    def get_vector(self, key: tuple, stats: StoreStats | None = None):
        """Cached vector for a (cover, deltas) key, or the miss sentinel.

        The lookup is counted in ``stats`` (default: :attr:`stats`).
        """
        stats = self.stats if stats is None else stats
        found = self._vectors.get(key, _MISSING)
        if found is not _MISSING:
            stats.vector_hits += 1
            return found
        if self.persistent is not None:
            with self._lock:
                found = self._persistent_lookup(key, stats)
                if found is not _MISSING:
                    stats.vector_hits += 1
                    self._vectors[key] = found
                    if self._journal is not None:
                        self._journal.vectors[key] = found
                    return found
        stats.vector_misses += 1
        return _MISSING

    def put_vector(self, key: tuple, vector: GateVector | None) -> None:
        with self._lock:
            self._vectors[key] = vector
            if self._journal is not None:
                self._journal.vectors[key] = vector
            if self.persistent is not None:
                self._persistent_put(key, vector)

    # -- persistent tier -----------------------------------------------
    @staticmethod
    def _split_key(key: tuple):
        """(cover_key, delta_on, delta_off, max_weight, fingerprint) or None.

        The persistent tier understands the checker's key shapes: the
        historical 4-tuple of the default ``ltg`` model (fingerprint None)
        and the 5-tuple of every other gate model, whose trailing element
        is the model fingerprint.  Other shapes (tests, ad-hoc callers)
        silently stay memory-only.
        """
        if not (isinstance(key, tuple) and len(key) in (4, 5)):
            return None
        cover_key = key[0]
        if not (
            isinstance(cover_key, tuple)
            and len(cover_key) == 2
            and isinstance(cover_key[0], int)
            and isinstance(cover_key[1], tuple)
        ):
            return None
        fingerprint = key[4] if len(key) == 5 else None
        if fingerprint is not None and not isinstance(fingerprint, str):
            return None
        return cover_key, key[1], key[2], key[3], fingerprint

    def _canonicalize(self, cover_key: tuple):
        """Memoized NP-canonicalization of a cover key (None if too wide)."""
        from repro.cache.canonical import MAX_CANONICAL_VARS, np_canonicalize

        if cover_key[0] > MAX_CANONICAL_VARS:
            return None
        cached = self._canonical_memo.get(cover_key)
        if cached is None:
            cached = np_canonicalize(cover_key)
            self._canonical_memo[cover_key] = cached
        return cached

    @staticmethod
    def _model_for(fingerprint: str | None):
        """The GateModel owning a keyed entry (None = unresolvable)."""
        if fingerprint is None:
            from repro.gates import get_model

            return get_model("ltg")
        from repro.gates import model_for_fingerprint

        return model_for_fingerprint(fingerprint)

    def _persistent_lookup(self, key: tuple, stats: StoreStats):
        from repro.cache.store import ABSENT, entry_key, signature_string

        parts = self._split_key(key)
        if parts is None:
            return _MISSING
        cover_key, delta_on, delta_off, max_weight, fingerprint = parts
        canonical = self._canonicalize(cover_key)
        if canonical is None:
            return _MISSING
        skey = entry_key(
            signature_string(canonical.key),
            delta_on,
            delta_off,
            max_weight,
            model=fingerprint,
        )
        values = self.persistent.get(skey)
        if values is ABSENT:
            stats.persistent_misses += 1
            return _MISSING
        if values is None:
            # A cached non-realizable verdict: NP-invariant, nothing to map.
            stats.persistent_hits += 1
            return None
        model = self._model_for(fingerprint)
        if model is None:
            stats.persistent_misses += 1
            return _MISSING
        vector = model.decode_canonical(values, canonical.transform)
        # Never trust a transformed (or on-disk) gate unverified: check it
        # against this cover's ON/OFF sets under the model's margin rules.
        if vector is None or not model.verify_vector(
            cover_key, vector, delta_on, delta_off
        ):
            stats.transform_rejects += 1
            stats.persistent_misses += 1
            return _MISSING
        stats.persistent_hits += 1
        if not canonical.transform.is_identity:
            stats.transformed_hits += 1
        return vector

    def _persistent_put(self, key: tuple, vector) -> None:
        from repro.cache.store import entry_key, signature_string

        if getattr(self.persistent, "read_only", False):
            return  # worker-side snapshot: deltas travel via the journal
        parts = self._split_key(key)
        if parts is None:
            return
        cover_key, delta_on, delta_off, max_weight, fingerprint = parts
        canonical = self._canonicalize(cover_key)
        if canonical is None:
            return
        model = self._model_for(fingerprint)
        if model is None:
            return
        if vector is None:
            values = None
        else:
            values = model.encode_canonical(vector, canonical.transform)
            if values is None:
                return  # not representable on disk; stays memory-only
        skey = entry_key(
            signature_string(canonical.key),
            delta_on,
            delta_off,
            max_weight,
            model=fingerprint,
        )
        self.persistent.put(skey, values)

    def flush_persistent(self) -> int:
        """Write journaled persistent entries to disk; returns lines written."""
        if self.persistent is None:
            return 0
        return self.persistent.flush()

    # -- analysis tier -------------------------------------------------
    def get_analysis(self, key: tuple, stats: StoreStats | None = None):
        stats = self.stats if stats is None else stats
        found = self._analyses.get(key, _MISSING)
        if found is _MISSING:
            stats.analysis_misses += 1
        else:
            stats.analysis_hits += 1
        return found

    def put_analysis(self, key: tuple, analysis: CoverAnalysis | None) -> None:
        with self._lock:
            self._analyses[key] = analysis
            if self._journal is not None:
                self._journal.analyses[key] = analysis

    @staticmethod
    def is_miss(value) -> bool:
        return value is _MISSING

    # -- sharing -------------------------------------------------------
    def begin_journal(self) -> None:
        """Start recording new entries (process-pool workers)."""
        self._journal = StoreDelta()

    def take_journal(self) -> StoreDelta | None:
        """The entries recorded since the last take (None: not journaling)."""
        if self._journal is None:
            return None
        delta, self._journal = self._journal, StoreDelta()
        return delta

    def fold_stats(self, stats: StoreStats) -> None:
        """Add one finished cone's lookups to :attr:`stats`.

        Locked: the daemon's job threads fold into one shared store, and
        an unlocked read-modify-write would lose counts.
        """
        with self._lock:
            self.stats.add(stats)

    def merge(self, delta: StoreDelta) -> int:
        """Fold a worker's journal into this store; returns entries added.

        Newly merged vectors are also committed to the persistent journal —
        this is how process-pool solves reach the on-disk cache, since
        workers hold read-only cache snapshots.
        """
        added = 0
        with self._lock:
            for key, vector in delta.vectors.items():
                if key not in self._vectors:
                    self._vectors[key] = vector
                    added += 1
                    if self.persistent is not None:
                        self._persistent_put(key, vector)
            for key, analysis in delta.analyses.items():
                if key not in self._analyses:
                    self._analyses[key] = analysis
                    added += 1
        return added

    def export(self) -> StoreDelta:
        """A full snapshot, for seeding worker processes."""
        with self._lock:
            return StoreDelta(dict(self._vectors), dict(self._analyses))

    # -- introspection -------------------------------------------------
    @property
    def num_vectors(self) -> int:
        return len(self._vectors)

    @property
    def num_analyses(self) -> int:
        return len(self._analyses)

    def __len__(self) -> int:
        return len(self._vectors) + len(self._analyses)

    def __repr__(self) -> str:
        persistent = (
            f", persistent={len(self.persistent)}" if self.persistent else ""
        )
        return (
            f"ResultStore(vectors={len(self._vectors)}, "
            f"analyses={len(self._analyses)}, "
            f"hits={self.stats.hits}{persistent})"
        )
