"""Exception hierarchy for the TELS reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class BlifError(ReproError):
    """Raised when a BLIF file is malformed or uses unsupported constructs."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class PlaError(ReproError):
    """Raised when a PLA file is malformed or uses unsupported constructs."""


class NetworkError(ReproError):
    """Raised on inconsistent network operations (unknown node, cycle, ...)."""


class CoverError(ReproError):
    """Raised on invalid cube/cover construction or manipulation."""


class IlpError(ReproError):
    """Raised when an ILP model is malformed or a backend misbehaves."""


class UnboundedError(IlpError):
    """Raised when a (relaxed) linear program is unbounded."""


class SynthesisError(ReproError):
    """Raised when threshold synthesis cannot make progress on a node."""


class DeadlineExceeded(ReproError):
    """Raised when a cooperative deadline budget runs out mid-computation.

    The engine treats this as a *per-cone* failure: the cone is degraded to
    the one-to-one fallback (or the whole run fails under strict mode), so
    the exception never escapes ``run_synthesis`` unless strict is set.
    """


class SynthesisCancelled(ReproError):
    """Raised when a run's cooperative cancellation flag is observed set.

    The scheduler checks the flag between cones, so cancellation always
    leaves the executor cleanly closed — no orphaned pool workers — and
    every already-solved vector is still flushed to the persistent cache.
    """


class TransientError(ReproError):
    """A failure worth retrying: cache I/O hiccup, injected chaos fault,
    or a solver backend error that is not a property of the model."""


class InjectedCrash(ReproError):
    """An injected ``worker`` chaos fault in a cone that does not run on its
    process's main thread (an in-process worker thread).  Ending the process
    there would end its host too, so the worker reports the cone as a
    ``"crash"`` failure instead."""


class ChaosError(ReproError):
    """Raised on a malformed ``TELS_CHAOS`` fault-injection spec."""
