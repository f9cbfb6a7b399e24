"""Exception hierarchy for the SnapTask reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """Invalid geometric input (degenerate segment, empty polygon, ...)."""


class VenueError(ReproError):
    """Inconsistent venue definition (unclosed outer wall, bad material, ...)."""


class CaptureError(ReproError):
    """A photo could not be captured (camera outside venue, bad intrinsics)."""


class ReconstructionError(ReproError):
    """The SfM simulator was asked to do something impossible."""


class MappingError(ReproError):
    """Grid/map construction failure (mismatched extents, empty cloud, ...)."""


class TaskGenerationError(ReproError):
    """Task generation was invoked with inconsistent state."""


class AnnotationError(ReproError):
    """Annotation fusion failed (no annotations, degenerate clusters, ...)."""


class SimulationError(ReproError):
    """Discrete-event simulation kernel misuse (time travel, dead handler)."""


class ProtocolError(ReproError):
    """Client/server message exchange violated the SnapTask protocol."""


class LeaseError(ProtocolError):
    """Task-lease bookkeeping misuse (double lease, reaping a live lease)."""


class ConfigError(ReproError):
    """A configuration value is out of its documented range."""


class ObservabilityError(ReproError):
    """Telemetry misuse (metric type clash, bad span lifecycle, bad export)."""


class PersistenceError(ReproError):
    """Durability subsystem failure (bad WAL frame, recovery misuse)."""


class UnrecoverableStateError(PersistenceError):
    """Every snapshot generation failed verification; recovery fails closed.

    Carries a structured ``report`` dict (quarantined generations with
    damage reasons and byte counts, plus WAL condition) so operators and
    the DST harness can distinguish a correct fail-closed outcome from a
    recovery bug.
    """

    def __init__(self, message: str, report: dict) -> None:
        super().__init__(message)
        self.report = report


class BackendUnavailableError(ProtocolError):
    """The backend is down (crashed, not yet recovered); message is lost."""
