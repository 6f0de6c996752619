"""Unified exception hierarchy for the reproduction.

Every failure the simulated machine can produce — a protocol bug on the
MPI wire, a staged file that will not read, a checkpoint that will not
load, or a fault *deliberately* injected by :mod:`repro.resilience` —
derives from :class:`ReproError`, so callers can write one ``except``
clause per subsystem (or one for everything) instead of guessing which
bare built-in a layer raises.

Backward compatibility: the concrete classes multiply-inherit from the
built-in exception each site used to raise (``ValueError``,
``LookupError``, ``OSError``), so pre-existing ``except ValueError:``
style clauses keep catching exactly what they caught before the
migration.

Hierarchy::

    ReproError
    ├── CommError                    (the simulated MPI wire)
    │   ├── RankError                (also ValueError)
    │   ├── DeadlockError            (also LookupError)
    │   └── CollectiveMismatch       (divergent collective schedule)
    ├── StagingError                 (data staging / read path)
    │   ├── StagingConfigError       (also ValueError)
    │   └── StagingReadError         (also OSError; carries .path)
    ├── CheckpointError              (serialization / restore)
    │   ├── CheckpointFormatError    (also ValueError)
    │   ├── CheckpointConfigMismatch (also ValueError)
    │   └── CheckpointNonFinite      (carries .step/.array)
    ├── CampaignError                (campaign orchestration)
    │   ├── InvalidTransition        (also ValueError)
    │   └── CampaignStoreError       (also ValueError)
    └── FaultInjected                (deliberate, from a FaultPlan)
        ├── RankFailure              (carries .rank)
        ├── ReadFault                (also OSError; carries .path)
        └── MessageDropped           (carries .src/.dst/.tag)
"""
from __future__ import annotations

__all__ = [
    "ReproError",
    "CommError",
    "RankError",
    "DeadlockError",
    "CollectiveMismatch",
    "StagingError",
    "StagingConfigError",
    "StagingReadError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointConfigMismatch",
    "CheckpointNonFinite",
    "CampaignError",
    "InvalidTransition",
    "CampaignStoreError",
    "FaultInjected",
    "RankFailure",
    "ReadFault",
    "MessageDropped",
]


class ReproError(Exception):
    """Base class for every error raised by repro subsystems."""


# -- comm ------------------------------------------------------------------

class CommError(ReproError):
    """A failure on the simulated MPI wire."""


class RankError(CommError, ValueError):
    """A rank outside ``[0, world.size)`` or already failed."""


class DeadlockError(CommError, LookupError):
    """``recv`` with no matching message pending — a protocol bug."""


class CollectiveMismatch(CommError):
    """Ranks disagree on the collective they are entering.

    Raised by :meth:`repro.comm.simmpi.World.announce_collective` when a
    rank announces a collective whose op/tag/shape/dtype differs from what
    its peers announced this round, or announces twice before the round
    completes.
    """


# -- staging / io ----------------------------------------------------------

class StagingError(ReproError):
    """A failure in the data-staging or read path."""


class StagingConfigError(StagingError, ValueError):
    """Invalid staging parameters (unknown strategy, empty source, ...)."""


class StagingReadError(StagingError, OSError):
    """A staged file failed to read; ``path`` names the offender."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = path


# -- checkpoint ------------------------------------------------------------

class CheckpointError(ReproError):
    """A failure saving or restoring training state."""


class CheckpointFormatError(CheckpointError, ValueError):
    """Unsupported or corrupt checkpoint contents."""


class CheckpointConfigMismatch(CheckpointError, ValueError):
    """Checkpoint was written under a different training configuration."""


class CheckpointNonFinite(CheckpointError):
    """A save refused state holding NaN or inf; ``array`` names the first."""

    def __init__(self, step: int, array: str):
        super().__init__(f"refusing to checkpoint step {step}: "
                         f"{array} holds a non-finite value")
        self.step = step
        self.array = array


# -- campaign orchestration ------------------------------------------------

class CampaignError(ReproError):
    """A failure in the campaign orchestration service."""


class InvalidTransition(CampaignError, ValueError):
    """A job-state edge the lifecycle machine forbids.

    Raised both for live transitions and while replaying a persisted
    JSONL log — a corrupted log cannot materialize an illegal state.
    """


class CampaignStoreError(CampaignError, ValueError):
    """A malformed or inconsistent campaign job-store log."""


# -- injected faults -------------------------------------------------------

class FaultInjected(ReproError):
    """Base for failures deliberately injected by a FaultPlan."""


class RankFailure(FaultInjected):
    """An injected node/rank death; ``rank`` identifies the casualty."""

    def __init__(self, rank: int):
        super().__init__(f"injected failure of rank {rank}")
        self.rank = int(rank)


class ReadFault(FaultInjected, OSError):
    """An injected read failure (corrupt or unreadable staged file)."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = path


class MessageDropped(FaultInjected):
    """An injected message loss observed at the receiver."""

    def __init__(self, src: int, dst: int, tag: int):
        super().__init__(
            f"message from rank {src} to rank {dst} tag {tag} was dropped")
        self.src = int(src)
        self.dst = int(dst)
        self.tag = int(tag)
