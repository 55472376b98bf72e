"""Exception taxonomy shared across the package.

Infrastructure failures (sandbox provisioning, a dead or garbled backend or
teacher exchange) cost only the record they were for, counted as lost; model
failures (malformed completions, zero-reward patches) are ordinary data.
"""


class RlvrLoopError(Exception):
    """Base class for every error raised by this package."""


class TaskFormatError(RlvrLoopError):
    """A task record failed to parse or violated a dataset invariant."""


class BackendError(RlvrLoopError):
    """A policy or teacher backend failed to produce a completion."""


class GuidanceError(RlvrLoopError):
    """Teacher output could not be parsed into the three hint sections."""


class GuidanceLeakError(RlvrLoopError):
    """Guidance was injected where only evaluation rollouts are allowed."""


class SandboxProvisionError(RlvrLoopError):
    """Workspace copy or environment setup failed before tests could run."""


class AssemblyError(RlvrLoopError):
    """Preference-pair construction violated a soundness precondition."""


class TrainingError(RlvrLoopError):
    """Optimization was handed inputs it cannot score."""


class TrainingDivergedError(TrainingError):
    """Loss blew past the divergence guard; learning rate is too hot."""


class CheckpointError(RlvrLoopError):
    """A policy or reward-model checkpoint, or the run state, failed to load."""


class UsageError(RlvrLoopError):
    """Bad command-line arguments or config file contents."""


class PhaseError(RlvrLoopError):
    """A pipeline phase failed; run state was checkpointed for resume."""

    def __init__(self, phase: str, message: str):
        super().__init__(f"phase '{phase}' failed: {message}")
        self.phase = phase
