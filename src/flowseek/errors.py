"""Exception types shared across the package."""


class FlowseekError(Exception):
    """Base class for all package errors."""


class StructuralError(FlowseekError):
    """Environment graph or shape inconsistency (e.g. a non-initial state with no
    parents, or instances in one run whose env ids or feature dims differ)."""


class InvalidRewardError(FlowseekError):
    """A trajectory reached a loss with a non-positive reward."""


class BatchTooSmallError(FlowseekError):
    """The variance loss needs at least two trajectories."""


class DeadEndError(FlowseekError):
    """A non-terminal state produced an empty valid-action set."""


class InvalidActionError(FlowseekError):
    """An action was applied at a state where it is not valid."""


class TerminalQueryError(FlowseekError):
    """valid_actions was queried at a terminal state."""


class ScorerContractError(FlowseekError):
    """An action scorer returned a probability outside (0, 1)."""


class NotASolutionError(FlowseekError):
    """solution_key was requested for an unsuccessful trajectory."""


class GenerationError(FlowseekError):
    """Instance generation could not satisfy its constraints."""


class EnumerationCapError(FlowseekError):
    """DAG enumeration exceeded the configured trajectory cap."""

    def __init__(self, msg: str, partial_count: int = 0):
        super().__init__(msg)
        self.partial_count = partial_count


class EmptyBufferError(FlowseekError):
    """A sample was requested from an empty replay buffer."""


class CheckpointError(FlowseekError):
    """Checkpoint file is malformed or incompatible with the requested environment."""


class AlignmentError(FlowseekError):
    """Evaluation runs do not cover identical problem sets."""


class ConfigError(FlowseekError):
    """Configuration file or parameter violates the schema."""


class NumericError(FlowseekError):
    """A loss or gradient became non-finite."""
