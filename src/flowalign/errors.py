"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FlowAlignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FlowAlignError):
    """An argument violates a documented precondition."""


class InvalidSpecError(InvalidInputError):
    """A configuration object (noise spec, generator spec, ...) is unusable."""


class InvalidLimitsError(InvalidInputError):
    """Exploration limits reject the instance before any search starts."""


class ModelParseError(FlowAlignError):
    """A model or log file could not be read (malformed input)."""


class SemanticError(ModelParseError):
    """Well-formed input with inconsistent content (dangling ids, no marking)."""


class UnreachableFinalError(FlowAlignError):
    """A constructed reachability graph cannot price the alignment.

    ``reason`` distinguishes a graph cut short by resource limits
    (``"truncated"``, whether or not it reached the final marking), one
    without the final marking that lost branches to the per-place token cap
    (``"token_cap"``), and one where the final marking is genuinely
    unreachable (``"unreachable"``).
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class InternalInvariantError(FlowAlignError):
    """A contract the implementation guarantees was observed broken."""
