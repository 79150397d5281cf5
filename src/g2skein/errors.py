"""Exception types shared across the package."""

from __future__ import annotations


class SkeinError(Exception):
    """Base class for every error raised by this package."""


class SkeinFormatError(SkeinError):
    """A diagram document could not be parsed at all (bad JSON, bad token)."""


class SkeinValidationError(SkeinError):
    """A diagram parsed but violates one or more structural invariants.

    The ``violations`` attribute holds one human-readable string per broken
    rule, in the order the checks ran.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InternalInvariantError(SkeinError):
    """The engine reached a state its own invariants rule out.

    This always indicates a bug (or hand-built input that no real curve
    configuration could produce), never a user error.
    """


class StepLimitExceeded(SkeinError):
    """The walk needed more expansions than its budget (``max_steps``) allows."""
