"""Exception and warning types shared across the engine."""
from __future__ import annotations


class EngineError(Exception):
    """Base class for every error this package raises deliberately."""


class SpecError(EngineError):
    """Problem in a protocol, grammar, or invariant source text."""


class ParseError(SpecError):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TypeCheckError(SpecError):
    """Name resolution or typing error; names the offending expression."""


class InstanceError(EngineError):
    """Malformed or incomplete sort-domain binding."""


class ReachLimitError(EngineError):
    """Reachable-state computation exceeded the configured bound."""

    def __init__(self, message: str, depth: int, count: int):
        super().__init__(message)
        self.depth = depth
        self.count = count


class UnsafeProtocolError(EngineError):
    """A reachable state violates the safety predicate; inference is moot."""


class ConfigError(EngineError):
    """Invalid inference configuration value."""


class DuplicateSeedWarning(UserWarning):
    """A grammar listed a seed predicate twice, or beside its negation; the
    first is kept."""
