"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition or parameter bound."""


class ParseError(ValueError):
    """Malformed hypergraph text input."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""

