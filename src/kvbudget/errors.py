"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, parse/validation
failures exit 2, infeasible budgets exit 3.
"""


class KVBudgetError(Exception):
    """Base class for all library errors."""


class UsageError(KVBudgetError, ValueError):
    """An argument value is refused (a bad size, count or policy name)."""


class LayerIndexError(UsageError, IndexError):
    """A layer index is not an integer in ``[0, L)``; an ``IndexError`` too,
    as indexing past the end of a sequence would raise."""


class ParseError(KVBudgetError):
    """A document (trace, configuration, manifest) is malformed."""


class ValidationError(KVBudgetError):
    """Data violates a structural invariant (causality, row sums, shapes)."""


class DegenerateLayerError(ValidationError):
    """A layer's importance is identically zero, so normalization is undefined."""


class TraceTooLargeError(ValidationError):
    """A trace array would exceed ``trace.MAX_TRACE_ELEMENTS`` values, or a
    JSON trace file ``trace.MAX_JSON_BYTES`` bytes; refused before allocation."""


class MismatchError(ValidationError):
    """Two otherwise valid inputs are incompatible (e.g. config vs. trace length)."""


class BudgetError(KVBudgetError):
    """The requested budget cannot be realized (e.g. fewer tokens than layers)."""
