"""The package's two exception types.

They live in this module, which imports nothing, so that the command
line can map them to its exit codes without loading the algebra.
``dancewalk.intlinalg`` and ``dancewalk.group`` re-export them under the
names they were defined with there.
"""


class InvariantViolationError(RuntimeError):
    """An internal postcondition failed; indicates a bug, not bad input."""


class UnsupportedOperationError(ValueError):
    """The operation needs a finiteness property the input lacks, or the
    input is past a size budget."""
