"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: format errors -> 2,
premise errors -> 3, size-cap errors -> 4.
"""


class TruthTableFormatError(ValueError):
    """Raised when a truth-table file does not follow the on-disk format."""


class PremiseError(ValueError):
    """Raised when a construction's mathematical precondition fails.

    Examples: a non-bent input where bentness is required, a map that is
    not a permutation, a violated trace condition, division-convention
    misuse, or a failed bent-triple premise.
    """


class CapError(ValueError):
    """Raised when an oracle is asked to run above its size cap."""
