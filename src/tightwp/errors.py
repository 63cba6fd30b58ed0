"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: user/domain errors exit
with 2, budget refusals with 3, cache corruption with 4.
"""


class TwpError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(TwpError):
    """Operands disagree on (boundary count, moment count) or value counts."""


class DomainError(TwpError):
    """An argument is outside the mathematically supported range."""


class UnstableKeyError(DomainError):
    """A correlator key violates the stability condition 2g - 2 + n > 0."""


class BudgetError(TwpError):
    """A polynomial build would exceed the configured monomial budget."""

    def __init__(self, g: int, n: int, count: int, budget: int):
        super().__init__(
            f"cell ({g},{n}) needs {count} monomials, "
            f"budget is {budget}"
        )
        self.g = g
        self.n = n
        self.count = count
        self.budget = budget


class CacheError(TwpError):
    """A cache file is corrupt, truncated or from an incompatible version."""


class TailMassError(DomainError):
    """A truncated distribution leaves too much certified tail mass."""


class CancellationWarning(UserWarning):
    """A numeric evaluation lost many leading bits to cancellation."""
