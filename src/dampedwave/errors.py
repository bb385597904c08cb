"""Exception types shared across the package."""


class HypothesisError(ValueError):
    """A coefficient family or data class violates a structural hypothesis
    (damping floor, potential positivity/monotonicity, smallness of V(0),
    exponent ranges, or a vanishing potential in a weighted norm)."""


class GridDomainError(ValueError):
    """The grid does not cover a region an operation requires."""


class ConfigError(ValueError):
    """A run configuration is structurally invalid (bad section/key, CFL
    violation, unbounded data without a truncation radius, ...)."""


class FitError(ValueError):
    """A decay fit was requested on an unusable window."""
