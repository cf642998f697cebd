"""Exception types shared across the package."""


class MarketError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(MarketError):
    """Array arguments do not conform (wrong shape or incompatible sizes)."""


class DomainError(MarketError):
    """A value lies outside the mathematical domain of an operation."""


class DegenerateMarketError(MarketError):
    """The bids at a slot sum to zero or overflow, so the clearing price is
    undefined.

    Carries optional slot / iteration context so a solver abort can be
    traced back to where the market collapsed.
    """

    def __init__(self, message: str, slot: int | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.slot = slot
        self.iteration = iteration


class NoEquilibriumError(MarketError):
    """The oracle could not bracket a supplier equilibrium price."""


class TwoSupplierMarketError(MarketError):
    """Supplier equilibria are degenerate with exactly two suppliers.

    The symmetric stationary point sits on the boundary supply = load/2,
    so the oracle refuses to fabricate an equilibrium and raises this
    diagnostic instead.
    """


class ScenarioFormatError(MarketError):
    """A scenario or result file failed to parse or validate."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SchemaVersionError(ScenarioFormatError):
    """The file's schema_version is not supported by this build."""
