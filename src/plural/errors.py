"""Exception types shared across the package.

Precondition violations (bad arguments the caller controls) raise ValueError;
the classes here represent domain-state failures a caller may want to handle.
"""


class PluralError(Exception):
    """Base class for domain errors."""


class NotFound(PluralError):
    """An id does not exist in the fabric."""


class AlreadyMember(PluralError):
    """Membership edge already exists."""


class InsufficientStanding(PluralError):
    """A standing spend would push the raw weight below the floor."""


class DegenerateInput(PluralError):
    """Clustering input has too few distinct rows to support the request."""


class TooSmall(PluralError):
    """Community too small (or too sparsely observed) for subcommunity detection."""


class InsufficientData(PluralError):
    """Not enough raters/items for the factorization fit."""


class InsufficientFunds(PluralError):
    """Account balance cannot cover the requested amount."""


class Unregistered(PluralError):
    """Community has no registered administrator."""


class EmptyCommunity(PluralError):
    """Aggregation over an empty member set."""


class ConfigError(PluralError, ValueError):
    """Scenario document or parameter failed validation.

    `path` locates the offending field, e.g. "communities[0].lambda". It is
    also a ValueError, as a bad parameter built in Python is a precondition
    violation.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
