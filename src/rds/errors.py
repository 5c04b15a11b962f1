"""Exception types shared across the package."""


class RdsError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDenominator(RdsError):
    """A rational was constructed with denominator zero."""


class NotARatio(RdsError):
    """A value that must be a Pythagorean ratio is not one."""


class DomainError(RdsError):
    """An argument lies outside the documented domain of the operation."""


class EmptyInterval(RdsError):
    """An interval query was made with lo >= hi."""


class BadN(RdsError):
    """Point count n is outside the supported range."""


class BadLength(RdsError):
    """A ratio vector has the wrong number of entries for its n."""


class MissingFreeParam(RdsError):
    """Solving for n = 2 requires the free parameter r."""


class DuplicatePoint(RdsError):
    """A point list contains repeated abscissae."""


class ConfigMismatch(RdsError):
    """A search config disagrees with the pool or checkpoint it is used with."""


class CheckpointCorrupt(RdsError):
    """A checkpoint file could not be parsed or fails its consistency checks."""
