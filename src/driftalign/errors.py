"""Exception taxonomy shared by every driftalign module.

Each class marks one failure mode with a distinct recovery story, so callers
can catch exactly what they can handle (the online pipeline, for instance,
skips rank-deficient batches but lets everything else propagate).
"""

from __future__ import annotations


class DriftAlignError(Exception):
    """Base class for all driftalign errors."""


class RankDeficient(DriftAlignError):
    """Input matrix has lower numerical rank than the requested subspace."""


class DimensionViolation(DriftAlignError):
    """Requested subspace dimension is incompatible with the ambient space."""


class DimensionMismatch(DriftAlignError):
    """Operands live in different spaces (ambient or subspace dims differ)."""


class DomainError(DriftAlignError):
    """Scalar argument outside its valid interval."""


class NumericalHealthError(DriftAlignError):
    """A quantity left its mathematically guaranteed range by more than noise."""


class SharedFactorFailure(DriftAlignError):
    """Paired decomposition could not reproduce its inputs within tolerance."""


class NoConvergence(DriftAlignError):
    """Iterative solver hit its iteration cap before meeting tolerance."""


class InsufficientData(DriftAlignError):
    """Too few rows (overall or per class) for the requested operation."""


class ParseError(DriftAlignError):
    """A CSV cell could not be read as a number."""


class SchemaMismatch(DriftAlignError):
    """CSV structure contradicts the declared schema or label contract."""


class NonFiniteData(DriftAlignError, ValueError):
    """Input rows contain NaN, infinity, or values too large to compute with.

    "Too large" means an entry beyond classifiers.MAX_ABS_ENTRY (1e150) in
    magnitude, or a query row longer than sqrt(d) times it, where squared
    distances could overflow; the CLI reports all of these as a data error
    with exit code 2.

    Also a ValueError, so callers that caught the bare ValueError it replaced
    keep working.
    """


class ConfigError(DriftAlignError):
    """Invalid or inconsistent configuration value."""
