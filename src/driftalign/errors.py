"""Exception taxonomy shared by every driftalign module.

Every error the package raises is a DriftAlignError under exactly one of
three bases, and the base alone is its recovery story. A ConfigError (a bad
setting) and a DataError (unusable input rows or file) abort the run, and the
CLI exits 3 and 2. A NumericalError (one computation on valid input failed)
makes the online pipeline skip the batch it happened in, with the state
unchanged; anywhere else it aborts the run, and the CLI exits 2. None of them
is a ValueError, so an error from numpy or from a bug is never mistaken for
one of these.
"""

from __future__ import annotations


class DriftAlignError(Exception):
    """Base class for all driftalign errors."""


class ConfigError(DriftAlignError):
    """Invalid or inconsistent configuration value."""


class DataError(DriftAlignError):
    """Input data that no setting can make usable."""


class NumericalError(DriftAlignError):
    """A computation on one input failed; the next input may succeed."""


class DimensionViolation(ConfigError):
    """Requested subspace dimension is incompatible with the ambient space."""


class DomainError(ConfigError):
    """Scalar argument outside its valid interval."""


class ParseError(DataError):
    """A CSV record could not be read, or a cell could not be read as a number."""


class SchemaMismatch(DataError):
    """CSV structure contradicts the declared schema or label contract."""


class InsufficientData(DataError):
    """Too few rows (overall or per class) for the requested operation."""


class DimensionMismatch(DataError):
    """Operands live in different spaces (ambient or subspace dims differ)."""


class NonFiniteData(DataError):
    """Input rows contain NaN, infinity, or values too large to compute with.

    "Too large" means an entry of a stored row set beyond
    subspaces.MAX_ABS_ENTRY (1e150) in magnitude, or a row longer than
    sqrt(d) times it among the rows a computation reads: those of
    pca_subspace, apply_transform, predict, and verify's orthonormalize and
    exp_tangent, where a product could overflow.
    """


class RankDeficient(NumericalError):
    """Input matrix has lower numerical rank than the requested subspace."""


class SharedFactorFailure(NumericalError):
    """Paired decomposition could not reproduce its inputs within tolerance."""


class NoConvergence(NumericalError):
    """The karcher_mean oracle of driftalign.verify hit its iteration cap before meeting tolerance."""


class NumericalHealthError(NumericalError):
    """A quantity left its mathematically guaranteed range by more than noise.

    Such as a stored basis, factor, kernel array or SVM weight array with an
    entry that is not finite or lies beyond subspaces.MAX_ABS_ENTRY (1e150),
    a basis that is not orthonormal, or a kernel spectrum outside [0, 1].
    """
