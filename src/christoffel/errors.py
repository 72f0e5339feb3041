"""Exception hierarchy shared by all modules.

Every library error derives from :class:`ChristoffelError`, which itself
derives from ``ValueError`` so that generic callers can catch it without
importing this module.
"""


class ChristoffelError(ValueError):
    """Base class for all domain errors raised by this package."""


class KindMismatchError(ChristoffelError):
    """Mixed rational/residue scalars, or residues with different moduli."""


class DimensionMismatchError(ChristoffelError):
    """Matrix dimensions incompatible with the requested operation."""


class InvalidSlopeError(ChristoffelError):
    """Slope numerator/denominator not coprime, or slope 0/0."""


class NotPrimitiveError(ChristoffelError):
    """Word is a proper power (or empty) where a primitive word is required."""


class LengthOutOfRangeError(ChristoffelError):
    """Requested word or factor length outside its domain, such as a
    factor length outside [0, |w|] or a word length below 1."""


class NotChristoffelError(ChristoffelError):
    """Word is not a Christoffel word of the required kind."""


class NoPalindromicSplitError(ChristoffelError):
    """Word admits no proper split into two palindromes."""


class AmbiguousSplitError(ChristoffelError):
    """Word admits more than one proper split into two palindromes."""


class NonInvertibleRowSumError(ChristoffelError):
    """Row sum is zero, so the matrix lies outside the group."""


class CharacteristicTooSmallError(ChristoffelError):
    """Prime-field characteristic does not exceed the matrix order."""


class OrderMismatchError(ChristoffelError):
    """Group operation between matrices of different orders."""


class IndexOutOfRangeError(ChristoffelError):
    """Row or column index outside the valid range."""


class NotBijectiveError(ChristoffelError):
    """Image sequence does not describe a permutation."""


class NotCoprimeError(ChristoffelError):
    """Arguments required to be coprime are not."""


class EvenModulusError(ChristoffelError):
    """Jacobi symbol requested for an even modulus."""


class EmptyCompositionError(ChristoffelError):
    """Composition with no parts or with sum zero."""


class NotCircularError(ChristoffelError):
    """Interval exchange is not a single cycle."""


class NotExchangeError(ChristoffelError):
    """Permutation is not the interval exchange of its composition."""


class AlphabetSizeMismatchError(ChristoffelError):
    """Alphabet size differs from the number of composition parts."""


class RestrictionOutOfRangeError(ChristoffelError):
    """Cyclic restriction size outside the admissible range."""


class MergeMismatchError(ChristoffelError):
    """A restriction-chain merge position does not hold the factor "ac"."""


class SizeLimitError(ChristoffelError):
    """Request beyond the supported size limits."""


class InsufficientCFError(ChristoffelError):
    """Continued-fraction prefix too short for the requested computation."""


class InvalidCFError(ChristoffelError):
    """Continued fraction with invalid partial quotients."""


class OutOfRangeError(ChristoffelError):
    """Numeric argument outside the documented range."""


class IndexTooSmallError(OutOfRangeError):
    """Index below the smallest value the formula is stated for."""


class NotPerfectlyClusteringError(ChristoffelError):
    """Vector/word is not perfectly clustering where one is required."""
