"""Exception types shared across the package."""


class OmegacalcError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGroundSet(OmegacalcError):
    """A construction would produce a matroid on zero elements."""


class NotAMatroid(OmegacalcError):
    """A basis list is not the basis family of any matroid."""


class InvalidRank(OmegacalcError):
    """Requested rank is outside [0, n]."""


class InvalidProfile(OmegacalcError):
    """A chain/profile pair violates the defining inequalities."""


class LoopsPresent(OmegacalcError):
    """simplify() was called on a matroid with loops."""


class VariantInapplicable(OmegacalcError):
    """A flats-based summation variant was requested for a matroid with loops."""


class Infeasible(OmegacalcError):
    """The requested computation exceeds the enumeration caps."""


class ConstraintOutOfRange(OmegacalcError):
    """A path constraint sits outside the admissible column range."""


class NonIntegralRank4(OmegacalcError):
    """Internal assertion: the rank-4 closed form must evaluate to an integer."""


class SpecFileError(OmegacalcError):
    """A matroid spec file or point batch file is malformed."""
