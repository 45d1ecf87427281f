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
    """A method does not apply to this input: a flats route with loops, no
    closed form, or no Schubert data."""


class Infeasible(OmegacalcError):
    """The requested computation exceeds the identity checker's size cap."""


class ConstraintOutOfRange(OmegacalcError):
    """A path constraint sits outside the admissible column range."""


class NonIntegralRank4(OmegacalcError):
    """Internal assertion: the rank-4 closed form must evaluate to an integer."""


class SpecFileError(OmegacalcError):
    """A matroid spec file, point batch file or command-line argument is malformed."""
