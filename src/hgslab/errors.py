"""Exception types shared across the package."""


class HgsError(Exception):
    """Base class for all package errors."""


class InvalidSpec(HgsError):
    """A group specification is malformed or violates a parameter constraint."""


class UnsupportedOrder(HgsError):
    """The requested computation needs a complete catalog for an order we lack."""


class UnknownType(HgsError):
    """A group's isomorphism type is outside the catalog."""


class NotRegular(HgsError):
    """A permutation set fails the regularity requirements.

    Carries a short witness description in args.
    """


class NotStable(HgsError):
    """A permutation subgroup is not normalized by the left translations."""


class ClosureCapExceeded(HgsError):
    """A generated closure exceeded its element cap."""


class BraceAxiomError(HgsError):
    """A pair of tables fails the skew brace axioms."""


class BraidError(HgsError):
    """A candidate Yang-Baxter map fails bijectivity or the braid relation."""


class ConstructionError(HgsError):
    """Input data for a construction procedure is inconsistent."""


class CorrespondenceError(HgsError):
    """A fixed-subgroup computation violated its cardinality certificate."""


class InvariantError(HgsError):
    """A computed result contradicts a fact its construction guarantees."""


class UsageError(HgsError):
    """Command line arguments do not form a valid command."""


class OrderTooLarge(InvalidSpec, UsageError):
    """A group spec asks for an order above the build limit (exit 1)."""
