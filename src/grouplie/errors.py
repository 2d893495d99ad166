"""Exception types shared across the package."""


class GroupLieError(Exception):
    """Base class for every error raised by this library."""


class BadParameters(GroupLieError):
    pass


class UnknownName(GroupLieError):
    pass


class NoIdentity(GroupLieError):
    pass


class NoInverse(GroupLieError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAssociative(GroupLieError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        a, b, c = triple
        super().__init__(
            f"multiplication table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
        )


class OrderCapExceeded(GroupLieError):
    pass


class NotHomomorphism(GroupLieError):
    def __init__(self, pair: tuple[int, int], label: str = "map"):
        self.pair = pair
        g, h = pair
        super().__init__(f"{label} is not a homomorphism: fails at pair ({g}, {h})")


class NotInvolutive(GroupLieError):
    def __init__(self, element: int, label: str = "map"):
        self.element = element
        super().__init__(f"{label} squared is not the identity: fails at element {element}")


class ConductorMismatch(GroupLieError):
    pass


class DivisionByZero(GroupLieError):
    pass


class DimensionMismatch(GroupLieError):
    pass


class GroupMismatch(GroupLieError):
    pass


class IncompatiblePair(GroupLieError):
    """The character does not absorb the automorphism: alpha(tau(g)) != alpha(g)."""


class PrimeSearchFailed(GroupLieError):
    pass


class LiftInconsistent(GroupLieError):
    """Internal consistency check of the modular character computation failed."""


class IndicatorOutOfRange(GroupLieError):
    """An indicator sum left {-1, 0, 1}; signals a table or conjugacy bug."""


class PartnerNotFound(GroupLieError):
    pass


class AlphaNotReal(GroupLieError):
    pass


class InvariantViolated(GroupLieError):
    """An identity the construction guarantees failed; signals a bug here,
    never bad input."""


class OrbitBlockViolated(GroupLieError):
    """A row of a rank or membership question crosses two sigma-orbit
    blocks, or one block holds more than two rows; the block kernel decides
    neither."""


class IntegerBoundExceeded(GroupLieError):
    """An int64 array product could leave the exact range; raised before the
    product is formed, never after a silent wrap."""


class TruncationInsufficient(GroupLieError):
    pass


class UsageError(GroupLieError):
    pass
