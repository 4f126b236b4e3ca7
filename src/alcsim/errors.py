"""Exception types shared across the toolkit."""


class AlcsimError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedNegation(AlcsimError):
    """Negating an at-least restriction with n >= 2 is not supported.

    The constructor set has no at-most restriction, so such a negation
    cannot be expressed; callers get a hard error instead of a silent
    approximation.
    """

    @classmethod
    def of_atleast(cls, n: int, role: str) -> "UnsupportedNegation":
        """The error for negating ``atleast n role``."""
        return cls(f"cannot negate 'atleast {n} {role}': "
                   "no at-most restriction in the constructor set")


class CyclicTBox(AlcsimError):
    """A concept definition is (directly or indirectly) self-referential."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("cyclic definitions: " + " -> ".join(cycle))


class DefinitionTooDeep(AlcsimError):
    """Unfolding a defined name nests deeper than the supported limit.

    The limit is ``model.MAX_UNFOLDED_DEPTH``; it keeps the recursive
    traversals of unfolded concepts inside Python's recursion limit.
    """

    def __init__(self, name: str, depth: int, limit: int):
        self.name = name
        self.depth = depth
        super().__init__(f"definition of {name} unfolds {depth} levels deep, "
                         f"past the limit of {limit}")


class InvalidShape(AlcsimError):
    """A ``gen.KbShape`` asks for names or counts that ``random_kb`` cannot
    draw: a negative count, more names than a pool holds, or assertions
    with no name to draw from."""


class UnknownIndividual(AlcsimError):
    """An individual name does not occur in the knowledge base."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown individual: {name}")


class CardinalityViolation(AlcsimError):
    """Intersection cardinality exceeds one of the operand cardinalities."""
