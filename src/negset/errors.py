"""Exception hierarchy shared across the package."""


class NegsetError(Exception):
    """Base class for all errors raised by this package."""


class EmptyUniverse(NegsetError):
    pass


class DuplicateName(NegsetError):
    def __init__(self, name):
        super().__init__(f"duplicate object name: {name!r}")
        self.name = name


class InvalidName(NegsetError):
    def __init__(self, name):
        super().__init__(f"invalid object name: {name!r}")
        self.name = name


class UnknownObject(NegsetError):
    def __init__(self, name):
        super().__init__(f"object not in universe: {name!r}")
        self.name = name


class NotDouble(NegsetError):
    """Necessity component is not contained in the admissibility component."""


class UniverseMismatch(NegsetError):
    """Operands were built over different universes."""


class EmptyFamily(NegsetError):
    """Generalized operations are undefined for an empty family."""


class ReflexivePair(NegsetError):
    def __init__(self, name):
        super().__init__(f"contradiction pair may not be reflexive: ({name}, {name})")
        self.name = name


class OverlappingKinds(NegsetError):
    def __init__(self, x, y):
        super().__init__(f"pair ({x}, {y}) declared both strongly and weakly contradictory")
        self.pair = (x, y)


class DominanceNotStrictOrder(NegsetError):
    """Dominance relation is not asymmetric, transitive and irreflexive."""


class InputNotDisc(NegsetError):
    """An operand fed into conflict resolution is itself inconsistent."""


class PolicyError(NegsetError):
    """Resolution policy was configured or invoked incorrectly."""


class SizeOutOfRange(NegsetError):
    def __init__(self, size, high):
        super().__init__(f"universe size {size} out of range 1..{high}")
        self.size = size
        self.high = high


class UnknownFixture(NegsetError):
    def __init__(self, fixture_id):
        super().__init__(f"no such fixture: {fixture_id!r}")
        self.fixture_id = fixture_id


class UnknownLaw(NegsetError):
    def __init__(self, law_id):
        super().__init__(f"no such law: {law_id!r}")
        self.law_id = law_id


class NegativeLimit(NegsetError):
    def __init__(self, limit):
        super().__init__(f"counterexample limit {limit} is negative")
        self.limit = limit


class ScriptUnreadable(NegsetError):
    """A session script could not be opened or read; the message is the OSError's."""
