"""Exception hierarchy shared across the package.

Every error survives ``pickle``, ``copy.copy`` and ``copy.deepcopy`` as itself,
so it also crosses a process boundary."""


class NegsetError(Exception):
    """Base class for all errors raised by this package.  A subclass with values names them
    once, as ``_fields``, and its text as ``_message``, a ``str.format`` template over them:
    it is built from the values in order, keeps each as an attribute and is rebuilt from them
    by pickle and copy, notes included.  One that writes its own text sets ``_fields`` only."""

    _fields: tuple[str, ...] = ()
    _message: str | None = None

    def __init__(self, *values):
        if self._message is not None:
            self.__dict__.update(zip(self._fields, values, strict=True))
            values = (self._message.format_map(self.__dict__),)
        super().__init__(*values)

    def __reduce__(self):
        values = tuple(map(self.__getattribute__, self._fields)) if self._fields else self.args
        return self.__class__, values, self.__dict__


class EmptyUniverse(NegsetError):
    pass


class DuplicateName(NegsetError):
    _fields, _message = ("name",), "duplicate object name: {name!r}"


class InvalidName(NegsetError):
    _fields, _message = ("name",), "invalid object name: {name!r}"


class UnknownObject(NegsetError):
    _fields, _message = ("name",), "object not in universe: {name!r}"


class NotDouble(NegsetError):
    """Necessity component is not contained in the admissibility component."""


class UniverseMismatch(NegsetError):
    """Operands were built over different universes."""


class EmptyFamily(NegsetError):
    """Generalized operations are undefined for an empty family."""


class ReflexivePair(NegsetError):
    _fields, _message = ("name",), "contradiction pair may not be reflexive: ({name}, {name})"


class OverlappingKinds(NegsetError):
    _fields, _message = ("x", "y"), "pair ({x}, {y}) declared both strongly and weakly contradictory"
    pair = property(lambda self: (self.x, self.y))


class DominanceNotStrictOrder(NegsetError):
    """Dominance relation is not asymmetric, transitive and irreflexive."""


class InputNotDisc(NegsetError):
    """An operand fed into conflict resolution is itself inconsistent."""


class PolicyError(NegsetError):
    """Resolution policy was configured or invoked incorrectly."""


class SizeOutOfRange(NegsetError):
    _fields, _message = ("size", "high"), "universe size {size} out of range 1..{high}"


class UnknownFixture(NegsetError):
    _fields, _message = ("fixture_id",), "no such fixture: {fixture_id!r}"


class UnknownLaw(NegsetError):
    _fields, _message = ("law_id",), "no such law: {law_id!r}"


class NegativeLimit(NegsetError):
    _fields, _message = ("limit",), "counterexample limit {limit} is negative"


class ScriptUnreadable(NegsetError):
    """A session script could not be opened or read; the message is the OSError's."""
