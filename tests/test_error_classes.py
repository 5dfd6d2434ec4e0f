"""The contract of every error class: a class with values is built from them
in order, keeps each as an attribute, and its text is pinned; every error
survives ``pickle``, ``copy.copy`` and ``copy.deepcopy`` as itself, with its
notes, and so crosses a process boundary."""

import copy
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from negset import errors, oracle, session
from negset.errors import NegsetError, SizeOutOfRange

# every NegsetError class the two modules define or import, found by
# introspection, so that a new class is covered here without an edit
CLASSES = sorted({value for module in (errors, session) for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, NegsetError)},
                 key=lambda cls: cls.__name__)

# (class name, attributes, text) for each class that declares _fields and
# _message; the class is built from the attributes' values in order
PINNED = [
    ("DuplicateName", {"name": "a"}, "duplicate object name: 'a'"),
    ("InvalidName", {"name": "a b"}, "invalid object name: 'a b'"),
    ("UnknownObject", {"name": "z"}, "object not in universe: 'z'"),
    ("ReflexivePair", {"name": "a"}, "contradiction pair may not be reflexive: (a, a)"),
    ("OverlappingKinds", {"x": "a", "y": "c"},
     "pair (a, c) declared both strongly and weakly contradictory"),
    ("SizeOutOfRange", {"size": 6, "high": 5}, "universe size 6 out of range 1..5"),
    ("UnknownFixture", {"fixture_id": "x"}, "no such fixture: 'x'"),
    ("UnknownLaw", {"law_id": "x"}, "no such law: 'x'"),
    ("NegativeLimit", {"limit": -1}, "counterexample limit -1 is negative"),
    ("ParseError", {"line": 4, "col": 8, "reason": "unexpected character '@'"},
     "4:8: unexpected character '@'"),
    ("UnboundName", {"name": "X"}, "unbound name: X"),
    ("ResolutionFailed", {"reason": "no compromise", "pairs": ()}, "resolution failed: no compromise"),
    ("ResolutionFailed", {"reason": "strict policy", "pairs": (("a", "b"), ("b", "c"))},
     "resolution failed: strict policy [(a, b), (b, c)]"),
]
# values to build a class from, the last pinned row's for a declared class
SAMPLES = {"ValidationError": ("unknown name 'Z'", 4),
           **{name: tuple(attributes.values()) for name, attributes, _ in PINNED}}


def sample(cls):
    """An instance of ``cls``: from its sample values, else a text per field, else a message."""
    default = tuple(f"<{field}>" for field in getattr(cls, "_fields", ())) or ("a message",)
    return cls(*SAMPLES.get(cls.__name__, default))


def test_every_class_is_found():
    names = {cls.__name__ for cls in CLASSES}
    assert len(CLASSES) == len(names) >= 22  # the classes the two modules hold today
    assert set(SAMPLES) <= names


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("route", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_round_trips(cls, route):
    error = sample(cls)
    error.__notes__ = ["a note"]  # what BaseException.add_note sets, on Python 3.10 too
    back = route(error)
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))
    assert back.__notes__ == ["a note"]


@pytest.mark.parametrize("name,attributes,text", PINNED, ids=[p[0] for p in PINNED])
def test_text_and_attributes(name, attributes, text):
    cls = getattr(errors, name, None) or getattr(session, name)
    error = cls(*attributes.values())
    assert (str(error), error.args, vars(error)) == (text, (text,), attributes)


def test_declared_classes_are_the_pinned_ones():
    assert {cls.__name__ for cls in CLASSES if cls._fields} == {name for name, _, _ in PINNED}


def test_overlapping_kinds_keeps_its_pair():
    assert errors.OverlappingKinds("a", "c").pair == ("a", "c")


def test_only_two_classes_write_their_own_constructor():
    own = sorted(cls.__name__ for cls in CLASSES if "__init__" in vars(cls) and cls is not NegsetError)
    assert own == ["ResolutionFailed", "ValidationError"]


def test_an_error_raised_in_a_worker_process_reaches_the_caller():
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        future = pool.submit(oracle.check_law, "idempotence-odot", 6)
        with pytest.raises(SizeOutOfRange) as info:
            future.result(timeout=60)
    assert (str(info.value), info.value.size, info.value.high) == (
        "universe size 6 out of range 1..5", 6, 5)
