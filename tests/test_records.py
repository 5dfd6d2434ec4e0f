"""The value contract of every record class: each is built from its fields in
order, compares, hashes, prints, pickles and copies by them exactly as a
frozen dataclass does."""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

import negset as ns
from negset import oracle
from negset.consistency import (
    AgentPriority,
    DiscViolation,
    Failed,
    FewestNecessities,
    ObjectDominance,
    Resolved,
    Strict,
)
from negset.core import FiniteSet, Universe
from negset.session import (
    AssertDisc,
    Eval,
    Expect,
    Let,
    SessionReport,
    StatementResult,
    parse_session,
)

U = ns.make_universe(["a", "b"])
A = ns.negset_of(U, ["a"], ["a", "b"])
SPEC = ns.make_contradiction_spec(U, [("a", "b")])
SCRIPT = parse_session("universe a b\nagent A = [{a} {a}]\nstrong a b\npolicy strict\neval A\n")

# (value, the fields its repr, equality, hash and pickle go by, in order)
FROZEN = [
    (U, ("objects",)),
    (FiniteSet(U, 1), ("universe", "mask")),
    (SPEC, ("universe", "strong_rows", "weak_rows", "dominance_rows")),
    (DiscViolation("strong-in-admissibility", ("a", "b")), ("kind", "pair")),
    (Strict(), ()),
    (ObjectDominance(), ()),
    (AgentPriority(("A", "B")), ("ranking",)),
    (FewestNecessities(), ()),
    (Resolved(A, frozenset({"b"})), ("result", "dropped")),
    (Failed("strong conflict", (("a", "b"),)), ("reason", "pairs")),
    (Let("L", ("A",)), ("name", "expr")),
    (Eval(("A", "A", "odot")), ("expr",)),
    (AssertDisc(("A",)), ("expr",)),
    (Expect(("A",), A), ("expr", "target")),
    (SCRIPT, ("universe", "agents", "policy", "statements", "spec")),
    (oracle.LawReport("idempotence-odot", 2, 9, oracle.HOLDS, ("x",), 0, 0.5),
     ("law", "size", "checked", "verdict", "counterexamples", "violation_count", "elapsed")),
    (oracle.LawSpec("idempotence-odot", False, len), ("law_id", "expects_counterexample", "cases")),
    (oracle.FixtureResult("trip", True, "note"), ("fixture_id", "passed", "note")),
    (StatementResult("eval", "eval A", True, A, "", ("n",)),
     ("kind", "source", "ok", "value", "detail", "notes")),
    (SessionReport(U, (StatementResult("let", "let L", False),), True, "why", "error"),
     ("universe", "results", "halted", "halt_reason", "halt_kind")),
]


def ids(table):
    return [type(value).__name__ for value, _ in table]


def field_values(value, fields):
    return tuple(getattr(value, name) for name in fields)


@pytest.mark.parametrize("value,fields", FROZEN, ids=ids(FROZEN))
def test_repr_is_the_dataclass_text(value, fields):
    body = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__qualname__}({body})"


@pytest.mark.parametrize("value,text", [
    (Failed("x"), "Failed(reason='x', pairs=())"),
    (Strict(), "Strict()"),
    (Let("L", ("A",)), "Let(name='L', expr=('A',))"),
    (U, "Universe(objects=('a', 'b'))"),
    (Resolved(A), "Resolved(result=NegotiationSet(necessity=FiniteSet(universe=Universe("
                  "objects=('a', 'b')), mask=1), admissibility=FiniteSet(universe=Universe("
                  "objects=('a', 'b')), mask=3)), dropped=frozenset())"),
    (StatementResult("let", "let L", False), "StatementResult(kind='let', source='let L', "
                                             "ok=False, value=None, detail='', notes=())"),
])
def test_repr_examples(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,fields", FROZEN, ids=ids(FROZEN))
def test_equal_by_fields_within_one_class(value, fields):
    twin = type(value)(*field_values(value, fields))
    assert twin == value and not twin != value
    assert value != object() and value != field_values(value, fields)


@pytest.mark.parametrize("value,fields", FROZEN, ids=ids(FROZEN))
def test_hash_is_the_hash_of_the_fields(value, fields):
    assert hash(value) == hash(field_values(value, fields))
    assert hash(type(value)(*field_values(value, fields))) == hash(value)


def test_classes_with_the_same_fields_differ():
    assert Eval(("A",)) != AssertDisc(("A",))
    assert Strict() == Strict() and hash(Strict()) == hash(Strict())
    assert Strict() != ObjectDominance() != FewestNecessities() != Strict()
    assert len({Strict(), Strict(), ObjectDominance(), FewestNecessities()}) == 3
    assert Let("L", ("A",)) != Let("M", ("A",))


WITH_FIELDS = [(v, f) for v, f in FROZEN if f]


@pytest.mark.parametrize("value,fields", WITH_FIELDS, ids=ids(WITH_FIELDS))
def test_assigning_or_deleting_a_field_raises(value, fields):
    before = field_values(value, fields)
    for name in fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert field_values(value, fields) == before


@pytest.mark.parametrize("value,fields", FROZEN, ids=ids(FROZEN))
@pytest.mark.parametrize("route", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_round_trips(value, fields, route):
    back = route(value)
    assert type(back) is type(value)
    assert back == value and field_values(back, fields) == field_values(value, fields)
    assert hash(back) == hash(value)


def test_derived_attributes_survive_a_round_trip():
    for route in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert route(U).full_mask == 3 and route(U).index("b") == 1
        spec = route(SPEC)
        assert (spec.strong_keys, spec.weak_keys, spec.strong) == (1, 0, frozenset({(0, 1)}))


def test_keyword_construction_and_defaults():
    assert Resolved(result=A).dropped == frozenset()
    assert Failed(reason="r").pairs == ()
    assert Let(expr=("A",), name="L") == Let("L", ("A",))
    assert Universe(objects=("a", "b")) == U
    assert FiniteSet(universe=U, mask=2) == FiniteSet(U, 2)
    assert AgentPriority(ranking=("A",)).ranking == ("A",)
    r = StatementResult(kind="eval", source="eval A", ok=True)
    assert (r.value, r.detail, r.notes) == (None, "", ())
    assert oracle.FixtureResult("trip", False).note == ""


def test_finite_set_checks_its_mask():
    with pytest.raises(ns.errors.UnknownObject):
        FiniteSet(U, 4)


def test_policies_keep_their_names():
    assert [p.name for p in (Strict(), ObjectDominance(), AgentPriority(()), FewestNecessities())] == [
        "strict", "dominance", "agent-priority", "fewest-necessities"]
    assert Resolved(A).ok is True and Failed("x").ok is False


# the documented defaults of each constructor's last parameters
DEFAULTS = {
    Resolved: {"dropped": frozenset()},
    Failed: {"pairs": ()},
    oracle.FixtureResult: {"note": ""},
    StatementResult: {"value": None, "detail": "", "notes": ()},
    SessionReport: {"results": (), "halted": False, "halt_reason": "", "halt_kind": ""},
}


@pytest.mark.parametrize("value,fields", FROZEN, ids=ids(FROZEN))
def test_signature_lists_the_fields_with_their_defaults(value, fields):
    params = inspect.signature(type(value)).parameters.values()
    assert [p.name for p in params] == list(fields)
    assert {p.kind for p in params} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
    assert defaults == DEFAULTS.get(type(value), {})
    if fields:  # tracebacks and profiles name the constructor after its class
        init = type(value).__init__
        assert init.__qualname__ == f"{type(value).__qualname__}.__init__"
        assert init.__module__ == type(value).__module__


@pytest.mark.parametrize("value,fields", FROZEN, ids=ids(FROZEN))
def test_wrong_arguments_raise_type_error(value, fields):
    cls, args = type(value), field_values(value, fields)
    if fields:
        with pytest.raises(TypeError):
            cls(*args[:-1 - len(DEFAULTS.get(cls, ()))])  # a required argument missing
    with pytest.raises(TypeError):
        cls(*args, None)  # one positional argument too many
    with pytest.raises(TypeError):
        cls(*args, no_such_field=None)
