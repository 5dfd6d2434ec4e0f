"""Session DSL: scripts describing a negotiation between agents.

A script declares a universe, the agents' negotiation sets, optional
contradiction relations and a resolution policy, then runs statements:
let-bindings, bare evaluations, consistency assertions and expectations.

Syntax (one statement per line, ``#`` starts a comment):

    universe a b c d
    agent A = [{a} {a b}]
    strong a b
    weak c d
    dominance a > b
    policy strict
    let S = (A odot B) union C
    eval not S
    assert_disc S
    expect S = [{a} {a b c}]

Infix operators ``odot``, ``oplus``, ``union``, ``inter``, ``minus`` share
one precedence level and associate to the left; ``not`` is prefix
complement; ``odot(A, B, C)`` etc. are the n-ary forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from . import core
from .core import NegotiationSet, Universe, iter_bits, make_universe, negset_of
from .consistency import (
    AgentPriority,
    ContradictionSpec,
    FewestNecessities,
    ObjectDominance,
    ResolutionPolicy,
    Strict,
    disc_violations,
    make_contradiction_spec,
    resolve_odot,
)
from .errors import InputNotDisc, NegsetError, NotDouble, UnknownObject

BINARY_OPS = ("odot", "oplus", "union", "inter", "minus")
NARY_OPS = ("odot", "oplus", "union", "inter")
KEYWORDS = {
    "universe", "agent", "strong", "weak", "dominance", "policy",
    "let", "eval", "assert_disc", "expect", "not", *BINARY_OPS,
}


class ParseError(NegsetError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class ValidationError(NegsetError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnboundName(NegsetError):
    def __init__(self, name: str):
        super().__init__(f"unbound name: {name}")
        self.name = name


class ResolutionFailed(NegsetError):
    def __init__(self, reason: str, pairs: tuple[tuple[str, str], ...]):
        detail = ", ".join(f"({x}, {y})" for x, y in pairs)
        super().__init__(f"resolution failed: {reason}" + (f" [{detail}]" if detail else ""))
        self.reason = reason
        self.pairs = pairs


# --- AST ---

@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Complement:
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Nary:
    op: str
    items: tuple["Expr", ...]


Expr = NameRef | Complement | Binary | Nary


@dataclass(frozen=True)
class Let:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Eval:
    expr: Expr


@dataclass(frozen=True)
class AssertDisc:
    expr: Expr


@dataclass(frozen=True)
class Expect:
    expr: Expr
    target: NegotiationSet


Statement = Let | Eval | AssertDisc | Expect
_KIND = {Let: "let", Eval: "eval", AssertDisc: "assert_disc", Expect: "expect"}


@dataclass(frozen=True)
class SessionScript:
    universe: Universe
    agents: tuple[tuple[str, NegotiationSet], ...]
    policy: ResolutionPolicy
    statements: tuple[Statement, ...]
    spec: ContradictionSpec  # the declared relations, built and validated once

    # read-only views of the spec: its index pairs in order, as object names
    strong = property(lambda self: self._names(self.spec.strong))
    weak = property(lambda self: self._names(self.spec.weak))
    dominance = property(lambda self: self._names(self.spec.dominance))

    def _names(self, pairs: frozenset[tuple[int, int]]) -> tuple[tuple[str, str], ...]:
        return tuple(map(self.spec.pair_names, sorted(pairs)))


# --- lexer ---

# A token is a plain string: a symbol, a name, or "\n" for the end of a line.
# \w and \s follow str.isalnum and str.isspace; a comment runs from "#" to the
# end of its line.
_TOKEN = re.compile(r"[()\[\]{},=>]|[\w.-]+|\n")
_COMMENT = re.compile(r"#[^\n]*")
_STRAY = re.compile(r"[^\w\s()\[\]{},=>.-]")
_SYMBOLS = frozenset("()[]{},=>")
_NOT_NAMES = _SYMBOLS | {"\n", ""}  # "" marks the end of the text


def _lex(text: str) -> tuple[list[str], str]:
    """The tokens of ``text``, and the text without comments that they were read from.

    A line end is appended to the text, so that every statement ends with
    one, and "" to the token list.
    """
    code = (_COMMENT.sub("", text) if "#" in text else text) + "\n"
    stray = _STRAY.search(code)
    if stray:
        line, col = _line_col(code, stray.start())
        raise ParseError(line, col, f"unexpected character {stray.group()!r}")
    tokens = _TOKEN.findall(code)
    tokens.append("")
    return tokens, code


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# --- parser ---

_FIXED_POLICIES = {p.name: p for p in (Strict(), ObjectDominance(), FewestNecessities())}
_RELATIONS = ("strong", "weak", "dominance")
_STATEMENTS = {"universe", "agent", "policy", *_RELATIONS, "let", "eval", "assert_disc", "expect"}


class _Parser:
    """Reads the token list with an index; positions are worked out only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.code = _lex(text)
        self.pos = 0
        self.line = 1  # the current line: one more than the line ends read
        self.refs: list[str] = []  # names referenced since the last reset, in source order

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of token ``index``, from a scan of the text up to it.

        Only a statement can start at the end of the text, so no error is
        reported there.
        """
        match = next(islice(_TOKEN.finditer(self.code), index, None))
        line, col = _line_col(self.code, match.start())
        if match.group() == "\n":  # just past the line as written, comment included
            col = len(self.text.split("\n")[line - 1]) + 1
        return line, col

    def fail(self, message: str, index: int | None = None) -> ParseError:
        line, col = self.position(self.pos if index is None else index)
        return ParseError(line, col, message)

    def expected(self, what: str) -> ParseError:
        token = self.tokens[self.pos]
        found = "NEWLINE" if token == "\n" else token
        return self.fail(f"expected {what}, found {found!r}")

    def expect_sym(self, sym: str) -> None:
        if self.tokens[self.pos] != sym:
            raise self.expected(repr(sym))
        self.pos += 1

    def expect_name(self, what: str = "name") -> str:
        token = self.tokens[self.pos]
        if token in _NOT_NAMES:
            raise self.expected(what)
        self.pos += 1
        return token

    def end_line(self) -> None:
        token = self.tokens[self.pos]
        if token != "\n":
            raise self.fail(f"unexpected trailing token {token!r}")
        self.pos += 1
        self.line += 1

    def binding(self, what: str, line: int) -> str:
        """The bound name of ``agent``/``let``, up to and including the ``=``."""
        name = self.expect_name(what)
        if name in KEYWORDS:
            raise ValidationError(f"keyword {name!r} cannot be bound", line)
        self.expect_sym("=")
        return name

    # set and negotiation-set literals, as raw name lists

    def parse_set_literal(self) -> list[str]:
        self.expect_sym("{")
        tokens, start = self.tokens, self.pos
        try:
            end = tokens.index("}", start)
        except ValueError:
            end = len(tokens)
        names = tokens[start:end]
        if not _NOT_NAMES.isdisjoint(names):
            self.pos = start + [name in _NOT_NAMES for name in names].index(True)
            raise self.expected("object name")
        self.pos = end + 1
        return names

    def parse_negset_literal(self) -> tuple[list[str], list[str]]:
        self.expect_sym("[")
        nec = self.parse_set_literal()
        adm = self.parse_set_literal()
        self.expect_sym("]")
        return nec, adm

    # expressions

    def parse_expr(self) -> Expr:
        # Opening parentheses wrap the left operand, so they are counted here
        # rather than recursed into: a printed left-deep chain
        # ((A odot B) odot C) odot D parses in one loop.
        tokens = self.tokens
        opened = 0
        while tokens[self.pos] == "(":
            self.pos += 1
            opened += 1
        left = self.parse_term()
        while True:
            op = tokens[self.pos]
            if op in BINARY_OPS:
                self.pos += 1
                left = Binary(op, left, self.parse_term())
            elif opened and op == ")":
                self.pos += 1
                opened -= 1
            else:
                break
        if opened:
            self.expect_sym(")")  # raises: the expression ended inside a parenthesis
        return left

    def parse_term(self) -> Expr:
        tokens = self.tokens
        start = self.pos
        while tokens[self.pos] == "not":  # a run of nots is read with a loop, too
            self.pos += 1
        nots = self.pos - start
        token = tokens[self.pos]
        if token == "(":
            self.pos += 1
            term = self.parse_expr()
            self.expect_sym(")")
        elif token in NARY_OPS and tokens[self.pos + 1] == "(":
            self.pos += 2
            items = [self.parse_expr()]
            while tokens[self.pos] == ",":
                self.pos += 1
                items.append(self.parse_expr())
            self.expect_sym(")")
            term = Nary(token, tuple(items))
        elif token in _NOT_NAMES:
            raise self.expected("expression")
        elif token in KEYWORDS:
            raise self.fail(f"keyword {token!r} cannot be used as a name")
        else:
            self.pos += 1
            self.refs.append(token)
            term = NameRef(token)
        for _ in range(nots):
            term = Complement(term)
        return term

    def parse_policy(self) -> ResolutionPolicy:
        start = self.pos
        name = self.expect_name("policy name")
        if name == "agent-priority":
            ranking = [self.expect_name("agent name")]
            while self.tokens[self.pos] == ">":
                self.pos += 1
                ranking.append(self.expect_name("agent name"))
            return AgentPriority(tuple(ranking))
        try:
            return _FIXED_POLICIES[name]
        except KeyError:
            raise self.fail(f"unknown policy {name!r}", start) from None


def parse_session(text: str) -> SessionScript:
    """Parse and fully validate a session script."""
    p = _Parser(text)
    universe: Universe | None = None
    agents: list[tuple[str, NegotiationSet]] = []
    relations: dict[str, list[tuple[str, str]]] = {kind: [] for kind in _RELATIONS}
    relation_lines: dict[str, list[int]] = {kind: [] for kind in _RELATIONS}
    policy: ResolutionPolicy | None = None
    policy_line: int | None = None
    statements: list[Statement] = []
    known_names: set[str] = set()

    tokens = p.tokens
    while True:
        while tokens[p.pos] == "\n":  # a blank line
            p.pos += 1
            p.line += 1
        keyword, line = tokens[p.pos], p.line
        if not keyword:
            break
        if keyword in _SYMBOLS:
            raise p.fail(f"expected statement keyword, found {keyword!r}")
        if universe is None and keyword != "universe":
            raise ValidationError("the universe must be declared first", line)
        if keyword not in _STATEMENTS:
            raise p.fail(f"unknown statement keyword {keyword!r}")
        p.pos += 1
        if keyword == "universe":
            if universe is not None:
                raise ValidationError("duplicate universe declaration", line)
            names = []
            while tokens[p.pos] not in _NOT_NAMES:
                names.append(p.expect_name())
            p.end_line()
            try:
                universe = make_universe(names)
            except NegsetError as exc:
                raise ValidationError(str(exc), line) from exc
        elif keyword == "agent":
            name = p.binding("agent name", line)
            nec, adm = p.parse_negset_literal()
            p.end_line()
            if name in known_names:
                raise ValidationError(f"duplicate name {name!r}", line)
            try:
                value = negset_of(universe, nec, adm)
            except (NotDouble, UnknownObject) as exc:
                raise ValidationError(f"agent {name}: {exc}", line) from exc
            agents.append((name, value))
            known_names.add(name)
        elif keyword in relations:
            x = p.expect_name("object name")
            if keyword == "dominance":
                p.expect_sym(">")
            y = p.expect_name("object name")
            p.end_line()
            relations[keyword].append((x, y))
            relation_lines[keyword].append(line)
        elif keyword == "policy":
            if policy is not None:
                raise ValidationError("duplicate policy declaration", line)
            policy = p.parse_policy()
            policy_line = line
            p.end_line()
        else:  # let, eval, assert_disc, expect
            name = p.binding("binding name", line) if keyword == "let" else None
            p.refs = []
            start = p.pos
            try:
                expr = p.parse_expr()
            except RecursionError:
                # nesting on the right and the n-ary forms still take one call per level
                raise p.fail("expression nested too deeply", start) from None
            if keyword == "expect":
                p.expect_sym("=")
                nec, adm = p.parse_negset_literal()
            p.end_line()
            if name in known_names:
                raise ValidationError(f"duplicate name {name!r}", line)
            for ref in p.refs:
                if ref not in known_names:
                    raise ValidationError(f"unknown name {ref!r}", line)
            if keyword == "let":
                statements.append(Let(name, expr))
                known_names.add(name)
            elif keyword == "expect":
                try:
                    target = negset_of(universe, nec, adm)
                except (NotDouble, UnknownObject) as exc:
                    raise ValidationError(str(exc), line) from exc
                statements.append(Expect(expr, target))
            else:
                statements.append((Eval if keyword == "eval" else AssertDisc)(expr))

    if universe is None:
        raise ValidationError("script declares no universe")

    for kind in _RELATIONS:
        for pair, line in zip(relations[kind], relation_lines[kind]):
            for name in pair:
                if name not in universe:
                    raise ValidationError(f"object {name!r} not in universe", line)

    if isinstance(policy, AgentPriority):
        ranking = policy.ranking
        agent_names = {name for name, _ in agents}
        if len(set(ranking)) != len(ranking):
            raise ValidationError("priority ranking contains ties", policy_line)
        missing = [n for n in ranking if n not in agent_names]
        if missing:
            raise ValidationError(f"ranking names undeclared agents: {missing}", policy_line)
        uncovered = sorted(agent_names - set(ranking))
        if uncovered:
            raise ValidationError(f"ranking does not cover agents: {uncovered}", policy_line)

    # make_contradiction_spec names the first broken dominance pair it meets;
    # index order makes that independent of the order of the script's lines.
    dominance = sorted(relations["dominance"], key=lambda pair: tuple(map(universe.index, pair)))
    try:
        spec = make_contradiction_spec(universe, relations["strong"], relations["weak"], dominance)
    except NegsetError as exc:
        raise ValidationError(str(exc)) from exc
    return SessionScript(
        universe=universe,
        agents=tuple(agents),
        policy=Strict() if policy is None else policy,
        statements=tuple(statements),
        spec=spec,
    )


# --- canonical printing ---

def format_negset(a: NegotiationSet) -> str:
    return str(a)


def _left_spine(e: Expr) -> tuple[Expr, list[Binary]]:
    """The innermost left operand of ``e`` and the ``Binary`` nodes above it, lowest first.

    Left-deep chains are walked with this loop rather than one call per term.
    """
    spine = []
    while isinstance(e, Binary):
        spine.append(e)
        e = e.left
    spine.reverse()
    return e, spine


def print_expr(e: Expr) -> str:
    # A left spine prints as "((x op r1) op r2) op r3" and a run of nots as
    # "not not x", each with a loop; a right operand takes one call per level.
    e, spine = _left_spine(e)
    nots = 0
    while isinstance(e, Complement):
        e = e.operand
        nots += 1
    if isinstance(e, NameRef):
        text = e.name
    elif isinstance(e, Nary):
        text = f"{e.op}({', '.join([print_expr(i) for i in e.items])})"
    else:  # a Binary under a not
        text = f"({print_expr(e)})"
    steps = []
    for node in spine:
        right = print_expr(node.right)
        steps.append(f" {node.op} ({right})" if isinstance(node.right, Binary) else f" {node.op} {right}")
    return "(" * (len(spine) - 1) + "not " * nots + text + ")".join(steps)


def print_policy(policy: ResolutionPolicy) -> str:
    if isinstance(policy, AgentPriority):
        return "agent-priority " + " > ".join(policy.ranking)
    return policy.name


def print_statement(stmt: Statement) -> str:
    if isinstance(stmt, Let):
        return f"let {stmt.name} = {print_expr(stmt.expr)}"
    text = f"{_KIND[type(stmt)]} {print_expr(stmt.expr)}"
    return f"{text} = {format_negset(stmt.target)}" if isinstance(stmt, Expect) else text


def print_session(script: SessionScript) -> str:
    """Canonical script text; parse(print_session(s)) == s for valid scripts."""
    lines = ["universe " + " ".join(script.universe.objects)]
    for name, value in script.agents:
        lines.append(f"agent {name} = {format_negset(value)}")
    for x, y in script.strong:
        lines.append(f"strong {x} {y}")
    for x, y in script.weak:
        lines.append(f"weak {x} {y}")
    for x, y in script.dominance:
        lines.append(f"dominance {x} > {y}")
    lines.append("policy " + print_policy(script.policy))
    for stmt in script.statements:
        lines.append(print_statement(stmt))
    return "\n".join(lines) + "\n"


def negset_json(a: NegotiationSet) -> dict:
    """The JSON form of a negotiation set in every report: both ranges as name lists."""
    return {
        "necessity": list(a.necessity.names()),
        "admissibility": list(a.admissibility.names()),
    }


# --- evaluation ---

@dataclass(slots=True)
class StatementResult:
    kind: str
    source: str
    ok: bool
    value: NegotiationSet | None = None
    detail: str = ""
    notes: tuple[str, ...] = ()


@dataclass
class SessionReport:
    universe: Universe
    results: list[StatementResult] = field(default_factory=list)
    halted: bool = False
    halt_reason: str = ""
    halt_kind: str = ""  # "resolution" or "error" when halted

    @property
    def all_ok(self) -> bool:
        return not self.halted and all(r.ok for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            suffix = f"  # {'; '.join(r.notes)}" if r.notes else ""
            if r.kind in ("let", "eval"):
                if r.ok:
                    lines.append(f"{r.source} = {format_negset(r.value)}{suffix}")
                else:
                    lines.append(f"{r.source}: ERROR {r.detail}{suffix}")
            elif r.kind == "assert_disc":
                verdict = "DISC" if r.ok else f"NOT DISC [{r.detail}]"
                lines.append(f"{r.source}: {verdict}{suffix}")
            else:
                verdict = "ok" if r.ok else f"FAILED {r.detail}"
                lines.append(f"{r.source}: {verdict}{suffix}")
        if self.halted:
            lines.append(f"halted: {self.halt_reason}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The text ``json.dumps(doc, indent=2) + "\\n"`` gives for the report's
        document, written directly: each object name is encoded once, and each
        name list is one join."""
        quoted = [_quote(name) for name in self.universe.objects]

        def names(mask: int) -> str:
            return _json_array(map(quoted.__getitem__, iter_bits(mask)), " " * 10)

        statements = []
        for r in self.results:
            if r.value is None:
                value = "null"
            else:
                value = (f'{{\n        "necessity": {names(r.value.necessity.mask)},\n'
                         f'        "admissibility": {names(r.value.admissibility.mask)}\n      }}')
            statements.append(
                f'{{\n      "kind": {_quote(r.kind)},\n      "source": {_quote(r.source)},\n'
                f'      "ok": {_JSON_BOOL[r.ok]},\n      "value": {value},\n'
                f'      "detail": {_quote(r.detail)},\n'
                f'      "notes": {_json_array(map(_quote, r.notes), " " * 8)}\n    }}'
            )
        return (
            f'{{\n  "universe": {_json_array(quoted, "    ")},\n'
            f'  "statements": {_json_array(statements, "    ")},\n'
            f'  "halted": {_JSON_BOOL[self.halted]},\n  "halt_reason": {_quote(self.halt_reason)},\n'
            f'  "halt_kind": {_quote(self.halt_kind)},\n  "ok": {_JSON_BOOL[self.all_ok]}\n}}\n'
        )


_JSON_BOOL = {True: "true", False: "false"}


def _json_array(items: Iterable[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)`` lays
    it out with its items at ``indent``."""
    body = f",\n{indent}".join(items)
    return f"[\n{indent}{body}\n{indent[2:]}]" if body else "[]"


class _Evaluator:
    """Bottom-up evaluator; tracks single-agent provenance for priority policies."""

    def __init__(
        self,
        spec: ContradictionSpec,
        policy: ResolutionPolicy,
        env: dict[str, NegotiationSet],
    ):
        self.spec = spec
        self.policy = policy
        # every name in env is an agent, its own provenance
        self.env: dict[str, tuple[NegotiationSet, str | None]] = {
            name: (value, name) for name, value in env.items()
        }
        self.notes: list[str] = []

    def eval(self, e: Expr) -> tuple[NegotiationSet, str | None]:
        nots = 0
        while isinstance(e, Complement):  # a run of nots is one loop
            e = e.operand
            nots += 1
        if isinstance(e, NameRef):
            try:
                value, prov = self.env[e.name]
            except KeyError:
                raise UnboundName(e.name) from None
        elif isinstance(e, Binary):
            leaf, spine = _left_spine(e)
            value, prov = self.eval(leaf)
            for node in spine:
                right, rprov = self.eval(node.right)
                value, prov = self._apply(node.op, value, prov, right, rprov), None
        else:  # n-ary
            pairs = [self.eval(item) for item in e.items]
            values = [v for v, _ in pairs]
            if e.op == "union":
                value = core.union_all(values)
            elif e.op == "inter":
                value = core.inter_all(values)
            elif e.op == "oplus":
                value = core.oplus_all(values)
            elif self.spec.empty:
                value = core.odot_all(values)
            else:
                value, prov = pairs[0]
                for right, rprov in pairs[1:]:
                    value, prov = self._odot_step(value, prov, right, rprov), None
            prov = None
        for _ in range(nots):
            value, prov = core.complement(value), None
        return value, prov

    def bind(self, stmt: Let) -> NegotiationSet:
        value, prov = self.eval(stmt.expr)
        self.env[stmt.name] = (value, prov)
        return value

    def _apply(self, op, left, lprov, right, rprov) -> NegotiationSet:
        if op == "minus":
            return core.difference(left, right)
        if op == "union":
            return core.union_all([left, right])
        if op == "inter":
            return core.inter_all([left, right])
        if op == "oplus":
            return core.oplus(left, right)
        return self._odot_step(left, lprov, right, rprov)

    def _odot_step(self, left, lprov, right, rprov) -> NegotiationSet:
        if self.spec.empty:
            return core.odot(left, right)
        outcome = resolve_odot(left, right, self.spec, self.policy, (lprov, rprov))
        if not outcome.ok:
            raise ResolutionFailed(outcome.reason, outcome.pairs)
        if outcome.dropped:
            dropped = " ".join(sorted(outcome.dropped, key=self.spec.universe.index))
            self.notes.append(f"dropped {{{dropped}}}")
        return outcome.result


def eval_expr(
    e: Expr,
    env: dict[str, NegotiationSet],
    spec: ContradictionSpec,
    policy: ResolutionPolicy = Strict(),
) -> NegotiationSet:
    """Evaluate one expression against a plain name environment.

    Every name in ``env`` is treated as an agent for provenance purposes.
    """
    value, _ = _Evaluator(spec, policy, env).eval(e)
    return value


def eval_bindings(
    script: SessionScript, spec: ContradictionSpec
) -> list[tuple[str, NegotiationSet]]:
    """Every agent and ``let`` binding in script order, evaluated under ``spec``
    with the strict policy by one evaluator."""
    ev = _Evaluator(spec, Strict(), dict(script.agents))
    named = list(script.agents)
    for stmt in script.statements:
        if isinstance(stmt, Let):
            named.append((stmt.name, ev.bind(stmt)))
    return named


def run_session(script: SessionScript) -> SessionReport:
    """Execute statements in order; expect failures continue, errors halt."""
    ev = _Evaluator(script.spec, script.policy, dict(script.agents))
    report = SessionReport(universe=script.universe)
    for stmt in script.statements:
        ev.notes = []
        kind = _KIND[type(stmt)]
        try:
            if isinstance(stmt, Let):
                value = ev.bind(stmt)
                source = f"let {stmt.name}"
            else:
                value, _ = ev.eval(stmt.expr)
                source = f"{kind} {print_expr(stmt.expr)}"
            ok, detail = True, ""
            if isinstance(stmt, AssertDisc):
                violations = disc_violations(value, ev.spec)
                ok, detail = not violations, "; ".join(str(v) for v in violations)
            elif isinstance(stmt, Expect) and value != stmt.target:
                ok = False
                detail = f"expected {format_negset(stmt.target)} got {format_negset(value)}"
            report.results.append(
                StatementResult(kind, source, ok, value, detail, tuple(ev.notes))
            )
        except NegsetError as exc:
            report.results.append(StatementResult(
                kind, print_statement(stmt), False, detail=str(exc), notes=tuple(ev.notes)
            ))
            report.halted = True
            report.halt_reason = str(exc)
            report.halt_kind = (
                "resolution" if isinstance(exc, (ResolutionFailed, InputNotDisc)) else "error"
            )
            break
    return report
