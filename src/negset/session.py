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

import re
from functools import cache, partial
from itertools import chain, islice
from typing import Iterable, Iterator

try:  # the C encoder json.encoder uses, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

from . import core
from .core import (
    NegotiationSet,
    Record,
    Universe,
    _from_masks,
    _same,
    iter_bits,
    make_universe,
    negset_of,
)
from .consistency import (
    AgentPriority,
    ContradictionSpec,
    FewestNecessities,
    ObjectDominance,
    ResolutionPolicy,
    Strict,
    _build_spec,
    disc_violations,
    make_contradiction_spec,
    resolve_odot,
)
from .errors import InputNotDisc, NegsetError, NotDouble, UnknownObject

_RELATIONS = ("strong", "weak", "dominance")
_STATEMENTS = {"universe", "agent", "policy", *_RELATIONS, "let", "eval", "assert_disc", "expect"}
_MASK_OPS = {"odot": core.odot_masks, "oplus": core.oplus_masks, "union": core.union_masks,
             "inter": core.inter_masks, "minus": core.difference_masks}
BINARY_OPS = tuple(_MASK_OPS)
NARY_OPS = ("odot", "oplus", "union", "inter")
KEYWORDS = {*_STATEMENTS, "not", *BINARY_OPS}


class ParseError(NegsetError):
    _fields, _message = ("line", "col", "reason"), "{line}:{col}: {reason}"


class ValidationError(NegsetError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnboundName(NegsetError):
    _fields, _message = ("name",), "unbound name: {name}"


class ResolutionFailed(NegsetError):
    _fields = ("reason", "pairs")  # no _message: the text lists the pairs only when there are any

    def __init__(self, reason: str, pairs: tuple[tuple[str, str], ...]):
        detail = ", ".join(f"({x}, {y})" for x, y in pairs)
        super().__init__(f"resolution failed: {reason}" + (f" [{detail}]" if detail else ""))
        self.reason = reason
        self.pairs = pairs


# --- statements ---

# An expression is kept as a postfix program: a tuple of names, "not", binary
# operator names and ("op", k) for an n-ary form over the k values before it.
# A name is never a keyword, so a string item is told apart by comparison.
Program = tuple


class Let(Record):
    __slots__ = _fields = ("name", "expr")


class Eval(Record):
    __slots__ = _fields = ("expr",)


class AssertDisc(Record):
    __slots__ = _fields = ("expr",)


class Expect(Record):
    __slots__ = _fields = ("expr", "target")


Statement = Let | Eval | AssertDisc | Expect
_KIND = {Let: "let", Eval: "eval", AssertDisc: "assert_disc", Expect: "expect"}


class SessionScript(Record):
    # spec: the declared relations, built and validated once
    __slots__ = _fields = ("universe", "agents", "policy", "statements", "spec")

    # read-only views of the spec: its index pairs in order, as object names
    strong = property(lambda self: self._names(self.spec.strong))
    weak = property(lambda self: self._names(self.spec.weak))
    dominance = property(lambda self: self._names(self.spec.dominance))

    def _names(self, pairs: frozenset[tuple[int, int]]) -> tuple[tuple[str, str], ...]:
        return tuple(map(self.spec.pair_names, sorted(pairs)))


# --- lexer ---

# A token is a plain string: a symbol, a name, or _EOL for the end of a line.
# \w and \s follow str.isalnum and str.isspace; a comment runs from "#" to the
# end of its line.  _TOKEN is the grammar of the tokens; the lexer reads the
# same tokens with str passes and uses _TOKEN only to locate one for an error.
_TOKEN = re.compile(r"[()\[\]{},=>]|[\w.-]+|\n")
_COMMENT = re.compile(r"#[^\n]*")
_STRAY = re.compile(r"[^\w\s()\[\]{},=>.-]")
_ALLOWED_ASCII = bytes(b for b in range(128) if not _STRAY.match(chr(b)))
_EOL = ";"  # a stray character, so no text that passes the stray check holds one
_SYMBOLS = frozenset("()[]{},=>")
_NOT_NAMES = _SYMBOLS | {_EOL, ""}  # "" marks the end of a window
_WINDOW = 32768  # characters lexed at a time: a bounded token list, short-lived strings


def _lex(text: str) -> tuple[str, Iterator[list[str]]]:
    """The text with comments blanked to spaces, so that it keeps the text's offsets, checked
    for stray characters, and its tokens lazily, one window at a time: the lines up to the
    first line end after _WINDOW characters.

    A line end is appended to the text, so that every statement ends with
    one.  With every symbol padded by spaces and each line end made an _EOL
    word, one ``split`` gives the tokens that ``_TOKEN.findall`` gives.
    """
    code = (_COMMENT.sub(lambda c: " " * len(c.group()), text) if "#" in text else text) + "\n"
    # a non-ASCII text is left to the regex: it may hold a lone surrogate,
    # which has no UTF-8 encoding
    if not code.isascii() or code.encode().translate(None, _ALLOWED_ASCII):
        stray = _STRAY.search(code)
        if stray:
            line, col = _line_col(code, stray.start())
            raise ParseError(line, col, f"unexpected character {stray.group()!r}")
    return code, _windows(code)


def _windows(code: str) -> Iterator[list[str]]:
    end = 0
    while end < len(code):
        start, end = end, code.find("\n", end + _WINDOW) + 1 or len(code)
        spaced = code[start:end].replace("\n", f" {_EOL} ")
        for sym in _SYMBOLS:  # a str.replace that finds nothing returns its string
            spaced = spaced.replace(sym, f" {sym} ")
        yield spaced.split()


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# --- parser ---

_FIXED_POLICIES = {p.name: p for p in (Strict(), ObjectDominance(), FewestNecessities())}


class _Parser:
    """Reads one window of tokens at a time.  An error is placed, only when it is raised, by
    its token's index in the whole text: ``offset + pos`` for token ``pos`` of the window."""

    def __init__(self, text: str):
        self.code, self.windows = _lex(text)
        self.tokens, self.pos, self.offset = [""], 0, 0  # offset: tokens of earlier windows

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of token ``index`` of the text, from a scan of the text up to it.

        Only a statement can start at the end of the text, so no error is
        reported there.
        """
        match = next(islice(_TOKEN.finditer(self.code), index, None))
        return _line_col(self.code, match.start())

    def fail(self, message: str, index: int | None = None) -> ParseError:
        line, col = self.position(self.offset + self.pos if index is None else index)
        return ParseError(line, col, message)

    def invalid(self, message: str, index: int) -> ValidationError:
        return ValidationError(message, self.position(index)[0])

    def expected(self, what: str) -> ParseError:
        token = self.tokens[self.pos]
        found = "NEWLINE" if token == _EOL else token
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
        if token != _EOL:
            raise self.fail(f"unexpected trailing token {token!r}")
        self.pos += 1

    def binding(self, what: str, at: int) -> str:
        """The bound name of ``agent``/``let``, up to and including the ``=``."""
        name = self.expect_name(what)
        if name in KEYWORDS:
            raise self.invalid(f"keyword {name!r} cannot be bound", at)
        self.expect_sym("=")
        return name

    def negset_value(self, universe: Universe, sets: list, at: int, prefix="") -> NegotiationSet:
        """The value of a literal's two name lists; an error in them is reported at ``at``."""
        try:
            return negset_of(universe, *sets)
        except (NotDouble, UnknownObject) as exc:
            raise self.invalid(f"{prefix}{exc}", at) from exc

    def parse_negset_literal(self) -> list[list[str]]:
        """A negotiation-set literal ``[{…} {…}]`` as its two raw name lists."""
        self.expect_sym("[")
        sets = []
        for _ in range(2):
            self.expect_sym("{")
            tokens, start = self.tokens, self.pos
            try:
                end = tokens.index("}", start)
            except ValueError:
                end = len(tokens)
            sets.append(tokens[start:end])
            if not _NOT_NAMES.isdisjoint(sets[-1]):
                self.pos = start + [name in _NOT_NAMES for name in sets[-1]].index(True)
                raise self.expected("object name")
            self.pos = end + 1
        self.expect_sym("]")
        return sets

    # expressions

    def parse_expr(self) -> Program:
        """One expression as a postfix program, read with one loop.

        An open group, "(" or "op(", waits on a stack with the nots read
        before it and the binary operator it is the right operand of; both
        follow the group into the program when it closes.
        """
        tokens, pos = self.tokens, self.pos
        program: list = []
        groups: list[list] = []  # [n-ary op or None, items so far, nots, operator]
        nots, waiting = 0, None  # the same two for the term being read
        while True:
            token = tokens[pos]
            if token == "not":
                nots += 1
                pos += 1
                continue
            if token == "(" or (token in NARY_OPS and tokens[pos + 1] == "("):
                nary = token != "("
                groups.append([token if nary else None, 1, nots, waiting])
                pos += 1 + nary
                nots, waiting = 0, None
                continue
            if token in _NOT_NAMES:
                self.pos = pos
                raise self.expected("expression")
            if token in KEYWORDS:
                raise self.fail(f"keyword {token!r} cannot be used as a name", self.offset + pos)
            program.append(token)
            pos += 1
            while True:  # a term is complete; a closing group completes one more
                if nots:
                    program += ["not"] * nots
                if waiting:
                    program.append(waiting)
                token = tokens[pos]
                if token in BINARY_OPS:
                    nots, waiting = 0, token
                    pos += 1
                    break
                if not groups:
                    self.pos = pos
                    return tuple(program)
                group = groups[-1]
                if token == "," and group[0]:
                    group[1] += 1
                    nots, waiting = 0, None
                    pos += 1
                    break
                if token != ")":
                    self.pos = pos
                    raise self.expected("')'")
                groups.pop()
                pos += 1
                if group[0]:
                    program.append((group[0], group[1]))
                nots, waiting = group[2], group[3]

    def parse_policy(self) -> ResolutionPolicy:
        start = self.offset + self.pos
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
    runs: dict[str, list] = {kind: [] for kind in _RELATIONS}  # per kind: index columns xs, ys
    unknown: dict[str, tuple] = {}  # per kind: the first run naming an unknown object
    read_to = 0  # up to here a run that failed its checks is read line by line
    policy: ResolutionPolicy | None = None
    statements: list[Statement] = []
    known_names: set[str] = set()

    tokens = p.tokens
    while True:
        while tokens[p.pos] == _EOL:  # a blank line
            p.pos += 1
        keyword, at = tokens[p.pos], p.offset + p.pos  # at: the keyword's index in the text
        if not keyword:  # the end of a window
            p.offset, p.pos = p.offset + p.pos, 0
            tokens = p.tokens = next(p.windows, None)
            if tokens is None:
                break
            tokens.append("")
            n_tokens, read_to = len(tokens), 0
            continue
        if keyword in _SYMBOLS:
            raise p.fail(f"expected statement keyword, found {keyword!r}")
        if universe is None and keyword != "universe":
            raise p.invalid("the universe must be declared first", at)
        if keyword not in _STATEMENTS:
            raise p.fail(f"unknown statement keyword {keyword!r}")
        p.pos += 1
        if keyword == "universe":
            if universe is not None:
                raise p.invalid("duplicate universe declaration", at)
            names = []
            while tokens[p.pos] not in _NOT_NAMES:
                names.append(p.expect_name())
            p.end_line()
            try:
                universe = make_universe(names)
            except NegsetError as exc:
                raise p.invalid(str(exc), at) from exc
            index = universe._index
        elif keyword == "agent":
            name = p.binding("agent name", at)
            sets = p.parse_negset_literal()
            p.end_line()
            if name in known_names:
                raise p.invalid(f"duplicate name {name!r}", at)
            agents.append((name, p.negset_value(universe, sets, at, f"agent {name}: ")))
            known_names.add(name)
        elif keyword in runs:
            # a run of lines "kw x y" ("kw x > y" for dominance) is read at once
            # when slices show every line whole, else line by line just below
            start, stride, stop = p.pos - 1, 5 if keyword == "dominance" else 4, p.pos - 1
            while start >= read_to and stop < n_tokens and tokens[stop] == keyword:
                stop += stride
            k = (stop - start) // stride
            xs, ys = tokens[start + 1:stop:stride], tokens[start + stride - 2:stop:stride]
            if k and (tokens[start + stride - 1:stop:stride].count(_EOL) == k
                      and (stride == 4 or tokens[start + 2:stop:5].count(">") == k)
                      and _NOT_NAMES.isdisjoint(xs + ys)):
                p.pos = stop
            else:
                read_to = stop
                xs = [p.expect_name("object name")]
                if keyword == "dominance":
                    p.expect_sym(">")
                ys = [p.expect_name("object name")]
                p.end_line()
            try:
                runs[keyword].append([list(map(index.__getitem__, names)) for names in (xs, ys)])
            except KeyError:
                unknown.setdefault(keyword, (at, stride, xs, ys))
        elif keyword == "policy":
            if policy is not None:
                raise p.invalid("duplicate policy declaration", at)
            policy, policy_at = p.parse_policy(), at
            p.end_line()
        else:  # let, eval, assert_disc, expect
            name = p.binding("binding name", at) if keyword == "let" else None
            expr = p.parse_expr()
            if keyword == "expect":
                p.expect_sym("=")
                sets = p.parse_negset_literal()
            p.end_line()
            if name in known_names:
                raise p.invalid(f"duplicate name {name!r}", at)
            for item in expr:
                if item not in known_names and item.__class__ is str and item not in KEYWORDS:
                    raise p.invalid(f"unknown name {item!r}", at)
            if keyword == "let":
                statements.append(Let(name, expr))
                known_names.add(name)
            elif keyword == "expect":
                statements.append(Expect(expr, p.negset_value(universe, sets, at)))
            else:
                statements.append((Eval if keyword == "eval" else AssertDisc)(expr))

    if universe is None:
        raise ValidationError("script declares no universe")

    for kind in _RELATIONS:
        if kind in unknown:
            first, stride, xs, ys = unknown[kind]  # line k of a run starts at first + k * stride
            k, name = next((k, name) for k, pair in enumerate(zip(xs, ys))
                           for name in pair if name not in index)
            raise p.invalid(f"object {name!r} not in universe", first + k * stride)

    if isinstance(policy, AgentPriority):
        ranking = policy.ranking
        agent_names = {name for name, _ in agents}
        if len(set(ranking)) != len(ranking):
            raise p.invalid("priority ranking contains ties", policy_at)
        missing = [n for n in ranking if n not in agent_names]
        if missing:
            raise p.invalid(f"ranking names undeclared agents: {missing}", policy_at)
        uncovered = sorted(agent_names - set(ranking))
        if uncovered:
            raise p.invalid(f"ranking does not cover agents: {uncovered}", policy_at)

    pairs = [chain.from_iterable(zip(xs, ys) for xs, ys in runs[k]) for k in _RELATIONS]
    try:
        spec = _build_spec(universe, *pairs)
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


def print_expr(program: Program) -> str:
    """Canonical text of a program, built with one loop over a stack of
    (text, text as an operand) entries, each a string or nested pieces, and
    joined once.  Only an infix form is parenthesized as an operand, and only
    as an operand of an infix form or of ``not``."""
    stack: list = []
    for item in program:
        if item.__class__ is tuple:
            op, k = item
            pieces = [f"{op}("]
            for piece, _ in stack[-k:]:
                pieces += (piece, ", ")
            pieces[-1] = ")"
            del stack[-k:]
            stack.append((pieces, pieces))
        elif item == "not":
            pieces = ["not ", stack.pop()[1]]
            stack.append((pieces, pieces))
        elif item in BINARY_OPS:
            right, left = stack.pop()[1], stack.pop()[1]
            pieces = [left, f" {item} ", right]
            stack.append((pieces, ["(", pieces, ")"]))
        else:
            stack.append((item, item))
    out, todo = [], [stack[0][0]]  # the nested pieces, flattened in order
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            out.append(piece)
        else:
            todo += reversed(piece)
    return "".join(out)


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
    for kind in _RELATIONS:
        sep = " > " if kind == "dominance" else " "
        lines += (f"{kind} {x}{sep}{y}" for x, y in getattr(script, kind))
    lines.append("policy " + print_policy(script.policy))
    for stmt in script.statements:
        lines.append(print_statement(stmt))
    return "\n".join(lines) + "\n"


# --- evaluation ---

class StatementResult(Record):
    __slots__ = _fields = ("kind", "source", "ok", "value", "detail", "notes")
    _defaults = (None, "", ())


class SessionReport(Record):
    # halt_kind is "resolution" or "error" when halted
    __slots__ = _fields = ("universe", "results", "halted", "halt_reason", "halt_kind")
    _defaults = ((), False, "", "")

    @property
    def all_ok(self) -> bool:
        return not self.halted and all(r.ok for r in self.results)

    def to_text(self) -> str:
        # one cache per report renders each distinct set once; it is keyed on the
        # masks, not on the value, whose hash covers the universe
        texts, lines = cache(self.universe.format_masks), []
        for r in self.results:
            suffix = f"  # {'; '.join(r.notes)}" if r.notes else ""
            if r.ok and r.kind in ("let", "eval"):  # a bound value
                lines.append(f"{r.source} = {texts(r.value.nec, r.value.adm)}{suffix}")
                continue
            if r.kind == "assert_disc":
                verdict = "DISC" if r.ok else f"NOT DISC [{r.detail}]"
            elif r.kind == "expect":
                verdict = "ok" if r.ok else f"FAILED {r.detail}"
            else:  # a let or eval that failed
                verdict = f"ERROR {r.detail}"
            lines.append(f"{r.source}: {verdict}{suffix}")
        if self.halted:
            lines.append(f"halted: {self.halt_reason}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The text ``json.dumps(doc, indent=2) + "\\n"`` gives for the report's
        document, written directly: each object name is encoded once, each
        distinct set is written once, and each name list is one join."""
        quoted = [_quote(name) for name in self.universe.objects]
        values, statements = cache(partial(json_masks, quoted)), []
        for r in self.results:
            value = "null" if r.value is None else values(r.value.nec, r.value.adm)
            statements.append(
                f'{{\n      "kind": {_quote(r.kind)},\n      "source": {_quote(r.source)},\n'
                f'      "ok": {_JSON_BOOL[r.ok]},\n      "value": {value},\n'
                f'      "detail": {_quote(r.detail)},\n'
                f'      "notes": {json_array(map(_quote, r.notes), " " * 8)}\n    }}'
            )
        return (
            f'{{\n  "universe": {json_array(quoted, "    ")},\n'
            f'  "statements": {json_array(statements, "    ")},\n'
            f'  "halted": {_JSON_BOOL[self.halted]},\n  "halt_reason": {_quote(self.halt_reason)},\n'
            f'  "halt_kind": {_quote(self.halt_kind)},\n  "ok": {_JSON_BOOL[self.all_ok]}\n}}\n'
        )


_JSON_BOOL = {True: "true", False: "false"}


def json_array(items: Iterable[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)`` lays
    it out with its items at ``indent``."""
    body = f",\n{indent}".join(items)
    return f"[\n{indent}{body}\n{indent[2:]}]" if body else "[]"


def json_masks(quoted: list[str], nec: int, adm: int) -> str:
    """The ``{"necessity", "admissibility"}`` object of the set with these masks,
    as name lists, laid out for a field of an array item; ``quoted`` holds the
    universe's object names, JSON-encoded, in index order."""
    def names(mask: int) -> str:
        return json_array(map(quoted.__getitem__, iter_bits(mask)), " " * 10)

    return (f'{{\n        "necessity": {names(nec)},\n'
            f'        "admissibility": {names(adm)}\n      }}')


class _Evaluator:
    """Runs programs with one loop over a stack of (necessity mask,
    admissibility mask, provenance) entries.

    The provenance is the single agent a value comes from, for priority
    policies; only a bare name keeps it.
    """

    def __init__(self, spec: ContradictionSpec, policy: ResolutionPolicy, env: dict[str, NegotiationSet]):
        self.spec, self.policy, self.universe = spec, policy, spec.universe
        for v in env.values():
            _same(v.universe, self.universe, "bindings and contradiction spec over different universes")
        # every name in env is an agent, its own provenance
        self.env = {name: (v.nec, v.adm, name) for name, v in env.items()}
        self.notes: list[str] = []

    def run(self, program: Program) -> tuple[int, int, str | None]:
        """The entry of a program's value; operands are evaluated left to
        right, and every n-ary item before the fold."""
        env, stack, full = self.env, [], self.universe.full_mask
        for item in program:
            if item.__class__ is tuple:
                op, k = item
                left, *items = stack[-k:]
                del stack[-k:]
                for right in items:
                    left = (*self.apply(op, left, right), None)
                stack.append((*left[:2], None))
            elif item == "not":
                nec, adm, _ = stack.pop()
                stack.append((*core.complement_masks(full, nec, adm), None))
            elif item in _MASK_OPS:
                right = stack.pop()
                stack.append((*self.apply(item, stack.pop(), right), None))
            else:
                try:
                    stack.append(env[item])
                except KeyError:
                    raise UnboundName(item) from None
        return stack[0]

    def apply(self, op: str, left, right) -> tuple[int, int]:
        """One step of ``op`` on two entries; ``odot`` goes through the policy
        when the spec declares relations."""
        if op != "odot" or self.spec.empty:
            return _MASK_OPS[op](left[0], left[1], right[0], right[1])
        outcome = resolve_odot(
            self.value(left), self.value(right), self.spec, self.policy, (left[2], right[2])
        )
        if not outcome.ok:
            raise ResolutionFailed(outcome.reason, outcome.pairs)
        if outcome.dropped:  # what the minimalization admits and the result does not
            dropped = " ".join(self.universe.names_of((left[1] | right[1]) & ~outcome.result.adm))
            self.notes.append(f"dropped {{{dropped}}}")
        return outcome.result.nec, outcome.result.adm

    def value(self, entry) -> NegotiationSet:
        return _from_masks(self.universe, entry[0], entry[1])

    def bind(self, stmt: Let) -> NegotiationSet:
        entry = self.env[stmt.name] = self.run(stmt.expr)
        return self.value(entry)


def eval_expr(
    program: Program,
    env: dict[str, NegotiationSet],
    spec: ContradictionSpec,
    policy: ResolutionPolicy = Strict(),
) -> NegotiationSet:
    """Evaluate one program against a plain name environment over the spec's universe.

    Every name in ``env`` is treated as an agent for provenance purposes.
    """
    ev = _Evaluator(spec, policy, env)
    return ev.value(ev.run(program))


def eval_bindings(script: SessionScript) -> list[tuple[str, NegotiationSet]]:
    """Every agent and ``let`` binding in script order, evaluated ungated (a
    spec with no relations: the raw algebra) by one evaluator."""
    ev = _Evaluator(make_contradiction_spec(script.universe), Strict(), dict(script.agents))
    named = list(script.agents)
    for stmt in script.statements:
        if isinstance(stmt, Let):
            named.append((stmt.name, ev.bind(stmt)))
    return named


def run_session(script: SessionScript) -> SessionReport:
    """Execute statements in order; expect failures continue, errors halt."""
    ev = _Evaluator(script.spec, script.policy, dict(script.agents))
    results = []
    for stmt in script.statements:
        ev.notes = []
        kind = _KIND[type(stmt)]
        try:
            if isinstance(stmt, Let):
                value = ev.bind(stmt)
                source = f"let {stmt.name}"
            else:
                value = ev.value(ev.run(stmt.expr))
                source = f"{kind} {print_expr(stmt.expr)}"
            ok, detail = True, ""
            if isinstance(stmt, AssertDisc):
                violations = disc_violations(value, ev.spec)
                ok, detail = not violations, "; ".join(str(v) for v in violations)
            elif isinstance(stmt, Expect) and value != stmt.target:
                ok = False
                detail = f"expected {format_negset(stmt.target)} got {format_negset(value)}"
            results.append(StatementResult(kind, source, ok, value, detail, tuple(ev.notes)))
        except NegsetError as exc:
            results.append(StatementResult(
                kind, print_statement(stmt), False, detail=str(exc), notes=tuple(ev.notes)
            ))
            halt = "resolution" if isinstance(exc, (ResolutionFailed, InputNotDisc)) else "error"
            return SessionReport(script.universe, tuple(results), True, str(exc), halt)
    return SessionReport(script.universe, tuple(results))
