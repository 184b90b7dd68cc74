"""Hybrid-logic formulas over the authorization graph.

A formula with k declared free variables denotes a k-ary graph predicate.
Arity-2 formulas (conventionally ``(resource, requestor)``) are
relationship predicates, the run-time membership tests of authorization
principals.

Concrete grammar (``!``, ``@x`` and ``<r>`` bind tighter than ``&``,
which binds tighter than ``|``)::

    formula := disj
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '!' unary | '@' IDENT unary | '<' '-'? IDENT '>' unary | primary
    primary := 'true' | 'false' | IDENT | '(' formula ')'
    IDENT   := [A-Za-z][A-Za-z0-9_-]*

``<r>`` steps along outgoing r-edges, ``<-r>`` along incoming ones.  The
top level of a formula must be a Boolean combination of ``@x``-rooted
subtrees (the anchored restriction), which makes evaluation independent
of any initial world.

A ``Formula`` validates itself once, when it is constructed, and is
immutable after; ``evaluate`` is pure given a stable graph snapshot and
is safe for concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ArityMismatch, NotAnchored, ParseError, UnknownVariable
from .graph import AuthorizationGraph

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")

Node = Union["Const", "Var", "Not", "And", "Or", "Diamond", "At"]


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    sub: Node


@dataclass(frozen=True)
class And:
    left: Node
    right: Node


@dataclass(frozen=True)
class Or:
    left: Node
    right: Node


@dataclass(frozen=True)
class Diamond:
    rel: str
    inverse: bool
    sub: Node


@dataclass(frozen=True)
class At:
    var: str
    sub: Node


@dataclass(frozen=True)
class Formula:
    """AST plus its declared free variables, in order; construction runs
    ``validate``, so every Formula is anchored and uses only its vars."""

    vars: tuple[str, ...]
    body: Node

    def __post_init__(self):
        validate(self)

    @property
    def arity(self) -> int:
        return len(self.vars)


FormulaLibrary = dict[str, Formula]

# Valuation: free-variable name -> vertex id, total over Formula.vars.
Valuation = Mapping[str, str]


def is_anchored(node: Node) -> bool:
    """True if the node is a Boolean combination of @-rooted subtrees."""
    if isinstance(node, (At, Const)):
        return True
    if isinstance(node, Not):
        return is_anchored(node.sub)
    if isinstance(node, (And, Or)):
        return is_anchored(node.left) and is_anchored(node.right)
    return False


def _names_used(node: Node, acc: set[str]) -> None:
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, At):
        acc.add(node.var)
        _names_used(node.sub, acc)
    elif isinstance(node, Not):
        _names_used(node.sub, acc)
    elif isinstance(node, Diamond):
        _names_used(node.sub, acc)
    elif isinstance(node, (And, Or)):
        _names_used(node.left, acc)
        _names_used(node.right, acc)


def validate(formula: Formula) -> None:
    """Check declared-variable use and the anchored restriction."""
    for v in formula.vars:
        if not _IDENT.fullmatch(v):
            raise UnknownVariable(f"invalid variable name {v!r}")
    if len(set(formula.vars)) != len(formula.vars):
        raise UnknownVariable("duplicate declared variable")
    used: set[str] = set()
    _names_used(formula.body, used)
    undeclared = used - set(formula.vars)
    if undeclared:
        raise UnknownVariable(f"undeclared variable {sorted(undeclared)[0]!r}")
    if not is_anchored(formula.body):
        raise NotAnchored("top level must be a Boolean combination of @-anchored parts")


# --- parsing ---

_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_-]*)|([@<>\-!&|()]))")

# Deepest nesting of unary operators and parentheses the parser accepts.
# Corpus formulas nest about six levels; the cap keeps the recursive
# parser, validator and evaluator well inside Python's recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1) is not None:
            tokens.append(("ident", m.group(1), m.start(1)))
        else:
            tokens.append((m.group(2), m.group(2), m.start(2)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._i = 0
        self._depth = 0

    def _peek(self):
        return self._tokens[self._i]

    def _next(self):
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str, what: str):
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def formula(self) -> Node:
        node = self._disj()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def _disj(self) -> Node:
        node = self._conj()
        while self._peek()[0] == "|":
            self._next()
            node = Or(node, self._conj())
        return node

    def _conj(self) -> Node:
        node = self._unary()
        while self._peek()[0] == "&":
            self._next()
            node = And(node, self._unary())
        return node

    def _unary(self) -> Node:
        kind, _, pos = self._peek()
        if self._depth >= MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        self._depth += 1
        try:
            return self._nested(kind)
        finally:
            self._depth -= 1

    def _nested(self, kind: str) -> Node:
        if kind == "!":
            self._next()
            return Not(self._unary())
        if kind == "@":
            self._next()
            name = self._expect("ident", "a variable name")[1]
            return At(name, self._unary())
        if kind == "<":
            self._next()
            inverse = False
            if self._peek()[0] == "-":
                self._next()
                inverse = True
            rel = self._expect("ident", "a relation name")[1]
            self._expect(">", "'>'")
            return Diamond(rel, inverse, self._unary())
        return self._primary()

    def _primary(self) -> Node:
        kind, value, pos = self._next()
        if kind == "ident":
            if value == "true":
                return Const(True)
            if value == "false":
                return Const(False)
            return Var(value)
        if kind == "(":
            node = self._disj()
            self._expect(")", "')'")
            return node
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str, vars: list[str] | tuple[str, ...]) -> Formula:
    """Parse formula text into a (self-validating) Formula."""
    return Formula(tuple(vars), _Parser(text).formula())


# --- unparsing ---

_PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _prec(node: Node) -> int:
    if isinstance(node, Or):
        return _PREC_OR
    if isinstance(node, And):
        return _PREC_AND
    if isinstance(node, (Not, At, Diamond)):
        return _PREC_UNARY
    return _PREC_ATOM


def _render(node: Node, floor: int) -> str:
    if isinstance(node, Const):
        text = "true" if node.value else "false"
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Not):
        text = "!" + _render(node.sub, _PREC_UNARY)
    elif isinstance(node, At):
        text = f"@{node.var} " + _render(node.sub, _PREC_UNARY)
    elif isinstance(node, Diamond):
        arrow = "-" if node.inverse else ""
        text = f"<{arrow}{node.rel}> " + _render(node.sub, _PREC_UNARY)
    elif isinstance(node, And):
        # left-associative: parenthesize a right-nested And to round-trip
        left = _render(node.left, _PREC_AND)
        right = _render(node.right, _PREC_AND + 1)
        text = f"{left} & {right}"
    else:
        left = _render(node.left, _PREC_OR)
        right = _render(node.right, _PREC_OR + 1)
        text = f"{left} | {right}"
    if _prec(node) < floor:
        return f"({text})"
    return text


def unparse(formula: Formula) -> str:
    return _render(formula.body, 0)


# --- evaluation ---


def evaluate(formula: Formula, g: AuthorizationGraph, valuation: Valuation) -> bool:
    """Local model check of a formula under a total valuation."""
    for v in formula.vars:
        if v not in valuation:
            raise UnknownVariable(f"valuation missing {v!r}")
    with g.read():
        return _eval(formula.body, g, valuation, None)


def _eval(node: Node, g: AuthorizationGraph, val: Valuation, world: str | None) -> bool:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return world == val[node.name]
    if isinstance(node, Not):
        return not _eval(node.sub, g, val, world)
    if isinstance(node, And):
        return _eval(node.left, g, val, world) and _eval(node.right, g, val, world)
    if isinstance(node, Or):
        return _eval(node.left, g, val, world) or _eval(node.right, g, val, world)
    if isinstance(node, At):
        return _eval(node.sub, g, val, val[node.var])
    # Diamond
    g._check_query(world, node.rel)
    neighbors = g._in(world, node.rel) if node.inverse else g._out(world, node.rel)
    sub = node.sub
    if isinstance(sub, Var):
        return val[sub.name] in neighbors
    return any(_eval(sub, g, val, w) for w in neighbors)


def relationship_predicate(formula: Formula, g: AuthorizationGraph,
                           resource: str, requestor: str) -> bool:
    """Evaluate an arity-2 predicate, binding (resource, requestor) by position."""
    if formula.arity != 2:
        raise ArityMismatch(f"relationship predicate needs 2 variables, got {formula.arity}")
    return evaluate(formula, g, {formula.vars[0]: resource, formula.vars[1]: requestor})
