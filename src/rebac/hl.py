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

A ``Formula`` validates itself and compiles its body into closures over a
valuation tuple once, when it is constructed, and is immutable after.
``evaluate`` and ``relationship_predicate`` run the compiled form inside
a section of the graph that the caller holds; they open none themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

from .errors import ArityMismatch, NotAnchored, ParseError, UnknownVariable
from .graph import IDENT, AuthorizationGraph

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
    """AST plus its declared free variables, in order.  Construction runs
    ``validate``, so every Formula is anchored and uses only its vars, and
    then compiles the body once into ``holds``, the form every evaluation
    runs, collecting the relations its diamonds step along."""

    vars: tuple[str, ...]
    body: Node
    holds: Compiled = field(init=False, repr=False, compare=False)
    relations: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate(self)
        slot = {v: i for i, v in enumerate(self.vars)}
        relations: set[str] = set()
        object.__setattr__(self, "holds", _compile(self.body, slot, relations))
        object.__setattr__(self, "relations", frozenset(relations))

    @property
    def arity(self) -> int:
        return len(self.vars)


FormulaLibrary = dict[str, Formula]

# Valuation: free-variable name -> vertex id, total over Formula.vars.
Valuation = Mapping[str, str]


def _check(node: Node, declared: frozenset[str], top: bool) -> None:
    """Raise UnknownVariable for a ``Var`` or ``@x`` name not in ``declared``,
    and NotAnchored for a ``Var`` or diamond in the Boolean top level."""
    if top and isinstance(node, (Var, Diamond)):
        raise NotAnchored("top level must be a Boolean combination of @-anchored parts")
    if isinstance(node, (Var, At)):
        name = node.name if isinstance(node, Var) else node.var
        if name not in declared:
            raise UnknownVariable(f"undeclared variable {name!r}")
    if isinstance(node, (And, Or)):
        _check(node.left, declared, top)
        _check(node.right, declared, top)
    elif isinstance(node, (Not, Diamond, At)):
        _check(node.sub, declared, top and isinstance(node, Not))


def validate(formula: Formula) -> None:
    """Check declared-variable use and the anchored restriction."""
    for v in formula.vars:
        # `true` and `false` parse as constants, so they cannot name a variable
        if not IDENT.fullmatch(v) or v in ("true", "false"):
            raise UnknownVariable(f"invalid variable name {v!r}")
    declared = frozenset(formula.vars)
    if len(declared) != len(formula.vars):
        raise UnknownVariable("duplicate declared variable")
    _check(formula.body, declared, True)


# --- parsing ---

_TOKEN = re.compile(rf"\s*(?:({IDENT.pattern})|([@<>\-!&|()]))")

# Deepest nesting the parser accepts, counting unary operators, parentheses
# and the links of `|` and `&` chains (one tree level each), so no parsed
# tree is deeper.  Corpus formulas nest about six levels; the cap keeps the
# recursive parser, validator, compiler and compiled closures inside Python's recursion limit.
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

    def _check_nesting(self, levels: int, pos: int) -> None:
        if levels > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)

    def formula(self) -> Node:
        node, _ = self._disj()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    # Each method below returns a subtree and its height in nodes.

    def _disj(self) -> tuple[Node, int]:
        return self._chain("|", Or, self._conj)

    def _conj(self) -> tuple[Node, int]:
        return self._chain("&", And, self._unary)

    def _chain(self, op: str, join: type[Or] | type[And],
               operand: Callable[[], tuple[Node, int]]) -> tuple[Node, int]:
        """A left-deep chain of operands joined by ``op``; the enclosing
        levels plus its height stay within the cap."""
        node, height = operand()
        while self._peek()[0] == op:
            pos = self._next()[2]
            right, right_height = operand()
            node, height = join(node, right), 1 + max(height, right_height)
            self._check_nesting(self._depth + height, pos)
        return node, height

    def _unary(self) -> tuple[Node, int]:
        kind, _, pos = self._peek()
        self._check_nesting(self._depth + 1, pos)
        self._depth += 1
        try:
            return self._nested(kind)
        finally:
            self._depth -= 1

    def _nested(self, kind: str) -> tuple[Node, int]:
        if kind == "!":
            self._next()
            sub, height = self._unary()
            return Not(sub), height + 1
        if kind == "@":
            self._next()
            name = self._expect("ident", "a variable name")[1]
            sub, height = self._unary()
            return At(name, sub), height + 1
        if kind == "<":
            self._next()
            inverse = False
            if self._peek()[0] == "-":
                self._next()
                inverse = True
            rel = self._expect("ident", "a relation name")[1]
            self._expect(">", "'>'")
            sub, height = self._unary()
            return Diamond(rel, inverse, sub), height + 1
        return self._primary()

    def _primary(self) -> tuple[Node, int]:
        kind, value, pos = self._next()
        if kind == "ident":
            if value == "true":
                return Const(True), 1
            if value == "false":
                return Const(False), 1
            return Var(value), 1
        if kind == "(":
            inner = self._disj()
            self._expect(")", "')'")
            return inner
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str, vars: list[str] | tuple[str, ...]) -> Formula:
    """Parse formula text into a (self-validating) Formula."""
    return Formula(tuple(vars), _Parser(text).formula())


# --- unparsing ---

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def _render(node: Node, floor: int) -> str:
    """Text of ``node``, parenthesized if it binds looser than ``floor``.

    Unary operators bind tightest and ``floor`` never exceeds
    ``_PREC_UNARY``, so only ``&`` and ``|`` ever need parentheses."""
    if isinstance(node, Const):
        return "true" if node.value else "false"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Not):
        return "!" + _render(node.sub, _PREC_UNARY)
    if isinstance(node, At):
        return f"@{node.var} " + _render(node.sub, _PREC_UNARY)
    if isinstance(node, Diamond):
        arrow = "-" if node.inverse else ""
        return f"<{arrow}{node.rel}> " + _render(node.sub, _PREC_UNARY)
    # left-associative: parenthesize a right-nested chain to round-trip
    prec, op = (_PREC_AND, "&") if isinstance(node, And) else (_PREC_OR, "|")
    text = f"{_render(node.left, prec)} {op} {_render(node.right, prec + 1)}"
    return f"({text})" if prec < floor else text


def unparse(formula: Formula) -> str:
    return _render(formula.body, 0)


# --- evaluation ---

# (graph, vertices bound to Formula.vars in order, world) -> holds
Compiled = Callable[[AuthorizationGraph, tuple[str, ...], Union[str, None]], bool]


def _compile(node: Node, slot: Mapping[str, int], relations: set[str]) -> Compiled:
    """Nested closures for ``node``, variable names resolved to valuation
    positions once, here; each diamond's relation is added to
    ``relations``.  A diamond only looks up neighbours: ``_run`` checked the
    valuation and the relations on entry, and every neighbour is a vertex."""
    if isinstance(node, Const):
        value = node.value
        return lambda g, val, w: value
    if isinstance(node, Var):
        i = slot[node.name]
        return lambda g, val, w: w == val[i]
    if isinstance(node, At):
        i, sub = slot[node.var], _compile(node.sub, slot, relations)
        return lambda g, val, w: sub(g, val, val[i])
    if isinstance(node, Not):
        sub = _compile(node.sub, slot, relations)
        return lambda g, val, w: not sub(g, val, w)
    if isinstance(node, (And, Or)):
        left, right = _compile(node.left, slot, relations), _compile(node.right, slot, relations)
        if isinstance(node, And):
            return lambda g, val, w: left(g, val, w) and right(g, val, w)
        return lambda g, val, w: left(g, val, w) or right(g, val, w)
    rel, inverse = node.rel, node.inverse
    relations.add(rel)
    if isinstance(node.sub, Var):  # <r> x: one membership test
        i = slot[node.sub.name]
        return lambda g, val, w: val[i] in (g._in(w, rel) if inverse else g._out(w, rel))
    sub = _compile(node.sub, slot, relations)
    return lambda g, val, w: any(sub(g, val, v)
                                 for v in (g._in(w, rel) if inverse else g._out(w, rel)))


def _run(formula: Formula, g: AuthorizationGraph, vertices: tuple[str, ...]) -> bool:
    """The one evaluation entry: check the valuation's vertices and the
    formula's relations once, inside the caller's section, then run it."""
    g._check_query(vertices, formula.relations)
    return formula.holds(g, vertices, None)


def evaluate(formula: Formula, g: AuthorizationGraph, valuation: Valuation) -> bool:
    """Local model check under a total valuation, in the caller's section."""
    for v in formula.vars:
        if v not in valuation:
            raise UnknownVariable(f"valuation missing {v!r}")
    return _run(formula, g, tuple(valuation[v] for v in formula.vars))


def relationship_predicate(formula: Formula, g: AuthorizationGraph,
                           resource: str, requestor: str) -> bool:
    """Evaluate an arity-2 predicate over (resource, requestor), in the caller's section."""
    if formula.arity != 2:
        raise ArityMismatch(f"relationship predicate needs 2 variables, got {formula.arity}")
    return _run(formula, g, (resource, requestor))
