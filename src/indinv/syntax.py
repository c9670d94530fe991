"""AST and type definitions for the protocol and grammar languages.

Expression nodes are immutable dataclasses. The canonical printed form
(``to_str`` after ``canonicalize``) is the structural identity used for
deduplication and repository keys.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator


# ---------------------------------------------------------------------------
# Value types


class ValueType:
    """Base class for the types a state variable or expression can take."""


@dataclass(frozen=True)
class BoolType(ValueType):
    pass


@dataclass(frozen=True)
class ElemType(ValueType):
    sort: str


@dataclass(frozen=True)
class EnumType(ValueType):
    labels: tuple[str, ...]


@dataclass(frozen=True)
class SetType(ValueType):
    # sort is None for an empty-set literal whose element sort is not pinned
    # by context; such a value is necessarily empty.
    sort: str | None


@dataclass(frozen=True)
class MapType(ValueType):
    index_sort: str
    elem: ValueType


@dataclass(frozen=True)
class CardType(ValueType):
    """Type of a cardinality expression; not declarable for variables."""


def type_str(t: ValueType) -> str:
    if isinstance(t, BoolType):
        return "bool"
    if isinstance(t, ElemType):
        return t.sort
    if isinstance(t, EnumType):
        return "enum {%s}" % ", ".join(t.labels)
    if isinstance(t, SetType):
        return "set<%s>" % (t.sort if t.sort is not None else "?")
    if isinstance(t, MapType):
        return "map<%s> -> %s" % (t.index_sort, type_str(t.elem))
    if isinstance(t, CardType):
        return "cardinality"
    raise AssertionError(f"unknown type {t!r}")


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    """Base class for expression AST nodes."""


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Ident(Expr):
    """Unresolved name; only appears in parser output, never after checking."""

    name: str


@dataclass(frozen=True)
class BoundRef(Expr):
    """Reference to a quantifier, action-parameter, or template variable."""

    name: str


@dataclass(frozen=True)
class StateRef(Expr):
    name: str


@dataclass(frozen=True)
class EnumLit(Expr):
    label: str


@dataclass(frozen=True)
class MapIndex(Expr):
    mapping: Expr
    key: Expr


@dataclass(frozen=True)
class SetLit(Expr):
    members: tuple[Expr, ...]


@dataclass(frozen=True)
class SetOp(Expr):
    op: str  # one of '+', '-', '&'
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class InSet(Expr):
    elem: Expr
    container: Expr


@dataclass(frozen=True)
class Eq(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Ne(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Card(Expr):
    arg: Expr


@dataclass(frozen=True)
class Maj(Expr):
    """Strict majority: twice the cardinality of arg exceeds |sort domain|."""

    arg: Expr
    sort: str


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class And(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Implies(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Quant(Expr):
    kind: str  # 'forall' or 'exists'
    var: str
    sort: str
    body: Expr


@dataclass(frozen=True)
class MapLit(Expr):
    """Map constructor ``[forall x: Sort. body]``; one entry per element."""

    var: str
    sort: str
    body: Expr


def children(e: Expr) -> Iterator[Expr]:
    """e's direct subexpressions, in field order."""
    for field in vars(e).values():
        for c in field if isinstance(field, tuple) else (field,):
            if isinstance(c, Expr):
                yield c


def map_children(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """e with f applied to each direct subexpression, and to each element of
    a tuple field; a node with no subexpressions is returned unchanged."""
    if next(children(e), None) is None:
        return e
    return type(e)(*[
        tuple(map(f, x)) if isinstance(x, tuple) else f(x) if isinstance(x, Expr) else x
        for x in vars(e).values()
    ])


def reads(e: Expr, ref: type = StateRef) -> frozenset[str]:
    """The names of the state variables that evaluating e reads, or with
    ``ref=BoundRef`` the names of the bound variables it refers to."""
    if isinstance(e, ref):
        return frozenset([e.name])
    return frozenset().union(*(reads(c, ref) for c in children(e)))


# ---------------------------------------------------------------------------
# Printing
#
# Precedence levels, low to high. A child is parenthesized when its level is
# below the minimum its position requires, so printing round-trips.

_QUANT, _IMPL, _OR, _AND, _CMP, _ADD, _ISECT, _UNARY, _POSTFIX, _ATOM = range(10)


def _fmt(e: Expr, min_level: int) -> str:
    s, level = _fmt_level(e)
    if level < min_level:
        return "(%s)" % s
    return s


def _fmt_level(e: Expr) -> tuple[str, int]:
    if isinstance(e, BoolLit):
        return ("true" if e.value else "false"), _ATOM
    if isinstance(e, (Ident, BoundRef, StateRef)):
        return e.name, _ATOM
    if isinstance(e, EnumLit):
        return e.label, _ATOM
    if isinstance(e, MapIndex):
        return "%s[%s]" % (_fmt(e.mapping, _POSTFIX), _fmt(e.key, _QUANT)), _POSTFIX
    if isinstance(e, SetLit):
        return "{%s}" % ", ".join(_fmt(m, _QUANT) for m in e.members), _ATOM
    if isinstance(e, SetOp):
        if e.op == "&":
            return "%s & %s" % (_fmt(e.lhs, _ISECT), _fmt(e.rhs, _UNARY)), _ISECT
        return "%s %s %s" % (_fmt(e.lhs, _ADD), e.op, _fmt(e.rhs, _ISECT)), _ADD
    if isinstance(e, InSet):
        return "%s in %s" % (_fmt(e.elem, _ADD), _fmt(e.container, _ADD)), _CMP
    if isinstance(e, Eq):
        return "%s = %s" % (_fmt(e.lhs, _ADD), _fmt(e.rhs, _ADD)), _CMP
    if isinstance(e, Ne):
        return "%s != %s" % (_fmt(e.lhs, _ADD), _fmt(e.rhs, _ADD)), _CMP
    if isinstance(e, Card):
        return "|%s|" % _fmt(e.arg, _QUANT), _ATOM
    if isinstance(e, Maj):
        return "maj(%s, %s)" % (_fmt(e.arg, _QUANT), e.sort), _ATOM
    if isinstance(e, Not):
        return "~%s" % _fmt(e.arg, _UNARY), _UNARY
    if isinstance(e, And):
        return " /\\ ".join(_fmt(a, _CMP) for a in e.args), _AND
    if isinstance(e, Or):
        return " \\/ ".join(_fmt(a, _AND) for a in e.args), _OR
    if isinstance(e, Implies):
        return "%s -> %s" % (_fmt(e.lhs, _OR), _fmt(e.rhs, _IMPL)), _IMPL
    if isinstance(e, Quant):
        return "%s %s: %s. %s" % (e.kind, e.var, e.sort, _fmt(e.body, _QUANT)), _QUANT
    if isinstance(e, MapLit):
        return "[forall %s: %s. %s]" % (e.var, e.sort, _fmt(e.body, _QUANT)), _ATOM
    raise AssertionError(f"unknown expression {e!r}")


def to_str(e: Expr) -> str:
    """Render an expression in the concrete syntax; parses back identically."""
    return _fmt(e, _QUANT)


# ---------------------------------------------------------------------------
# Canonicalization


def canonicalize(e: Expr) -> Expr:
    """Deterministic normal form.

    Flattens nested conjunctions/disjunctions, orders their operands by
    printed form, drops duplicate operands, collapses double negation, and
    drops each quantifier whose body does not read its variable, which is
    exact since no domain is empty. Idempotent; no other code drops a
    quantifier.
    """
    if isinstance(e, Quant):
        body = canonicalize(e.body)
        return Quant(e.kind, e.var, e.sort, body) if e.var in reads(body, BoundRef) else body
    if isinstance(e, Not):
        arg = canonicalize(e.arg)
        if isinstance(arg, Not):
            return arg.arg
        return Not(arg)
    if isinstance(e, (And, Or)):
        kind = type(e)
        parts: list[Expr] = []
        for a in e.args:
            ca = canonicalize(a)
            if isinstance(ca, kind):
                parts.extend(ca.args)
            else:
                parts.append(ca)
        seen: dict[str, Expr] = {}
        for p in parts:
            seen.setdefault(to_str(p), p)
        ordered = [seen[k] for k in sorted(seen)]
        if len(ordered) == 1:
            return ordered[0]
        return kind(tuple(ordered))
    return map_children(e, canonicalize)


def canonical_text(e: Expr) -> str:
    return to_str(canonicalize(e))


# ---------------------------------------------------------------------------
# Protocol structure


@dataclass(frozen=True)
class SortDecl:
    name: str


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: ValueType


@dataclass(frozen=True)
class InitDecl:
    var: str
    expr: Expr


@dataclass(frozen=True)
class Update:
    target: str
    index: Expr | None
    rhs: Expr


@dataclass(frozen=True)
class ActionDecl:
    name: str
    params: tuple[tuple[str, str], ...]  # (name, sort)
    guard: Expr
    updates: tuple[Update, ...]


@dataclass(frozen=True)
class Protocol:
    sorts: tuple[SortDecl, ...]
    vars: tuple[VarDecl, ...]
    inits: tuple[InitDecl, ...]
    actions: tuple[ActionDecl, ...]
    safety_name: str
    safety: Expr

    def __post_init__(self):
        object.__setattr__(self, "_actions", {a.name: a for a in self.actions})

    def action(self, name: str) -> ActionDecl:
        return self._actions[name]

    def sort_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sorts)


@dataclass(frozen=True)
class GrammarConfig:
    template: tuple[tuple[str, str, str], ...]  # (quantifier kind, var, sort)
    seeds: tuple[Expr, ...]
    max_terms: tuple[int, ...]


# ---------------------------------------------------------------------------
# Protocol printing


def print_protocol(p: Protocol) -> str:
    lines: list[str] = []
    for s in p.sorts:
        lines.append(f"sort {s.name}")
    if p.sorts:
        lines.append("")
    for v in p.vars:
        lines.append(f"var {v.name} : {type_str(v.type)}")
    if p.vars:
        lines.append("")
    for init in p.inits:
        lines.append(f"init {init.var} = {to_str(init.expr)}")
    if p.inits:
        lines.append("")
    for a in p.actions:
        params = ", ".join(f"{n}: {s}" for n, s in a.params)
        lines.append(f"action {a.name}({params}) {{")
        lines.append(f"    require {to_str(a.guard)};")
        for u in a.updates:
            target = u.target if u.index is None else f"{u.target}[{to_str(u.index)}]"
            lines.append(f"    {target} := {to_str(u.rhs)};")
        lines.append("}")
        lines.append("")
    lines.append(f"safety {p.safety_name}: {to_str(p.safety)}")
    return "\n".join(lines) + "\n"
