"""AST and type definitions for the protocol and grammar languages.

Expression nodes are frozen records (``Record``). The canonical printed form
(``to_str`` after ``canonicalize``) is the structural identity used for
deduplication and repository keys.
"""
from __future__ import annotations

from typing import Callable, Iterator


class Record:
    """Base of the engine's record classes, built without generating code.

    A subclass's own annotations, in order, are its fields, and a value in
    the class body is a field's default. Records are built positionally or
    by keyword, keep their fields in ``__dict__`` in field order, and run
    ``__post_init__`` last. Records are equal when of the same class with
    equal fields, leaving out ``hidden`` ones, which ``repr`` also omits. A
    frozen record (the default) hashes as that tuple and refuses assignment;
    one with ``frozen=False`` is unhashable. ``State`` and ``MapV``, which the
    codec builds by the thousand, define their own ``__init__``: the generic
    one takes about twice as long.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, frozen: bool = True, hidden: tuple[str, ...] = ()) -> None:
        own = vars(cls).get("__annotations__", {})
        cls._fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._compared = tuple(n for n in cls._fields if n not in hidden)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in field order, from args, kwargs and defaults."""
        fields, given = self._fields, dict(zip(self._fields, args))
        if len(args) > len(fields) or given.keys() & kwargs or kwargs.keys() - set(fields):
            raise TypeError(f"{type(self).__name__} takes fields {fields}, not {args}, {kwargs}")
        values = {**self._defaults, **given, **kwargs}
        if len(values) < len(fields):
            raise TypeError(f"{type(self).__name__} is missing fields {set(fields) - values.keys()}")
        return [values[n] for n in fields]

    def __post_init__(self) -> None:
        """Checks or derives fields once they are set; a no-op here."""

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._compared))

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


# ---------------------------------------------------------------------------
# Value types


class ValueType(Record):
    """Base class for the types a state variable or expression can take."""


class BoolType(ValueType):
    pass


class ElemType(ValueType):
    sort: str


class EnumType(ValueType):
    labels: tuple[str, ...]


class SetType(ValueType):
    # sort is None for an empty-set literal whose element sort is not pinned
    # by context; such a value is necessarily empty.
    sort: str | None


class MapType(ValueType):
    index_sort: str
    elem: ValueType


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


class Expr(Record):
    """Base class for expression AST nodes."""


class BoolLit(Expr):
    value: bool


class Ident(Expr):
    """Unresolved name; only appears in parser output, never after checking."""

    name: str


class BoundRef(Expr):
    """Reference to a quantifier, action-parameter, or template variable."""

    name: str


class StateRef(Expr):
    name: str


class EnumLit(Expr):
    label: str


class MapIndex(Expr):
    mapping: Expr
    key: Expr


class SetLit(Expr):
    members: tuple[Expr, ...]


class SetOp(Expr):
    op: str  # one of '+', '-', '&'
    lhs: Expr
    rhs: Expr


class InSet(Expr):
    elem: Expr
    container: Expr


class Eq(Expr):
    lhs: Expr
    rhs: Expr


class Ne(Expr):
    lhs: Expr
    rhs: Expr


class Card(Expr):
    arg: Expr


class Maj(Expr):
    """Strict majority: twice the cardinality of arg exceeds |sort domain|."""

    arg: Expr
    sort: str


class Not(Expr):
    arg: Expr


class And(Expr):
    args: tuple[Expr, ...]


class Or(Expr):
    args: tuple[Expr, ...]


class Implies(Expr):
    lhs: Expr
    rhs: Expr


class Quant(Expr):
    kind: str  # 'forall' or 'exists'
    var: str
    sort: str
    body: Expr


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


class SortDecl(Record):
    name: str


class VarDecl(Record):
    name: str
    type: ValueType


class InitDecl(Record):
    var: str
    expr: Expr


class Update(Record):
    target: str
    index: Expr | None
    rhs: Expr


class ActionDecl(Record):
    name: str
    params: tuple[tuple[str, str], ...]  # (name, sort)
    guard: Expr
    updates: tuple[Update, ...]


class Protocol(Record):
    sorts: tuple[SortDecl, ...]
    vars: tuple[VarDecl, ...]
    inits: tuple[InitDecl, ...]
    actions: tuple[ActionDecl, ...]
    safety_name: str
    safety: Expr

    def sort_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sorts)


class GrammarConfig(Record):
    template: tuple[tuple[str, str, str], ...]  # (quantifier kind, var, sort)
    seeds: tuple[Expr, ...]
    max_terms: tuple[int, ...]
