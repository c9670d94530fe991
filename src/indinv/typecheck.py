"""Name resolution and type checking for protocols, grammars, and expressions.

Checking rewrites raw parser output (``Ident`` nodes) into resolved ASTs with
``BoundRef``/``StateRef``/``EnumLit`` nodes. Every error is a TypeCheckError
naming the offending expression and the expected/actual types.
"""
from __future__ import annotations

import warnings

from .errors import DuplicateSeedWarning, SpecError, TypeCheckError
from .syntax import (
    ActionDecl,
    BoolLit,
    BoolType,
    BoundRef,
    Card,
    CardType,
    ElemType,
    EnumLit,
    EnumType,
    Eq,
    Expr,
    GrammarConfig,
    Ident,
    Implies,
    InitDecl,
    InSet,
    MapIndex,
    MapLit,
    MapType,
    Maj,
    Ne,
    Not,
    And,
    Or,
    Protocol,
    Quant,
    Record,
    SetLit,
    SetOp,
    SetType,
    StateRef,
    Update,
    ValueType,
    canonical_text,
    canonicalize,
    to_str,
    type_str,
)


class _Scope(Record, frozen=False):
    sorts: frozenset[str]
    var_types: dict[str, ValueType]
    labels: dict[str, EnumType]
    bound: dict[str, str]
    allow_state: bool = True
    context: str = "expression"


def _err(scope: _Scope, expr: Expr, message: str) -> TypeCheckError:
    return TypeCheckError(f"in {scope.context}: {to_str(expr)}: {message}")


def _unify(a: ValueType, b: ValueType) -> ValueType | None:
    if a == b:
        return a
    if isinstance(a, SetType) and isinstance(b, SetType):
        if a.sort is None:
            return b
        if b.sort is None:
            return a
    return None


def check_expr(e: Expr, scope: _Scope) -> tuple[Expr, ValueType]:
    if isinstance(e, BoolLit):
        return e, BoolType()
    if isinstance(e, Ident):
        if e.name in scope.bound:
            return BoundRef(e.name), ElemType(scope.bound[e.name])
        if e.name in scope.var_types:
            if not scope.allow_state:
                raise _err(scope, e, "state variables may not appear here")
            return StateRef(e.name), scope.var_types[e.name]
        if e.name in scope.labels:
            return EnumLit(e.name), scope.labels[e.name]
        raise _err(scope, e, "unknown identifier")
    if isinstance(e, (BoundRef, StateRef, EnumLit)):
        # Programmatically built nodes: re-resolve through the Ident path so
        # the same scoping rules apply.
        return check_expr(Ident(e.name if not isinstance(e, EnumLit) else e.label), scope)
    if isinstance(e, MapIndex):
        mapping, mt = check_expr(e.mapping, scope)
        if not isinstance(mt, MapType):
            raise _err(scope, e, f"indexed a value of type {type_str(mt)}, expected a map")
        key, kt = check_expr(e.key, scope)
        if kt != ElemType(mt.index_sort):
            raise _err(
                scope, e,
                f"map index has type {type_str(kt)}, expected {mt.index_sort}",
            )
        return MapIndex(mapping, key), mt.elem
    if isinstance(e, SetLit):
        members = []
        sort: str | None = None
        for m in e.members:
            cm, mt = check_expr(m, scope)
            if not isinstance(mt, ElemType):
                raise _err(scope, e, f"set member has type {type_str(mt)}, expected a sort element")
            if sort is None:
                sort = mt.sort
            elif sort != mt.sort:
                raise _err(scope, e, f"set mixes elements of sorts {sort} and {mt.sort}")
            members.append(cm)
        return SetLit(tuple(members)), SetType(sort)
    if isinstance(e, SetOp):
        lhs, lt = check_expr(e.lhs, scope)
        rhs, rt = check_expr(e.rhs, scope)
        if not isinstance(lt, SetType) or not isinstance(rt, SetType):
            raise _err(
                scope, e,
                f"set operator applied to {type_str(lt)} and {type_str(rt)}",
            )
        t = _unify(lt, rt)
        if t is None:
            raise _err(scope, e, f"operand sets have different sorts: {type_str(lt)} vs {type_str(rt)}")
        return SetOp(e.op, lhs, rhs), t
    if isinstance(e, InSet):
        elem, et = check_expr(e.elem, scope)
        container, ct = check_expr(e.container, scope)
        if not isinstance(et, ElemType):
            raise _err(scope, e, f"membership tests a {type_str(et)}, expected a sort element")
        if not isinstance(ct, SetType):
            raise _err(scope, e, f"membership against {type_str(ct)}, expected a set")
        if ct.sort is not None and ct.sort != et.sort:
            raise _err(scope, e, f"element of sort {et.sort} tested against set<{ct.sort}>")
        return InSet(elem, container), BoolType()
    if isinstance(e, (Eq, Ne)):
        lhs, lt = check_expr(e.lhs, scope)
        rhs, rt = check_expr(e.rhs, scope)
        if _unify(lt, rt) is None:
            raise _err(
                scope, e,
                f"comparison between {type_str(lt)} and {type_str(rt)}",
            )
        node = Eq(lhs, rhs) if isinstance(e, Eq) else Ne(lhs, rhs)
        return node, BoolType()
    if isinstance(e, Card):
        arg, at = check_expr(e.arg, scope)
        if not isinstance(at, SetType):
            raise _err(scope, e, f"cardinality of {type_str(at)}, expected a set")
        return Card(arg), CardType()
    if isinstance(e, Maj):
        arg, at = check_expr(e.arg, scope)
        if not isinstance(at, SetType):
            raise _err(scope, e, f"majority test on {type_str(at)}, expected a set")
        if e.sort not in scope.sorts:
            raise _err(scope, e, f"undeclared sort {e.sort}")
        return Maj(arg, e.sort), BoolType()
    if isinstance(e, Not):
        arg, at = check_expr(e.arg, scope)
        if not isinstance(at, BoolType):
            raise _err(scope, e, f"negation of {type_str(at)}, expected bool")
        return Not(arg), BoolType()
    if isinstance(e, (And, Or)):
        args = []
        for a in e.args:
            ca, at = check_expr(a, scope)
            if not isinstance(at, BoolType):
                raise _err(scope, e, f"operand has type {type_str(at)}, expected bool")
            args.append(ca)
        return type(e)(tuple(args)), BoolType()
    if isinstance(e, Implies):
        lhs, lt = check_expr(e.lhs, scope)
        rhs, rt = check_expr(e.rhs, scope)
        if not isinstance(lt, BoolType) or not isinstance(rt, BoolType):
            raise _err(scope, e, "implication operands must be bool")
        return Implies(lhs, rhs), BoolType()
    if isinstance(e, Quant):
        if e.sort not in scope.sorts:
            raise _err(scope, e, f"quantifier over undeclared sort {e.sort}")
        self_shadow = (
            e.var in scope.bound or e.var in scope.var_types or e.var in scope.labels
        )
        if self_shadow:
            raise _err(scope, e, f"quantified variable {e.var} shadows another name")
        inner = _Scope(
            scope.sorts, scope.var_types, scope.labels,
            dict(scope.bound), scope.allow_state, scope.context,
        )
        inner.bound[e.var] = e.sort
        body, bt = check_expr(e.body, inner)
        if not isinstance(bt, BoolType):
            raise _err(scope, e, f"quantified body has type {type_str(bt)}, expected bool")
        return Quant(e.kind, e.var, e.sort, body), BoolType()
    if isinstance(e, MapLit):
        raise _err(scope, e, "map constructor is only allowed as an init right-hand side")
    raise TypeCheckError(f"in {scope.context}: unsupported expression node {e!r}")


def _check_closed_bool(e: Expr, scope: _Scope) -> Expr:
    checked, t = check_expr(e, scope)
    if not isinstance(t, BoolType):
        raise _err(scope, e, f"has type {type_str(t)}, expected bool")
    return checked


# ---------------------------------------------------------------------------
# Protocol checking


def _check_value_type(t: ValueType, sorts: frozenset[str], what: str) -> None:
    if isinstance(t, BoolType):
        return
    if isinstance(t, ElemType):
        if t.sort not in sorts:
            raise TypeCheckError(f"{what}: undeclared sort {t.sort}")
        return
    if isinstance(t, EnumType):
        if not t.labels:
            raise TypeCheckError(f"{what}: enum needs at least one label")
        if len(set(t.labels)) != len(t.labels):
            raise TypeCheckError(f"{what}: duplicate enum label")
        return
    if isinstance(t, SetType):
        if t.sort is None or t.sort not in sorts:
            raise TypeCheckError(f"{what}: undeclared sort {t.sort}")
        return
    if isinstance(t, MapType):
        if t.index_sort not in sorts:
            raise TypeCheckError(f"{what}: undeclared sort {t.index_sort}")
        if isinstance(t.elem, MapType):
            raise TypeCheckError(f"{what}: map values must be scalars or sets, not maps")
        _check_value_type(t.elem, sorts, what)
        return
    raise TypeCheckError(f"{what}: invalid type {type_str(t)}")


def check_protocol(raw: Protocol) -> Protocol:
    """Resolve and type-check a raw protocol, returning the checked AST."""
    sorts = frozenset(s.name for s in raw.sorts)
    if len(sorts) != len(raw.sorts):
        raise TypeCheckError("duplicate sort name")

    names: dict[str, str] = {s.name: "sort" for s in raw.sorts}

    def claim(name: str, kind: str) -> None:
        if name in names:
            raise TypeCheckError(f"duplicate name: {kind} {name} collides with {names[name]} {name}")
        names[name] = kind

    labels: dict[str, EnumType] = {}
    var_types: dict[str, ValueType] = {}
    for v in raw.vars:
        claim(v.name, "variable")
        _check_value_type(v.type, sorts, f"variable {v.name}")
        if isinstance(v.type, ElemType):  # no literal names an element, so no init fits
            raise TypeCheckError(
                f"variable {v.name}: a variable of sort {v.type.sort} cannot be initialized; "
                f"declare it as map<Sort> -> {v.type.sort} instead")
        var_types[v.name] = v.type
        enum = v.type.elem if isinstance(v.type, MapType) else v.type
        if isinstance(enum, EnumType):
            for label in enum.labels:
                claim(label, "enum label")
                labels[label] = enum
    for a in raw.actions:
        claim(a.name, "action")

    # init: exactly one per variable, closed over state
    inits_by_var: dict[str, InitDecl] = {}
    for init in raw.inits:
        if init.var not in var_types:
            raise TypeCheckError(f"init for undeclared variable {init.var}")
        if init.var in inits_by_var:
            raise TypeCheckError(f"variable {init.var} is initialized twice")
        inits_by_var[init.var] = init
    for v in raw.vars:
        if v.name not in inits_by_var:
            raise TypeCheckError(f"variable {v.name} is not covered by any init")

    checked_inits = []
    for v in raw.vars:
        init = inits_by_var[v.name]
        scope = _Scope(sorts, var_types, labels, {}, allow_state=False,
                       context=f"init {v.name}")
        if isinstance(init.expr, MapLit):
            if not isinstance(v.type, MapType):
                raise TypeCheckError(
                    f"init {v.name}: map constructor for non-map variable of type {type_str(v.type)}"
                )
            if init.expr.sort != v.type.index_sort:
                raise TypeCheckError(
                    f"init {v.name}: map constructor ranges over {init.expr.sort}, "
                    f"expected {v.type.index_sort}"
                )
            inner = _Scope(sorts, var_types, labels, {init.expr.var: init.expr.sort},
                           allow_state=False, context=f"init {v.name}")
            body, bt = check_expr(init.expr.body, inner)
            if _unify(bt, v.type.elem) is None:
                raise TypeCheckError(
                    f"init {v.name}: entry has type {type_str(bt)}, expected {type_str(v.type.elem)}"
                )
            checked_inits.append(InitDecl(v.name, MapLit(init.expr.var, init.expr.sort, body)))
        else:
            expr, t = check_expr(init.expr, scope)
            if _unify(t, v.type) is None:
                raise TypeCheckError(
                    f"init {v.name}: expression has type {type_str(t)}, expected {type_str(v.type)}"
                )
            checked_inits.append(InitDecl(v.name, expr))

    checked_actions = []
    for a in raw.actions:
        seen_params: set[str] = set()
        for pname, psort in a.params:
            if pname in seen_params:
                raise TypeCheckError(f"action {a.name}: duplicate parameter {pname}")
            if pname in names:
                raise TypeCheckError(
                    f"action {a.name}: parameter {pname} shadows a {names[pname]}"
                )
            if psort not in sorts:
                raise TypeCheckError(f"action {a.name}: parameter {pname} has undeclared sort {psort}")
            seen_params.add(pname)
        bound = {pname: psort for pname, psort in a.params}
        scope = _Scope(sorts, var_types, labels, bound, context=f"action {a.name}")
        guard = _check_closed_bool(a.guard, scope)
        targets: set[str] = set()
        checked_updates = []
        for u in a.updates:
            if u.target not in var_types:
                raise TypeCheckError(f"action {a.name}: update of undeclared variable {u.target}")
            if u.target in targets:
                raise TypeCheckError(
                    f"action {a.name}: variable {u.target} is updated more than once"
                )
            targets.add(u.target)
            vt = var_types[u.target]
            if u.index is not None:
                if not isinstance(vt, MapType):
                    raise TypeCheckError(
                        f"action {a.name}: indexed update of non-map variable {u.target}"
                    )
                index, it = check_expr(u.index, scope)
                if it != ElemType(vt.index_sort):
                    raise TypeCheckError(
                        f"action {a.name}: update index has type {type_str(it)}, "
                        f"expected {vt.index_sort}"
                    )
                expected: ValueType = vt.elem
            else:
                index = None
                expected = vt
                if isinstance(vt, MapType):
                    raise TypeCheckError(
                        f"action {a.name}: map variable {u.target} must be updated at an index"
                    )
            rhs, rt = check_expr(u.rhs, scope)
            if _unify(rt, expected) is None:
                raise TypeCheckError(
                    f"action {a.name}: update of {u.target} has type {type_str(rt)}, "
                    f"expected {type_str(expected)}"
                )
            checked_updates.append(Update(u.target, index, rhs))
        checked_actions.append(ActionDecl(a.name, a.params, guard, tuple(checked_updates)))

    safety_scope = _Scope(sorts, var_types, labels, {}, context=f"safety {raw.safety_name}")
    safety = _check_closed_bool(raw.safety, safety_scope)

    return Protocol(
        sorts=raw.sorts,
        vars=raw.vars,
        inits=tuple(checked_inits),
        actions=tuple(checked_actions),
        safety_name=raw.safety_name,
        safety=safety,
    )


# ---------------------------------------------------------------------------
# Grammar checking


def _protocol_scope(
    protocol: Protocol, bound: dict[str, str], context: str = "expression"
) -> _Scope:
    """Scope over a checked protocol's sorts, variables and enum labels."""
    labels: dict[str, EnumType] = {}
    for v in protocol.vars:
        enum = v.type.elem if isinstance(v.type, MapType) else v.type
        if isinstance(enum, EnumType):
            for label in enum.labels:
                labels[label] = enum
    var_types = {v.name: v.type for v in protocol.vars}
    return _Scope(frozenset(protocol.sort_names()), var_types, labels, dict(bound),
                  context=context)


def check_grammar(raw: GrammarConfig, protocol: Protocol) -> GrammarConfig:
    names = _protocol_scope(protocol, {})
    bound: dict[str, str] = {}
    for kind, var, sort in raw.template:
        if kind not in ("forall", "exists"):
            raise TypeCheckError(f"template: invalid quantifier {kind}")
        if sort not in names.sorts:
            raise TypeCheckError(f"template: quantifier over undeclared sort {sort}")
        if var in bound or var in names.var_types or var in names.labels or var in names.sorts:
            raise TypeCheckError(f"template: variable {var} shadows another name")
        bound[var] = sort

    seeds: list[Expr] = []
    seen: set[str] = set()
    for i, seed in enumerate(raw.seeds):
        scope = _protocol_scope(protocol, bound, f"seed {i + 1}")
        checked = canonicalize(_check_closed_bool(seed, scope))
        key, negation = to_str(checked), canonical_text(Not(checked))
        # a seed beside its negation adds only tautologies and 1-literal duplicates
        if key in seen or negation in seen:
            what = "a duplicate" if key in seen else f"the negation of seed {negation!r}"
            warnings.warn(f"seed {key!r} dropped: it is {what}", DuplicateSeedWarning, stacklevel=3)
            continue
        seen.add(key)
        seeds.append(checked)
    if not seeds:
        raise TypeCheckError("grammar needs at least one seed predicate")

    if not raw.max_terms:
        raise SpecError("max_terms schedule is empty")
    last = 0
    for n in raw.max_terms:
        if n <= last:
            raise SpecError("max_terms schedule must be strictly increasing and positive")
        last = n

    from .invgen import literal_sets

    checked = GrammarConfig(raw.template, tuple(seeds), raw.max_terms)
    for n in raw.max_terms:
        literal_sets(checked, min(n, len(seeds)))  # clamped as the loop clamps n; may raise
    return checked


def check_bool_expr(e: Expr, protocol: Protocol, bound: dict[str, str]) -> Expr:
    """Type-check a standalone boolean expression against a protocol."""
    return _check_closed_bool(e, _protocol_scope(protocol, bound))

