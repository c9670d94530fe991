"""Expression evaluation and successor computation on finite instances.

Evaluation compiles a type-checked expression once, for one instance and
one state schema, into a tree of Python closures: ``compile_expr`` looks up
each AST node's type in ``_COMPILERS``, whose entry compiles the children and
returns a closure ``f(state, env)`` that calls theirs. Everything the node
needs that does not depend on the state (domains, majority thresholds,
variable positions, literal values) is resolved at compile time, so a call
does no dispatch on node types. A map lookup ``v[k]`` on a state variable
reads the entry at the key's position in the index domain, since map entries
stay in domain order. Hot loops compile once and call the closure per state;
``evaluate`` and ``holds`` compile and call for one-shot use.

An action's guard and updates are compiled once per (protocol, instance)
pair, behind an identity check, into ``firings``: one per action and
binding. ``enabled`` lists the firings whose guard holds in a state without
building any post-state, so a random walk can pick one and apply only that;
``successors`` applies all of them. Each cache here keeps one entry, read
and replaced as a whole.

All functions here are pure over immutable inputs. Updates within an action
are applied simultaneously: every right-hand side is evaluated in the
pre-state, so update order never matters.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from .instance import (
    Instance,
    MapV,
    State,
    StateSchema,
    Value,
    fingerprint,
    state_schema,
)
from .syntax import (
    ActionDecl,
    And,
    BoolLit,
    BoundRef,
    Card,
    EnumLit,
    Eq,
    Expr,
    Ident,
    Implies,
    InSet,
    MapIndex,
    MapLit,
    Maj,
    Ne,
    Not,
    Or,
    Protocol,
    Quant,
    SetLit,
    SetOp,
    StateRef,
    children,
)

Env = dict[str, str]
Binding = tuple[tuple[str, str], ...]  # (parameter, element)
Compiled = Callable[[State, Env], Value]


@dataclass(frozen=True)
class Transition:
    action: str
    binding: Binding
    pre_fingerprint: int
    post: State


# ---------------------------------------------------------------------------
# Expression compiler


# A plain class, not a dataclass, keeps this module's import cheap: a
# dataclass costs about a millisecond to create, and start-up is measured.


class _Ctx:
    """What compiled closures may depend on besides their own node."""

    __slots__ = ("instance", "schema")

    def __init__(self, instance: Instance, schema: StateSchema | None) -> None:
        self.instance = instance
        self.schema = schema


def _const(value):
    return lambda s, env: value


def _c_bool(e: BoolLit, ctx: _Ctx) -> Compiled:
    return _const(e.value)


def _c_bound(e: BoundRef, ctx: _Ctx) -> Compiled:
    name = e.name
    return lambda s, env: env[name]


def _c_state(e: StateRef, ctx: _Ctx) -> Compiled:
    i = ctx.schema.index(e.name)
    return lambda s, env: s.values[i]


def _c_enum(e: EnumLit, ctx: _Ctx) -> Compiled:
    return _const(e.label)


def _c_index(e: MapIndex, ctx: _Ctx) -> Compiled:
    # After type checking only state variables are maps (map values are
    # scalars or sets, and map constructors appear only in inits).
    i = ctx.schema.index(e.mapping.name)
    index_sort = ctx.schema.types[i].index_sort
    pos = {k: p for p, k in enumerate(ctx.instance.domain(index_sort))}
    key = _compile(e.key, ctx)
    return lambda s, env: s.values[i].entries[pos[key(s, env)]][1]


def _c_setlit(e: SetLit, ctx: _Ctx) -> Compiled:
    if not e.members:
        return _const(frozenset())
    members = [_compile(m, ctx) for m in e.members]
    return lambda s, env: frozenset([m(s, env) for m in members])


def _binary(op: Callable, lhs_e: Expr, rhs_e: Expr, ctx: _Ctx) -> Compiled:
    lhs = _compile(lhs_e, ctx)
    rhs = _compile(rhs_e, ctx)
    return lambda s, env: op(lhs(s, env), rhs(s, env))


_SET_OPS = {"+": operator.or_, "-": operator.sub, "&": operator.and_}


def _c_setop(e: SetOp, ctx: _Ctx) -> Compiled:
    return _binary(_SET_OPS[e.op], e.lhs, e.rhs, ctx)


def _c_in(e: InSet, ctx: _Ctx) -> Compiled:
    return _binary(operator.contains, e.container, e.elem, ctx)


def _c_eq(e: Eq, ctx: _Ctx) -> Compiled:
    return _binary(operator.eq, e.lhs, e.rhs, ctx)


def _c_ne(e: Ne, ctx: _Ctx) -> Compiled:
    return _binary(operator.ne, e.lhs, e.rhs, ctx)


def _c_card(e: Card, ctx: _Ctx) -> Compiled:
    arg = _compile(e.arg, ctx)
    return lambda s, env: len(arg(s, env))


def _c_maj(e: Maj, ctx: _Ctx) -> Compiled:
    arg = _compile(e.arg, ctx)
    size = len(ctx.instance.domain(e.sort))
    return lambda s, env: 2 * len(arg(s, env)) > size


def _c_not(e: Not, ctx: _Ctx) -> Compiled:
    arg = _compile(e.arg, ctx)
    return lambda s, env: not arg(s, env)


# Operands are bools after type checking. A loop, not all()/any() over a
# generator, since And and Or are evaluated millions of times per run and a
# generator costs an allocation each time.


def _c_and(e: And, ctx: _Ctx) -> Compiled:
    args = [_compile(a, ctx) for a in e.args]

    def conj(s, env):
        for a in args:
            if not a(s, env):
                return False
        return True
    return conj


def _c_or(e: Or, ctx: _Ctx) -> Compiled:
    args = [_compile(a, ctx) for a in e.args]

    def disj(s, env):
        for a in args:
            if a(s, env):
                return True
        return False
    return disj


def _c_implies(e: Implies, ctx: _Ctx) -> Compiled:
    lhs = _compile(e.lhs, ctx)
    rhs = _compile(e.rhs, ctx)
    return lambda s, env: not lhs(s, env) or rhs(s, env)


def _c_quant(e: Quant, ctx: _Ctx) -> Compiled:
    dom = ctx.instance.domain(e.sort)
    var = e.var
    body = _compile(e.body, ctx)
    if e.kind == "forall":
        def forall(s, env):
            for elem in dom:
                env[var] = elem
                if not body(s, env):
                    del env[var]
                    return False
            env.pop(var, None)
            return True
        return forall

    def exists(s, env):
        for elem in dom:
            env[var] = elem
            if body(s, env):
                del env[var]
                return True
        env.pop(var, None)
        return False
    return exists


def _c_maplit(e: MapLit, ctx: _Ctx) -> Compiled:
    dom = ctx.instance.domain(e.sort)
    var = e.var
    body = _compile(e.body, ctx)

    def maplit(s, env):
        entries = []
        for elem in dom:
            env[var] = elem
            entries.append((elem, body(s, env)))
        env.pop(var, None)
        return MapV(tuple(entries))
    return maplit


def _c_ident(e: Ident, ctx: _Ctx) -> Compiled:
    def unresolved(s, env):
        raise AssertionError(f"unresolved identifier {e.name!r} reached evaluation")
    return unresolved


_COMPILERS: dict[type, Callable[[Expr, _Ctx], Compiled]] = {
    BoolLit: _c_bool,
    BoundRef: _c_bound,
    StateRef: _c_state,
    EnumLit: _c_enum,
    MapIndex: _c_index,
    SetLit: _c_setlit,
    SetOp: _c_setop,
    InSet: _c_in,
    Eq: _c_eq,
    Ne: _c_ne,
    Card: _c_card,
    Maj: _c_maj,
    Not: _c_not,
    And: _c_and,
    Or: _c_or,
    Implies: _c_implies,
    Quant: _c_quant,
    MapLit: _c_maplit,
    Ident: _c_ident,
}


def _compile(e: Expr, ctx: _Ctx) -> Compiled:
    return _COMPILERS[type(e)](e, ctx)


def compile_expr(
    expr: Expr, instance: Instance, schema: StateSchema | None = None
) -> Compiled:
    """Closure f(state, env) computing a type-checked expression's value.

    The closure is specific to the instance's domains and, when a schema is
    given, to states of that schema. Quantifiers bind their variables in the
    env the call is given.
    """
    return _compile(expr, _Ctx(instance, schema))


def _binds(e: Expr) -> bool:
    """Whether evaluating e writes quantifier or map-constructor variables."""
    return isinstance(e, (Quant, MapLit)) or any(map(_binds, children(e)))


def evaluate(expr: Expr, state: State | None, env: Env, instance: Instance) -> Value:
    """Value of a type-checked expression; quantifiers expand over domains."""
    schema = state.schema if state is not None else None
    return compile_expr(expr, instance, schema)(state, env)


def holds(expr: Expr, state: State, instance: Instance) -> bool:
    """Whether a closed boolean expression is satisfied in a state."""
    return evaluate(expr, state, {}, instance) is True


def initial_state(protocol: Protocol, instance: Instance) -> State:
    """The unique initial state (init is a deterministic assignment)."""
    schema = state_schema(protocol)
    by_var = {init.var: init.expr for init in protocol.inits}
    values = tuple(evaluate(by_var[name], None, {}, instance) for name in schema.names)
    return State(schema, values)


# ---------------------------------------------------------------------------
# Actions


Apply = Callable[[State, Env], State]  # post-state of an action under an env
Firing = tuple[str, Apply, Binding, Env]  # (action name, apply, binding, env)


def _private_env(f: Compiled) -> Compiled:
    # Firings share their env dicts across calls, so an expression that
    # writes variables into its env gets a copy.
    return lambda s, env: f(s, dict(env))


def _compile_part(e: Expr, instance: Instance, schema: StateSchema) -> Compiled:
    f = compile_expr(e, instance, schema)
    return _private_env(f) if _binds(e) else f


def _compile_apply(action: ActionDecl, instance: Instance, schema: StateSchema) -> Apply:
    updates = []
    for u in action.updates:
        i = schema.index(u.target)
        rhs = _compile_part(u.rhs, instance, schema)
        if u.index is None:
            updates.append((i, rhs, None, None))
        else:
            key = _compile_part(u.index, instance, schema)
            index_sort = schema.types[i].index_sort
            pos = {k: p for p, k in enumerate(instance.domain(index_sort))}
            updates.append((i, rhs, key, pos))

    def apply(state: State, env: Env) -> State:
        pre = state.values
        post = list(pre)
        for i, rhs, key, pos in updates:
            value = rhs(state, env)
            if key is None:
                post[i] = value
            else:
                entries = pre[i].entries
                p = pos[key(state, env)]
                post[i] = MapV(entries[:p] + ((entries[p][0], value),) + entries[p + 1 :])
        return State(state.schema, tuple(post))
    return apply


_last_firings: tuple = (None, None, ())


def firings(protocol: Protocol, instance: Instance) -> tuple[tuple[Compiled, Env, Firing], ...]:
    """(guard, env, firing) per action and binding, in declaration then
    binding order; compiled once and reused while protocol and instance stay."""
    global _last_firings
    last_protocol, last_instance, compiled = _last_firings
    if last_protocol is protocol and last_instance is instance:
        return compiled
    schema = state_schema(protocol)
    out = []
    for decl in protocol.actions:
        guard = _compile_part(decl.guard, instance, schema)
        apply = _compile_apply(decl, instance, schema)
        names = [name for name, _ in decl.params]
        domains = [instance.domain(sort) for _, sort in decl.params]
        for combo in itertools.product(*domains):
            env = dict(zip(names, combo))
            out.append((guard, env, (decl.name, apply, tuple(zip(names, combo)), env)))
    compiled = tuple(out)
    _last_firings = (protocol, instance, compiled)
    return compiled


def enabled(state: State, protocol: Protocol, instance: Instance) -> list[Firing]:
    """Each firing whose guard holds, in action declaration then binding
    order; builds no post-state."""
    return [f for guard, env, f in firings(protocol, instance) if guard(state, env) is True]


def apply_action(
    state: State,
    action: ActionDecl,
    env: Env,
    protocol: Protocol,
    instance: Instance,
) -> State:
    """Post-state of one action firing; every rhs reads the pre-state."""
    return _compile_apply(action, instance, state.schema)(state, env)


def successors(state: State, protocol: Protocol, instance: Instance) -> list[Transition]:
    """All enabled transitions, in action declaration then binding order."""
    pre_fp = fingerprint(state)
    return [
        Transition(name, binding, pre_fp, apply(state, env))
        for name, apply, binding, env in enabled(state, protocol, instance)
    ]
