"""Independent straight-line re-implementations used as test oracles.

Everything here deliberately avoids the engine's evaluator, enumerator, and
search code: states are plain dicts, maps are plain dicts, evaluation is a
naive recursion, reachability is a fixpoint loop rather than layered BFS.
Only the parsed AST and the Instance binding are shared with the engine.
"""
from __future__ import annotations

import itertools

from indinv.instance import Instance, MapV, State, state_schema
from indinv.syntax import (
    And,
    BoolLit,
    BoolType,
    BoundRef,
    Card,
    ElemType,
    EnumLit,
    EnumType,
    Eq,
    Expr,
    Implies,
    InSet,
    MapIndex,
    MapLit,
    MapType,
    Maj,
    Ne,
    Not,
    Or,
    Protocol,
    Quant,
    SetLit,
    SetOp,
    SetType,
    StateRef,
)

Assign = dict


def o_eval(e: Expr, assign: Assign, env: dict, inst: Instance):
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, BoundRef):
        return env[e.name]
    if isinstance(e, StateRef):
        return assign[e.name]
    if isinstance(e, EnumLit):
        return e.label
    if isinstance(e, MapIndex):
        return o_eval(e.mapping, assign, env, inst)[o_eval(e.key, assign, env, inst)]
    if isinstance(e, SetLit):
        return frozenset(o_eval(m, assign, env, inst) for m in e.members)
    if isinstance(e, SetOp):
        a = o_eval(e.lhs, assign, env, inst)
        b = o_eval(e.rhs, assign, env, inst)
        return a | b if e.op == "+" else (a - b if e.op == "-" else a & b)
    if isinstance(e, InSet):
        return o_eval(e.elem, assign, env, inst) in o_eval(e.container, assign, env, inst)
    if isinstance(e, Eq):
        return o_eval(e.lhs, assign, env, inst) == o_eval(e.rhs, assign, env, inst)
    if isinstance(e, Ne):
        return o_eval(e.lhs, assign, env, inst) != o_eval(e.rhs, assign, env, inst)
    if isinstance(e, Card):
        return len(o_eval(e.arg, assign, env, inst))
    if isinstance(e, Maj):
        return 2 * len(o_eval(e.arg, assign, env, inst)) > len(inst.domain(e.sort))
    if isinstance(e, Not):
        return not o_eval(e.arg, assign, env, inst)
    if isinstance(e, And):
        result = True
        for a in e.args:
            result = result and o_eval(a, assign, env, inst)
        return result
    if isinstance(e, Or):
        result = False
        for a in e.args:
            result = result or o_eval(a, assign, env, inst)
        return result
    if isinstance(e, Implies):
        return (not o_eval(e.lhs, assign, env, inst)) or o_eval(e.rhs, assign, env, inst)
    if isinstance(e, Quant):
        results = [
            o_eval(e.body, assign, {**env, e.var: el}, inst)
            for el in inst.domain(e.sort)
        ]
        return all(results) if e.kind == "forall" else any(results)
    if isinstance(e, MapLit):
        return {
            el: o_eval(e.body, assign, {**env, e.var: el}, inst)
            for el in inst.domain(e.sort)
        }
    raise AssertionError(f"oracle cannot evaluate {e!r}")


def o_holds(e: Expr, assign: Assign, inst: Instance) -> bool:
    return o_eval(e, assign, {}, inst) is True


def _o_values(vtype, inst: Instance):
    if isinstance(vtype, BoolType):
        return [False, True]
    if isinstance(vtype, ElemType):
        return list(inst.domain(vtype.sort))
    if isinstance(vtype, EnumType):
        return list(vtype.labels)
    if isinstance(vtype, SetType):
        dom = inst.domain(vtype.sort)
        subsets = [frozenset()]
        for el in dom:
            subsets = subsets + [s | {el} for s in subsets]
        return subsets
    if isinstance(vtype, MapType):
        dom = inst.domain(vtype.index_sort)
        elem_values = _o_values(vtype.elem, inst)
        return [
            dict(zip(dom, combo))
            for combo in itertools.product(elem_values, repeat=len(dom))
        ]
    raise AssertionError(f"oracle has no domain for {vtype!r}")


def o_enumerate(protocol: Protocol, inst: Instance):
    names = [v.name for v in protocol.vars]
    pools = [_o_values(v.type, inst) for v in protocol.vars]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


def o_initial(protocol: Protocol, inst: Instance) -> Assign:
    return {init.var: o_eval(init.expr, {}, {}, inst) for init in protocol.inits}


def o_successors(protocol: Protocol, inst: Instance, assign: Assign):
    out = []
    for action in protocol.actions:
        domains = [inst.domain(sort) for _, sort in action.params]
        for combo in itertools.product(*domains):
            env = {name: el for (name, _), el in zip(action.params, combo)}
            if not o_eval(action.guard, assign, env, inst):
                continue
            post = dict(assign)
            for u in action.updates:
                rhs = o_eval(u.rhs, assign, env, inst)
                if u.index is None:
                    post[u.target] = rhs
                else:
                    key = o_eval(u.index, assign, env, inst)
                    updated = dict(assign[u.target])
                    updated[key] = rhs
                    post[u.target] = updated
            out.append((action.name, combo, post))
    return out


def o_freeze(assign: Assign):
    frozen = []
    for name in sorted(assign):
        v = assign[name]
        if isinstance(v, dict):
            v = tuple(sorted((k, val) for k, val in v.items()))
        frozen.append((name, v))
    return tuple(frozen)


def o_reach(protocol: Protocol, inst: Instance):
    """Naive fixpoint: re-scan the whole set until no new state appears."""
    init = o_initial(protocol, inst)
    states = {o_freeze(init): init}
    changed = True
    while changed:
        changed = False
        for assign in list(states.values()):
            for _, _, post in o_successors(protocol, inst, assign):
                key = o_freeze(post)
                if key not in states:
                    states[key] = post
                    changed = True
    return states


def o_check_induction(protocol: Protocol, inst: Instance, conjuncts: list[Expr]):
    """Returns (initiation_ok, consecution_ok, strengthening_ok)."""
    init = o_initial(protocol, inst)
    initiation = all(o_holds(c, init, inst) for c in conjuncts)
    consecution = True
    strengthening = True
    for assign in o_enumerate(protocol, inst):
        if not all(o_holds(c, assign, inst) for c in conjuncts):
            continue
        if not o_holds(protocol.safety, assign, inst):
            strengthening = False
        for _, _, post in o_successors(protocol, inst, assign):
            if not all(o_holds(c, post, inst) for c in conjuncts):
                consecution = False
    return initiation, consecution, strengthening


def o_cti_depth1(protocol: Protocol, inst: Instance, pred: Expr):
    """Frozen states satisfying pred with at least one violating successor."""
    found = set()
    for assign in o_enumerate(protocol, inst):
        if not o_holds(pred, assign, inst):
            continue
        for _, _, post in o_successors(protocol, inst, assign):
            if not o_holds(pred, post, inst):
                found.add(o_freeze(assign))
                break
    return found


def o_transition_count(protocol: Protocol, inst: Instance) -> int:
    return sum(
        len(o_successors(protocol, inst, a)) for a in o_enumerate(protocol, inst)
    )


# -- conversions between engine states and oracle assignments ---------------


def assign_from_state(state: State) -> Assign:
    out = {}
    for name, value in zip(state.schema.names, state.values):
        if isinstance(value, MapV):
            out[name] = dict(value.entries)
        else:
            out[name] = value
    return out


def state_from_assign(protocol: Protocol, inst: Instance, assign: Assign) -> State:
    schema = state_schema(protocol)
    values = []
    for name, vtype in zip(schema.names, schema.types):
        v = assign[name]
        if isinstance(vtype, MapType):
            v = MapV(tuple((k, v[k]) for k in inst.domain(vtype.index_sort)))
        values.append(v)
    return State(schema, tuple(values))


def freeze_state(state: State):
    return o_freeze(assign_from_state(state))


# -- type conformance of engine values ---------------------------------------


def value_conforms(v, t, inst: Instance) -> bool:
    if isinstance(t, BoolType):
        return isinstance(v, bool)
    if isinstance(t, ElemType):
        return isinstance(v, str) and v in inst.domain(t.sort)
    if isinstance(t, EnumType):
        return isinstance(v, str) and v in t.labels
    if isinstance(t, SetType):
        return isinstance(v, frozenset) and v <= set(inst.domain(t.sort))
    if isinstance(t, MapType):
        if not isinstance(v, MapV):
            return False
        if tuple(k for k, _ in v.entries) != inst.domain(t.index_sort):
            return False
        return all(value_conforms(ev, t.elem, inst) for _, ev in v.entries)
    return False


def state_conforms(state: State, inst: Instance) -> bool:
    return all(value_conforms(v, t, inst) for t, v in zip(state.schema.types, state.values))
