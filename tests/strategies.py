"""Hypothesis strategies for well-typed boolean expressions.

Expressions are built over the lock-service vocabulary with a fixed pool of
bound variables (s, s2: Server; c, c2: Client), so any generated body can be
closed by quantifying over the full pool. ``quantified_exprs`` also nests
quantifiers over the pool anywhere in the body, so a quantifier may bind a
variable its body never reads, or shadow an enclosing one of the same name:
the parser admits neither, but the evaluator must get both right.
"""
from __future__ import annotations

from hypothesis import strategies as st

from indinv.syntax import (
    And,
    BoolLit,
    BoundRef,
    Eq,
    Expr,
    Implies,
    InSet,
    MapIndex,
    Ne,
    Not,
    Or,
    Quant,
    SetLit,
    SetOp,
    StateRef,
)

BOUND_POOL = (("s", "Server"), ("s2", "Server"), ("c", "Client"), ("c2", "Client"))

_servers = st.sampled_from(["s", "s2"]).map(BoundRef)
_clients = st.sampled_from(["c", "c2"]).map(BoundRef)

_server_sets = st.one_of(
    _clients.map(lambda c: MapIndex(StateRef("held"), c)),
    st.just(SetLit(())),
    _servers.map(lambda s: SetLit((s,))),
)


def _set_exprs(children):
    return st.tuples(st.sampled_from("+-&"), children, children).map(
        lambda t: SetOp(t[0], t[1], t[2])
    )


server_sets = st.recursive(_server_sets, _set_exprs, max_leaves=4)

_atoms = st.one_of(
    st.booleans().map(BoolLit),
    _servers.map(lambda s: MapIndex(StateRef("locked"), s)),
    st.tuples(_servers, server_sets).map(lambda t: InSet(t[0], t[1])),
    st.tuples(server_sets, server_sets).map(lambda t: Eq(*t)),
    st.tuples(server_sets, server_sets).map(lambda t: Ne(*t)),
    st.tuples(_clients, _clients).map(lambda t: Eq(*t)),
)


def _bool_exprs(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(Not),
        pairs.map(lambda t: And(t)),
        pairs.map(lambda t: Or(t)),
        pairs.map(lambda t: Implies(*t)),
    )


bool_bodies = st.recursive(_atoms, _bool_exprs, max_leaves=8)


def close(body: Expr) -> Expr:
    """Quantify the fixed variable pool around a body, innermost last."""
    closed = body
    for var, sort in reversed(BOUND_POOL):
        closed = Quant("forall", var, sort, closed)
    return closed


closed_bool_exprs = bool_bodies.map(close)


_quantified = st.recursive(
    _atoms,
    lambda children: st.one_of(
        _bool_exprs(children),
        st.tuples(st.sampled_from(["forall", "exists"]), st.sampled_from(BOUND_POOL), children)
        .map(lambda t: Quant(t[0], t[1][0], t[1][1], t[2])),
    ),
    max_leaves=8,
)

quantified_exprs = _quantified.map(close)
