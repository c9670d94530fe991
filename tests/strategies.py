"""Hypothesis strategies for well-typed boolean expressions and protocols.

Expressions are built over the lock-service vocabulary with a fixed pool of
bound variables (s, s2: Server; c, c2: Client), so any generated body can be
closed by quantifying over the full pool. ``quantified_exprs`` also nests
quantifiers over the pool anywhere in the body, so a quantifier may bind a
variable its body never reads, or shadow an enclosing one of the same name:
the parser rejects the shadowing, but the evaluator and ``canonicalize``
must get both right. ``protocols`` draws small whole protocols, and
``predicates`` closed predicates over one's variables.
"""
from __future__ import annotations

from hypothesis import strategies as st

from indinv.instance import parse_instance
from indinv.parser import parse_protocol
from indinv.syntax import (
    ActionDecl,
    And,
    BoolLit,
    BoolType,
    BoundRef,
    ElemType,
    EnumLit,
    EnumType,
    Eq,
    Expr,
    Implies,
    InitDecl,
    InSet,
    MapIndex,
    MapLit,
    MapType,
    Ne,
    Not,
    Or,
    Protocol,
    Quant,
    SetLit,
    SetOp,
    SetType,
    SortDecl,
    StateRef,
    Update,
    ValueType,
    VarDecl,
)

from .oracles import print_protocol

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


# -- protocols -------------------------------------------------------------------
#
# One sort S. The language has no element literal, so a scalar variable of
# sort S could not be initialized; element values live in ``map<S> -> S``
# entries, which serve as map keys and update indices next to the action's
# parameters p and q (the safety's bound variable n). An action without
# parameters has no key, so it reads and writes only KEYLESS variables. The
# oracles step every state by every firing, so states x firings is bounded.

MAX_STATES = 1 << 12
MAX_STEPS = 6 * MAX_STATES
KINDS = ("bool", "elem", "enum", "set", "flags", "sets")
KEYLESS = ("bool", "enum", "set")


def _kind_type(kind: str, name: str) -> ValueType:
    return {
        "bool": BoolType(), "elem": MapType("S", ElemType("S")),
        "enum": EnumType(tuple(name + x for x in "abc")), "set": SetType("S"),
        "flags": MapType("S", BoolType()), "sets": MapType("S", SetType("S")),
    }[kind]


def _values(kind: str, n: int) -> int:
    return {"bool": 2, "elem": n ** n, "enum": 3, "set": 2 ** n,
            "flags": 2 ** n, "sets": 2 ** (n * n)}[kind]


_INITS = {
    "bool": BoolLit(False), "elem": MapLit("n", "S", BoundRef("n")), "set": SetLit(()),
    "flags": MapLit("n", "S", BoolLit(False)), "sets": MapLit("n", "S", SetLit(())),
}


def _atom(draw, name: str, kind: str, keys: list[Expr]) -> Expr:
    """A boolean reading variable name, negated half the time."""
    v, key = StateRef(name), (lambda: draw(st.sampled_from(keys)))
    if kind == "bool":
        atom = v
    elif kind == "elem":
        atom = Eq(MapIndex(v, key()), key())
    elif kind == "enum":
        atom = Eq(v, EnumLit(name + draw(st.sampled_from("abc"))))
    elif kind == "set":
        atom = InSet(key(), v) if keys and draw(st.booleans()) else Eq(v, SetLit(()))
    elif kind == "flags":
        atom = MapIndex(v, key())
    else:
        atom = InSet(key(), MapIndex(v, key())) if draw(st.booleans()) else \
            Eq(MapIndex(v, key()), SetLit(()))
    return Not(atom) if draw(st.booleans()) else atom


def _keys(var: str, elems: list[str]) -> list[Expr]:
    """The element keys at a bound variable: itself, and each element-valued
    map's entry at it."""
    return [BoundRef(var)] + [MapIndex(StateRef(e), BoundRef(var)) for e in elems]


def _update(draw, name: str, kind: str, kinds: dict, keys: list[Expr]) -> Update:
    v, key = StateRef(name), (lambda: draw(st.sampled_from(keys)))
    if kind in ("bool", "flags"):
        index = key() if kind == "flags" else None
        old = v if index is None else MapIndex(v, index)
        other = draw(st.sampled_from(sorted(kinds)))
        rhs = draw(st.sampled_from([BoolLit(True), BoolLit(False), Not(old),
                                    _atom(draw, other, kinds[other], keys)]))
        return Update(name, index, rhs)
    if kind == "elem":
        return Update(name, key(), key())
    if kind == "enum":
        return Update(name, None, EnumLit(name + draw(st.sampled_from("abc"))))
    index = key() if kind == "sets" else None
    old = v if index is None else MapIndex(v, index)
    rhs = draw(st.sampled_from([SetOp("+", old, SetLit((key(),))),
                                SetOp("-", old, SetLit((key(),))), SetLit(())]
                               if keys else [SetLit(())]))
    return Update(name, index, rhs)


@st.composite
def protocols(draw):
    """(protocol, instance): a sort of 2-3 elements; 1-2 actions of 0-2
    parameters p and q, whose guards and updates index maps by a parameter
    or by an element-valued entry at one; 2-3 variables of at most
    MAX_STATES states in all, and fewer where states x firings would pass
    MAX_STEPS; and a safety predicate over two variables. The protocol is
    printed and parsed back, so it is type-checked."""
    n = draw(st.integers(2, 3))
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    budget = min(MAX_STATES, MAX_STEPS // sum(n ** k for k in arities))
    kinds: dict[str, str] = {}
    size = 1
    for i in range(draw(st.integers(2, 3))):
        # an action without parameters needs a KEYLESS variable: the first
        fits = [k for k in KINDS if size * _values(k, n) <= budget
                and (i or 0 not in arities or k in KEYLESS)]
        if not fits:  # the first two variables always fit
            break
        kind = draw(st.sampled_from(fits))
        kinds[f"v{i}"] = kind
        size *= _values(kind, n)
    elems = [name for name, kind in kinds.items() if kind == "elem"]
    keyless = {name: kind for name, kind in kinds.items() if kind in KEYLESS}
    actions = []
    for a, arity in enumerate(arities):
        params = ("p", "q")[:arity]
        ks = [k for p in params for k in _keys(p, elems)]
        usable = kinds if params else keyless
        atoms = [_atom(draw, name, kinds[name], ks)
                 for name in draw(st.lists(st.sampled_from(sorted(usable)), max_size=2))]
        if len(atoms) == 2:
            atoms = [draw(st.sampled_from([And, Or]))(tuple(atoms))]
        guard = atoms[0] if atoms else BoolLit(True)
        targets = draw(st.lists(st.sampled_from(sorted(usable)), min_size=1, max_size=2,
                                unique=True))
        updates = tuple(_update(draw, t, kinds[t], usable, ks) for t in targets)
        actions.append(ActionDecl(f"A{a}", tuple((p, "S") for p in params), guard, updates))
    pair = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=2, max_size=2, unique=True))
    safety = Quant("forall", "n", "S", Or(tuple(
        _atom(draw, name, kinds[name], _keys("n", elems)) for name in pair)))
    protocol = Protocol(
        (SortDecl("S"),),
        tuple(VarDecl(name, _kind_type(kind, name)) for name, kind in kinds.items()),
        tuple(InitDecl(name, _INITS.get(kind, EnumLit(name + "a")))
              for name, kind in kinds.items()),
        tuple(actions), "Safe", safety,
    )
    parsed = parse_protocol(print_protocol(protocol))
    return parsed, parse_instance("S=" + ",".join(f"e{i}" for i in range(n)), parsed)


@st.composite
def predicates(draw, protocol: Protocol):
    """A closed predicate over a drawn protocol's variables, like its safety:
    ``forall n: S.`` of one atom, or of the And or Or of two."""
    kinds = {v.name: next(k for k in KINDS if _kind_type(k, v.name) == v.type)
             for v in protocol.vars}
    elems = [name for name, kind in kinds.items() if kind == "elem"]
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=2))
    atoms = tuple(_atom(draw, name, kinds[name], _keys("n", elems)) for name in names)
    body = atoms[0] if len(atoms) == 1 else draw(st.sampled_from([And, Or]))(atoms)
    return Quant("forall", "n", "S", body)
