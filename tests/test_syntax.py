from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from indinv.ctigen import CTI
from indinv.evaluator import Transition
from indinv.infer import InferenceConfig
from indinv.instance import State, state_schema
from indinv.invgen import build_candidate

from indinv.parser import parse_expression
from indinv.syntax import (
    And,
    BoolLit,
    BoundRef,
    Card,
    EnumLit,
    Eq,
    Expr,
    GrammarConfig,
    Ident,
    Implies,
    InSet,
    Maj,
    MapIndex,
    MapLit,
    Ne,
    Not,
    Or,
    Quant,
    SetLit,
    SetOp,
    StateRef,
    canonicalize,
    children,
    map_children,
    reads,
    to_str,
)

from . import oracles
from .strategies import bool_bodies, close, quantified_exprs

P = BoolLit(True)


def _parse(lockserver_protocol, text, bound=None):
    return parse_expression(text, lockserver_protocol, bound or {"s": "Server", "c": "Client"})


def test_double_negation_collapses(lockserver_protocol):
    e = _parse(lockserver_protocol, "~(~(locked[s]))")
    assert to_str(canonicalize(e)) == "locked[s]"


def test_disjunction_sorted_lexically(lockserver_protocol):
    e = _parse(lockserver_protocol, "s in held[c] \\/ locked[s]")
    assert to_str(canonicalize(e)) == "locked[s] \\/ s in held[c]"


def test_duplicate_operands_dropped(lockserver_protocol):
    e = _parse(lockserver_protocol, "locked[s] \\/ locked[s] \\/ s in held[c]")
    assert to_str(canonicalize(e)) == "locked[s] \\/ s in held[c]"


def test_singleton_disjunction_unwraps():
    e = Or((P, P))
    assert canonicalize(e) == P


def test_nested_same_connective_flattens(lockserver_protocol):
    e = _parse(lockserver_protocol, "(locked[s] \\/ s in held[c]) \\/ held[c] = {}")
    c = canonicalize(e)
    assert isinstance(c, Or) and len(c.args) == 3


def test_mixed_connectives_do_not_flatten(lockserver_protocol):
    e = _parse(lockserver_protocol, "(locked[s] /\\ s in held[c]) \\/ held[c] = {}")
    c = canonicalize(e)
    assert isinstance(c, Or) and len(c.args) == 2
    assert any(isinstance(a, And) for a in c.args)


@given(bool_bodies)
@settings(max_examples=200, deadline=None)
def test_canonicalize_is_idempotent(body):
    once = canonicalize(body)
    assert canonicalize(once) == once


@given(bool_bodies)
@settings(max_examples=200, deadline=None)
def test_canonical_text_round_trips_through_print(body):
    # printing a canonical expression and re-canonicalizing changes nothing
    once = canonicalize(body)
    assert to_str(canonicalize(once)) == to_str(once)


def _every_node(e: Expr):
    yield e
    for c in children(e):
        yield from _every_node(c)


_LOCKED_S = MapIndex(StateRef("locked"), BoundRef("s"))


@given(quantified_exprs)
@example(close(Quant("exists", "s", "Server", Quant("forall", "s", "Server", Not(_LOCKED_S)))))
@example(close(Quant("forall", "s", "Server",
                     And((Quant("exists", "s", "Server", Not(_LOCKED_S)), _LOCKED_S)))))
@example(close(Quant("exists", "c", "Client", _LOCKED_S)))
@settings(max_examples=150, deadline=None)
def test_canonicalize_keeps_meaning_and_only_the_quantifiers_read(lockserver, expr):
    protocol, _, instance = lockserver
    once = canonicalize(expr)
    assert canonicalize(once) == once
    for node in _every_node(once):
        assert not isinstance(node, Quant) or node.var in reads(node.body, BoundRef)
    for assign in oracles.o_enumerate(protocol, instance):
        assert oracles.o_holds(once, assign, instance) == oracles.o_holds(expr, assign, instance)


def test_map_children_rebuilds_every_node_kind():
    s, held = BoundRef("s"), MapIndex(StateRef("held"), Ident("c"))
    members = SetOp("-", SetOp("+", held, SetLit((s, EnumLit("s2")))), SetLit(()))
    tree = Quant("forall", "s", "Server", Implies(
        Not(Not(Or((Not(StateRef("locked")), InSet(s, members))))),
        And((Ne(Card(SetOp("&", held, SetLit(()))), Card(members)),
             Or((Maj(held, "Server"), Not(Not(BoolLit(False))))),
             Eq(StateRef("locked"), MapLit("x", "Server", Not(Not(BoolLit(True))))))),
    ))
    nodes = list(_every_node(tree))
    assert {type(n) for n in nodes} == set(Expr.__subclasses__())

    def mark(c: Expr) -> Expr:
        return BoundRef("<%s>" % to_str(c))

    for node in nodes:
        assert map_children(node, lambda x: x) == node
        rebuilt = map_children(node, mark)
        assert type(rebuilt) is type(node)
        assert list(children(rebuilt)) == [mark(c) for c in children(node)]
        if not list(children(node)):
            assert rebuilt is node
    assert to_str(canonicalize(tree)) == (
        "forall s: Server. s in held[c] + {s, s2} - {} \\/ ~locked -> "
        "(false \\/ maj(held[c], Server)) /\\ locked = [forall x: Server. true] /\\ "
        "|held[c] & {}| != |held[c] + {s, s2} - {}|"
    )


def test_reads_names_each_state_variable_once():
    held_c = MapIndex(StateRef("held"), BoundRef("c"))
    assert reads(held_c) == {"held"}
    assert reads(MapIndex(StateRef("owner"), StateRef("turn"))) == {"owner", "turn"}
    assert reads(BoolLit(True)) == frozenset()
    assert reads(Eq(EnumLit("a"), BoundRef("x"))) == frozenset()
    quant = Quant("forall", "c", "Client", Quant(
        "exists", "s", "Server",
        And((InSet(BoundRef("s"), held_c), Not(MapIndex(StateRef("locked"), BoundRef("s"))))),
    ))
    assert reads(quant) == {"held", "locked"}
    maplit = MapLit("c", "Client", SetLit((StateRef("pick"), BoundRef("c"))))
    assert reads(maplit) == {"pick"}
    assert reads(Or((Eq(Card(StateRef("chosen")), Card(SetLit(()))), quant, maplit))) == {
        "chosen", "held", "locked", "pick"}


def test_reads_of_parsed_conjuncts(lockserver_protocol):
    assert reads(lockserver_protocol.safety) == {"held"}
    assert reads(_parse(lockserver_protocol, "locked[s] -> ~(s in held[c])")) == {
        "locked", "held"}


def test_records_compare_by_class_and_fields():
    assert Not(P) != Card(P) and not (Not(P) == Card(P))
    assert Not(P) == Not(BoolLit(True)) and hash(Not(P)) == hash(Not(BoolLit(True)))
    assert Quant("forall", "s", "Server", P) == Quant(kind="forall", sort="Server", body=P, var="s")
    assert Quant("forall", "s", "Server", P) == Quant("forall", "s", body=P, sort="Server")
    assert len({Not(P), Not(BoolLit(True)), Card(P)}) == 2
    assert repr(Maj(StateRef("x"), "Node")) == "Maj(arg=StateRef(name='x'), sort='Node')"
    assert list(vars(SetOp("+", P, Not(P)))) == ["op", "lhs", "rhs"]


def test_records_refuse_bad_construction():
    with pytest.raises(TypeError, match="Eq is missing fields {'rhs'}"):
        Eq(P)
    for args, kwargs in [((P, P, P), {}), ((P, P), {"lhs": P}), ((P,), {"negated": True})]:
        with pytest.raises(TypeError, match=r"takes fields \('lhs', 'rhs'\)"):
            Eq(*args, **kwargs)


def test_frozen_records_refuse_assignment_and_deletion(lockserver_protocol):
    state = State(state_schema(lockserver_protocol), ())
    for record, name in [(Not(P), "arg"), (lockserver_protocol, "safety"), (state, "values")]:
        with pytest.raises(AttributeError):
            setattr(record, name, P)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, "other", P)


def test_mutable_records_are_unhashable_and_keep_their_defaults():
    config = InferenceConfig()
    config.seed = 5
    assert config == InferenceConfig(seed=5) != InferenceConfig()
    assert InferenceConfig.seed == 0 and vars(InferenceConfig())["seed"] == 0
    with pytest.raises(TypeError):
        hash(config)


def test_a_hidden_field_is_left_out_of_equality_and_repr():
    a = build_candidate(GrammarConfig((), (P, Not(P)), (1,)), ((0, False),))
    b = build_candidate(GrammarConfig((("forall", "s", "Server"),), (P,), (1,)), ((0, False),))
    assert a.grammar != b.grammar and a == b and hash(a) == hash(b)
    assert "grammar" not in repr(a) and repr(a).startswith("CandidateInvariant(literals=")


def test_a_cti_whose_depth_is_not_its_witness_length_is_refused(lockserver_protocol):
    state = State(state_schema(lockserver_protocol), ())
    step = Transition("a", (), 0, state)
    assert CTI(state, 0, (step,), 1).depth_to_violation == 1
    with pytest.raises(AssertionError):
        CTI(state, 0, (step,), 2)
    with pytest.raises(AssertionError):
        CTI(state, 0, (), 0)
