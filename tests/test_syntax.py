from __future__ import annotations

from hypothesis import given, settings

from indinv.parser import parse_expression
from indinv.syntax import (
    And,
    BoolLit,
    Or,
    canonicalize,
    to_str,
)

from .strategies import bool_bodies

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
