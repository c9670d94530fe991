from __future__ import annotations

import pytest

from indinv import benchmarks
from indinv.errors import (
    DuplicateSeedWarning,
    InstanceError,
    ParseError,
    SpecError,
    TypeCheckError,
)
from indinv.instance import parse_instance
from indinv.parser import parse_expression, parse_grammar, parse_protocol, tokenize
from indinv.syntax import (
    BoolType,
    MapType,
    SetType,
    to_str,
)

from .oracles import print_protocol

LOCKSERVER = benchmarks.protocol_path("lockserver").read_text()


def test_lockserver_structure():
    p = parse_protocol(LOCKSERVER)
    assert p.sort_names() == ("Server", "Client")
    assert [(v.name, v.type) for v in p.vars] == [
        ("locked", MapType("Server", BoolType())),
        ("held", MapType("Client", SetType("Server"))),
    ]
    assert [a.name for a in p.actions] == ["Connect", "Disconnect"]
    assert p.safety_name == "Safe"


def test_empty_input_is_a_syntax_error():
    with pytest.raises(ParseError, match="expected 'sort' or 'var'"):
        parse_protocol("")


def test_client_inserted_into_server_set_is_a_type_error():
    bad = LOCKSERVER.replace("held[c] := held[c] + {s};", "held[c] := held[c] + {c};")
    with pytest.raises(TypeCheckError, match="Server|Client"):
        parse_protocol(bad)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_protocol("sort Server\nvar x bool\nsafety S: true")
    assert err.value.line == 2
    assert "':'" in str(err.value)


def test_duplicate_sort_name():
    with pytest.raises(TypeCheckError, match="duplicate"):
        parse_protocol("sort A\nsort A\nvar b : bool\ninit b = false\nsafety S: true")


def test_variable_shadowing_sort_name_rejected():
    with pytest.raises(TypeCheckError, match="duplicate name"):
        parse_protocol("sort A\nvar A : bool\ninit A = false\nsafety S: true")


def test_uncovered_variable_in_init():
    with pytest.raises(TypeCheckError, match="not covered"):
        parse_protocol("var b : bool\nsafety S: true")


def test_variable_initialized_twice():
    with pytest.raises(TypeCheckError, match="twice"):
        parse_protocol("var b : bool\ninit b = false\ninit b = true\nsafety S: true")


def test_init_may_not_read_state():
    text = "var a : bool\nvar b : bool\ninit a = false\ninit b = a\nsafety S: true"
    with pytest.raises(TypeCheckError, match="state variables"):
        parse_protocol(text)


def test_unknown_identifier_in_expression():
    with pytest.raises(TypeCheckError, match="unknown identifier"):
        parse_protocol("var b : bool\ninit b = false\nsafety S: nope")


def test_map_of_map_rejected():
    text = "sort A\nvar m : map<A> -> map<A> -> bool\ninit m = [forall a: A. [forall b: A. true]]\nsafety S: true"
    with pytest.raises(TypeCheckError, match="map values"):
        parse_protocol(text)


def test_sort_typed_variable_rejected():
    # no init could type-check for it: the language has no element literal
    text = "sort A\nvar x : A\ninit x = x\nsafety S: true"
    with pytest.raises(TypeCheckError, match=r"variable x: .*map<Sort> -> A"):
        parse_protocol(text)


def test_guard_must_be_bool():
    text = (
        "sort A\nvar s : set<A>\ninit s = {}\n"
        "action F(a: A) { require s; s := s + {a}; }\nsafety S: true"
    )
    with pytest.raises(TypeCheckError, match="bool"):
        parse_protocol(text)


def test_double_update_of_one_variable_rejected():
    text = (
        "sort A\nvar s : set<A>\ninit s = {}\n"
        "action F(a: A) { s := s + {a}; s := s - {a}; }\nsafety S: true"
    )
    with pytest.raises(TypeCheckError, match="more than once"):
        parse_protocol(text)


def test_missing_safety():
    with pytest.raises(ParseError, match="safety"):
        parse_protocol("var b : bool\ninit b = false")


@pytest.mark.parametrize("name", benchmarks.NAMES)
def test_print_parse_round_trip(name):
    protocol = parse_protocol(benchmarks.protocol_path(name).read_text())
    assert parse_protocol(print_protocol(protocol)) == protocol


def test_expression_precedence_round_trips():
    p = parse_protocol(LOCKSERVER)
    for text in [
        "forall s: Server. forall c: Client. locked[s] -> ~(s in held[c])",
        "forall c: Client. held[c] = {} \\/ ~(held[c] = {})",
        "forall ci: Client. forall cj: Client. held[ci] & held[cj] != {} -> ci = cj",
        "forall c: Client. |held[c]| = |held[c] - held[c]|",
        "forall c: Client. maj(held[c], Server) -> exists s: Server. s in held[c]",
        "forall s: Server. forall c: Client. locked[s] /\\ ~locked[s] -> s in held[c] + {s}",
    ]:
        e = parse_expression(text, p)
        assert parse_expression(to_str(e), p) == e


# -- grammar files -----------------------------------------------------------


def test_fig_grammar_has_three_seeds(lockserver_protocol):
    text = benchmarks.grammar_path("lockserver").read_text()
    g = parse_grammar(text, lockserver_protocol)
    assert len(g.seeds) == 3
    assert g.template == (("forall", "s", "Server"), ("forall", "c", "Client"))
    assert g.max_terms == (1, 2, 3)


def test_seed_with_unbound_variable(lockserver_protocol):
    text = "template forall s: Server.\nseed locked[x]\nmax_terms 1"
    with pytest.raises(TypeCheckError, match="unknown identifier"):
        parse_grammar(text, lockserver_protocol)


def test_template_over_undeclared_sort(lockserver_protocol):
    text = "template forall z: Zone.\nseed true\nmax_terms 1"
    with pytest.raises(TypeCheckError, match="undeclared sort"):
        parse_grammar(text, lockserver_protocol)


def test_duplicate_seed_dedups_with_warning(lockserver_protocol):
    text = (
        "template forall s: Server. forall c: Client.\n"
        "seed locked[s]\nseed locked[s]\nmax_terms 1"
    )
    with pytest.warns(DuplicateSeedWarning):
        g = parse_grammar(text, lockserver_protocol)
    assert len(g.seeds) == 1


def test_non_increasing_schedule_rejected(lockserver_protocol):
    text = "template forall s: Server.\nseed locked[s]\nmax_terms 2,2"
    with pytest.raises(SpecError, match="increasing"):
        parse_grammar(text, lockserver_protocol)


# -- instances ---------------------------------------------------------------


def test_instance_parsing(lockserver_protocol):
    inst = parse_instance("Client=c1,c2 Server=s1,s2", lockserver_protocol)
    # normalized to declaration order
    assert list(inst.domains) == ["Server", "Client"]
    assert inst.text() == "Server=s1,s2 Client=c1,c2"


@pytest.mark.parametrize(
    "text,msg",
    [
        ("Server=s1,s2", "not bound"),
        ("Server=s1 Client=c1 Extra=e1", "undeclared"),
        ("Server=s1,s1 Client=c1", "duplicate"),
        ("Server= Client=c1", "empty"),
        ("Server=s1 Server=s2 Client=c1", "twice"),
        ("bogus", "malformed"),
    ],
)
def test_instance_errors(lockserver_protocol, text, msg):
    with pytest.raises(InstanceError, match=msg):
        parse_instance(text, lockserver_protocol)


def test_tokenizer_rejects_stray_characters():
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize("var x : bool $")


def test_parser_is_total_on_garbage():
    # malformed input must raise our diagnostics, never crash
    samples = [
        "sort", "var x :", "action A( {", "init = 3", "safety :",
        "var v : enum {}", "((((", "}"*5, "forall x x x", "action A() { x := ; }",
    ]
    for text in samples:
        with pytest.raises((ParseError, TypeCheckError)):
            parse_protocol(text)
