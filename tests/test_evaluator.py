from __future__ import annotations

import random

from hypothesis import example, given, settings

from indinv.evaluator import evaluate, holds, initial_state, successors
from indinv.instance import MapV, State, random_state, state_schema
from indinv.parser import parse_expression, parse_protocol
from indinv.reachability import compute_reach
from indinv.syntax import And, BoundRef, MapIndex, Not, Quant, StateRef

from . import oracles
from .oracles import enumerate_states
from .strategies import BOUND_POOL, bool_bodies, close, closed_bool_exprs, quantified_exprs

A1_TEXT = "forall s: Server. forall c: Client. locked[s] -> ~(s in held[c])"


def _state(protocol, locked, held):
    schema = state_schema(protocol)
    return State(
        schema,
        (
            MapV(tuple(sorted(locked.items()))),
            MapV(tuple(sorted((k, frozenset(v)) for k, v in held.items()))),
        ),
    )


def test_safety_false_when_clients_share_a_server(lockserver_protocol, lockserver_instance):
    s = _state(lockserver_protocol, {"s1": False, "s2": True}, {"c1": {"s1"}, "c2": {"s1"}})
    assert not holds(lockserver_protocol.safety, s, lockserver_instance)


def test_safety_true_initially(lockserver_protocol, lockserver_instance):
    init = initial_state(lockserver_protocol, lockserver_instance)
    assert holds(lockserver_protocol.safety, init, lockserver_instance)


def test_known_lemma_false_on_held_and_locked(lockserver_protocol, lockserver_instance):
    a1 = parse_expression(A1_TEXT, lockserver_protocol)
    s = _state(lockserver_protocol, {"s1": True, "s2": True}, {"c1": {"s1"}, "c2": set()})
    assert not holds(a1, s, lockserver_instance)


def test_initial_state_values(lockserver_protocol, lockserver_instance):
    init = initial_state(lockserver_protocol, lockserver_instance)
    assert init.value("locked") == MapV((("s1", True), ("s2", True)))
    assert init.value("held") == MapV((("c1", frozenset()), ("c2", frozenset())))


def test_initial_state_has_four_connects(lockserver_protocol, lockserver_instance):
    init = initial_state(lockserver_protocol, lockserver_instance)
    ts = successors(init, lockserver_protocol, lockserver_instance)
    assert len(ts) == 4
    assert all(t.action == "Connect" for t in ts)


def test_two_disconnects_when_unlocked_and_held(lockserver_protocol, lockserver_instance):
    s = _state(lockserver_protocol, {"s1": False, "s2": False}, {"c1": {"s1"}, "c2": {"s2"}})
    ts = successors(s, lockserver_protocol, lockserver_instance)
    assert [(t.action, dict(t.binding)) for t in ts] == [
        ("Disconnect", {"c": "c1", "s": "s1"}),
        ("Disconnect", {"c": "c2", "s": "s2"}),
    ]


def test_transition_count_matches_oracle(lockserver_protocol, lockserver_instance):
    engine_total = sum(
        len(successors(s, lockserver_protocol, lockserver_instance))
        for s in enumerate_states(lockserver_protocol, lockserver_instance)
    )
    assert engine_total == oracles.o_transition_count(lockserver_protocol, lockserver_instance)


def _engine_vs_oracle_successors(protocol, instance, state):
    engine = sorted(
        (t.action, tuple(el for _, el in t.binding), oracles.freeze_state(t.post))
        for t in successors(state, protocol, instance)
    )
    oracle = sorted(
        (name, combo, oracles.o_freeze(post))
        for name, combo, post in oracles.o_successors(
            protocol, instance, oracles.assign_from_state(state)
        )
    )
    return engine, oracle


def test_successor_states_match_oracle(lockserver_protocol, lockserver_instance):
    for s in enumerate_states(lockserver_protocol, lockserver_instance):
        engine, oracle = _engine_vs_oracle_successors(lockserver_protocol, lockserver_instance, s)
        assert engine == oracle


def test_safety_holds_on_all_reachable_states(lockserver_protocol, lockserver_instance):
    reach = compute_reach(lockserver_protocol, lockserver_instance)
    assert all(holds(lockserver_protocol.safety, s, lockserver_instance) for s in reach.states)


def test_frame_property(lockserver_protocol, lockserver_instance):
    # variables not assigned by the action are identical before and after
    targets = {
        a.name: {u.target for u in a.updates} for a in lockserver_protocol.actions
    }
    for s in enumerate_states(lockserver_protocol, lockserver_instance):
        for t in successors(s, lockserver_protocol, lockserver_instance):
            for name in (v.name for v in lockserver_protocol.vars):
                if name not in targets[t.action]:
                    assert t.post.value(name) == s.value(name)


def test_updates_apply_simultaneously(lockserver_instance):
    # swapping the update order inside an action never changes the post-state
    from indinv import benchmarks

    text = benchmarks.protocol_path("lockserver").read_text()
    swapped = text.replace(
        "    held[c] := held[c] + {s};\n    locked[s] := false;",
        "    locked[s] := false;\n    held[c] := held[c] + {s};",
    )
    assert swapped != text
    original = parse_protocol(text)
    variant = parse_protocol(swapped)
    for s in enumerate_states(original, lockserver_instance):
        ts_a = successors(s, original, lockserver_instance)
        ts_b = successors(s, variant, lockserver_instance)
        assert [(t.action, t.binding, t.post) for t in ts_a] == [
            (t.action, t.binding, t.post) for t in ts_b
        ]


@given(bool_bodies)
@settings(max_examples=100, deadline=None)
def test_quantifier_duality(body):
    from indinv import benchmarks
    from indinv.instance import parse_instance

    protocol = parse_protocol(benchmarks.protocol_path("lockserver").read_text())
    instance = parse_instance("Server=s1,s2 Client=c1,c2", protocol)
    rng = random.Random(11)
    inner = BOUND_POOL[1:]
    var, sort = BOUND_POOL[0]
    closed_not_forall = Not(Quant("forall", var, sort, _close_rest(body, inner)))
    closed_exists_not = Quant("exists", var, sort, Not(_close_rest(body, inner)))
    for _ in range(5):
        s = random_state(protocol, instance, rng)
        assert holds(closed_not_forall, s, instance) == holds(closed_exists_not, s, instance)


def _close_rest(body, pool):
    closed = body
    for var, sort in reversed(pool):
        closed = Quant("forall", var, sort, closed)
    return closed


@given(bool_bodies)
@settings(max_examples=100, deadline=None)
def test_evaluation_total_on_random_states(body):
    # type-checked inputs never hit a value-kind mismatch
    from indinv import benchmarks
    from indinv.instance import parse_instance
    from .strategies import close

    protocol = parse_protocol(benchmarks.protocol_path("lockserver").read_text())
    instance = parse_instance("Server=s1,s2 Client=c1,c2", protocol)
    rng = random.Random(5)
    expr = close(body)
    for _ in range(3):
        s = random_state(protocol, instance, rng)
        assert evaluate(expr, s, {}, instance) in (True, False)


def test_eval_agrees_with_oracle_on_seeds(small_benchmarks):
    rng = random.Random(3)
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        closed = [
            _close_template(seed, grammar.template) for seed in grammar.seeds
        ]
        for _ in range(40):
            s = random_state(protocol, instance, rng)
            assign = oracles.assign_from_state(s)
            for e in closed + [protocol.safety]:
                assert holds(e, s, instance) == oracles.o_holds(e, assign, instance), (
                    name,
                    e,
                )


def _close_template(body, template):
    closed = body
    for kind, var, sort in reversed(template):
        closed = Quant(kind, var, sort, closed)
    return closed


@given(closed_bool_exprs)
@settings(max_examples=150, deadline=None)
def test_holds_agrees_with_oracle_on_random_expressions(expr):
    from indinv import benchmarks
    from indinv.instance import parse_instance

    protocol = parse_protocol(benchmarks.protocol_path("lockserver").read_text())
    instance = parse_instance("Server=s1,s2 Client=c1,c2", protocol)
    rng = random.Random(17)
    for _ in range(8):
        s = random_state(protocol, instance, rng)
        assign = oracles.assign_from_state(s)
        assert holds(expr, s, instance) == oracles.o_holds(expr, assign, instance)


_LOCKED_S = MapIndex(StateRef("locked"), BoundRef("s"))


@given(quantified_exprs)
@example(close(Quant("forall", "s", "Server", Quant("forall", "s", "Server", _LOCKED_S))))
@example(close(Quant("forall", "s", "Server", Quant("forall", "s", "Server", Not(_LOCKED_S)))))
@example(close(Quant("exists", "s", "Server", Quant("exists", "s", "Server", Not(_LOCKED_S)))))
@example(close(Quant("forall", "s", "Server",
                     And((Quant("exists", "s", "Server", Not(_LOCKED_S)), _LOCKED_S)))))
@example(close(Quant("exists", "c", "Client", _LOCKED_S)))
@settings(max_examples=150, deadline=None)
def test_holds_agrees_with_oracle_under_vacuous_and_shadowing_quantifiers(expr):
    # the compiler loops over every quantifier, even one whose body never
    # reads its variable, and one that shadows an enclosing variable
    # restores it on exit
    from indinv import benchmarks
    from indinv.instance import parse_instance

    protocol = parse_protocol(benchmarks.protocol_path("lockserver").read_text())
    instance = parse_instance("Server=s1,s2 Client=c1,c2", protocol)
    for s in list(enumerate_states(protocol, instance))[::5]:
        assign = oracles.assign_from_state(s)
        assert holds(expr, s, instance) == oracles.o_holds(expr, assign, instance)


# Exercises the nodes the bundled protocols use little or not at all in
# guards and updates: cardinality, majority, every set operator, multi-member
# set literals, enums, and quantifiers inside guards and right-hand sides.
NODES_PROTO = """
sort Node
sort Item

var members : map<Node> -> set<Item>
var pool : set<Item>
var phase : map<Node> -> enum {idle, busy, done}
var flag : bool

init members = [forall n: Node. {}]
init pool = {}
init phase = [forall n: Node. idle]
init flag = false

action Take(n: Node, i: Item, j: Item) {
    require ~(i in pool) /\\ phase[n] != done /\\ i != j;
    members[n] := members[n] + {i, j};
    pool := pool + {i};
    phase[n] := busy;
}

action Drop(n: Node, i: Item) {
    require i in members[n] /\\ maj(members[n], Item);
    members[n] := members[n] - {i};
    pool := pool - ({i} & members[n]);
}

action Finish(n: Node) {
    require exists i: Item. i in members[n];
    require forall m: Node. |members[m]| = |members[n]| \\/ phase[m] = idle;
    phase[n] := done;
    flag := ~flag \\/ |pool| = |members[n]| \\/ (forall m: Node. phase[m] = done);
}

safety S: forall n: Node. forall i: Item. i in members[n] -> i in pool \\/ ~flag
"""


def test_successors_agree_with_oracle_on_all_benchmarks(all_benchmarks):
    rng = random.Random(23)
    for name, (protocol, _, instance) in all_benchmarks.items():
        init = initial_state(protocol, instance)
        assert oracles.freeze_state(init) == oracles.o_freeze(
            oracles.o_initial(protocol, instance)
        ), name
        enabled_seen = 0
        for _ in range(150):
            s = random_state(protocol, instance, rng)
            engine, oracle = _engine_vs_oracle_successors(protocol, instance, s)
            assert engine == oracle, name
            enabled_seen += len(engine)
        assert enabled_seen > 0, name


def test_successors_agree_with_oracle_on_every_node_kind():
    from indinv.instance import parse_instance

    protocol = parse_protocol(NODES_PROTO)
    # an even Item domain tells maj's strict majority from half
    instance = parse_instance("Node=n1,n2 Item=i1,i2,i3,i4", protocol)
    init = initial_state(protocol, instance)
    assert oracles.freeze_state(init) == oracles.o_freeze(oracles.o_initial(protocol, instance))
    rng = random.Random(29)
    fired = set()
    for _ in range(400):
        s = random_state(protocol, instance, rng)
        engine, oracle = _engine_vs_oracle_successors(protocol, instance, s)
        assert engine == oracle
        fired.update(action for action, _, _ in engine)
        assert holds(protocol.safety, s, instance) == oracles.o_holds(
            protocol.safety, oracles.assign_from_state(s), instance
        )
    assert fired == {"Take", "Drop", "Finish"}
