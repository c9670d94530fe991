from __future__ import annotations

import itertools
import math
import random

import pytest

from indinv.instance import (
    fingerprint,
    MapV,
    parse_instance,
    random_state,
    state_schema,
    State,
    state_codec,
)
from indinv.parser import parse_protocol
from indinv.syntax import ElemType

from . import oracles
from .oracles import enumerate_states, replace, state_space_size

BOOL_PROTO = "var b : bool\ninit b = false\nsafety S: true"


def test_lockserver_state_space_is_64(lockserver_protocol, lockserver_instance):
    assert state_space_size(lockserver_protocol, lockserver_instance) == 64


def test_single_bool_space_is_2():
    p = parse_protocol(BOOL_PROTO)
    inst = parse_instance("", p)
    assert state_space_size(p, inst) == 2


def test_lockserver_1_1_space_is_4(lockserver_protocol):
    inst = parse_instance("Server=s1 Client=c1", lockserver_protocol)
    assert state_space_size(lockserver_protocol, inst) == 4


def test_enumerate_bool_states():
    p = parse_protocol(BOOL_PROTO)
    inst = parse_instance("", p)
    states = list(enumerate_states(p, inst))
    assert [s.value("b") for s in states] == [False, True]


def test_enumerate_lockserver_1_1_yields_four_states(lockserver_protocol):
    inst = parse_instance("Server=s1 Client=c1", lockserver_protocol)
    states = list(enumerate_states(lockserver_protocol, inst))
    assert len(states) == 4
    assert len({fingerprint(s) for s in states}) == 4


def test_enumerate_yields_size_many_distinct_states(lockserver_protocol, lockserver_instance):
    states = list(enumerate_states(lockserver_protocol, lockserver_instance))
    assert len(states) == 64
    assert len({fingerprint(s) for s in states}) == 64


def test_enumeration_order_is_deterministic(lockserver_protocol, lockserver_instance):
    a = [fingerprint(s) for s in enumerate_states(lockserver_protocol, lockserver_instance)]
    b = [fingerprint(s) for s in enumerate_states(lockserver_protocol, lockserver_instance)]
    assert a == b


def test_random_state_deterministic(lockserver_protocol, lockserver_instance):
    s1 = random_state(lockserver_protocol, lockserver_instance, random.Random(0))
    s2 = random_state(lockserver_protocol, lockserver_instance, random.Random(0))
    assert s1 == s2
    assert fingerprint(s1) == fingerprint(s2)


def test_random_bool_is_roughly_uniform():
    # binomial bound: 10,000 draws, expect the true fraction in [0.45, 0.55]
    p = parse_protocol(BOOL_PROTO)
    inst = parse_instance("", p)
    rng = random.Random(42)
    hits = sum(1 for _ in range(10000) if random_state(p, inst, rng).value("b"))
    assert 0.45 <= hits / 10000 <= 0.55


def test_random_state_conforms_and_is_enumerable(lockserver_protocol, lockserver_instance):
    enumerated = {fingerprint(s) for s in enumerate_states(lockserver_protocol, lockserver_instance)}
    rng = random.Random(7)
    for _ in range(200):
        s = random_state(lockserver_protocol, lockserver_instance, rng)
        assert oracles.state_conforms(s, lockserver_instance)
        assert fingerprint(s) in enumerated


def test_equal_states_have_equal_fingerprints(lockserver_protocol, lockserver_instance):
    schema = state_schema(lockserver_protocol)
    a = State(schema, (MapV((("s1", True), ("s2", False))), MapV((("c1", frozenset({"s2"})), ("c2", frozenset())))))
    b = State(schema, (MapV((("s1", True), ("s2", False))), MapV((("c1", frozenset({"s2"})), ("c2", frozenset())))))
    assert a == b
    assert fingerprint(a) == fingerprint(b)


def test_fingerprint_ignores_set_insertion_order(lockserver_protocol):
    schema = state_schema(lockserver_protocol)
    held1 = MapV((("c1", frozenset(["s1", "s2"])), ("c2", frozenset())))
    held2 = MapV((("c1", frozenset(["s2", "s1"])), ("c2", frozenset())))
    locked = MapV((("s1", False), ("s2", False)))
    assert fingerprint(State(schema, (locked, held1))) == fingerprint(State(schema, (locked, held2)))


def test_no_fingerprint_collisions_across_lockserver_space(lockserver_protocol, lockserver_instance):
    states = list(enumerate_states(lockserver_protocol, lockserver_instance))
    fps = [fingerprint(s) for s in states]
    for (i, fa), (j, fb) in itertools.combinations(enumerate(fps), 2):
        if fa == fb:
            pytest.fail(f"states {i} and {j} collide")


# No bundled protocol has an element-valued variable, and the type checker
# admits no init for a scalar one, so `x` is declared bool and given its
# element type after parsing; the codec reads only the variables' types.
CODEC_PROTO = """
sort Node
var x : bool
var e : enum {red, green, blue}
var m : map<Node> -> Node
var s : set<Node>
var p : map<Node> -> enum {idle, busy, done}
init x = false
init e = red
init m = [forall n: Node. n]
init s = {}
init p = [forall n: Node. idle]
safety S: true
"""


def _codec_cases(small_benchmarks):
    cases = {name: (p, inst) for name, (p, _, inst) in small_benchmarks.items()}
    p = parse_protocol(CODEC_PROTO)
    x = replace(p.vars[0], type=ElemType("Node"))
    p = replace(p, vars=(x,) + p.vars[1:])
    cases["elements"] = (p, parse_instance("Node=n1,n2,n3", p))
    return cases


def test_codes_are_enumeration_indices(small_benchmarks):
    for name, (protocol, instance) in _codec_cases(small_benchmarks).items():
        codec = state_codec(protocol, instance)
        states = list(enumerate_states(protocol, instance))
        assert len(states) == state_space_size(protocol, instance), name
        # the oracle's enumeration is written apart from the codec
        assert list(map(oracles.assign_from_state, states)) == list(
            oracles.o_enumerate(protocol, instance)
        ), name
        for k, s in enumerate(states):
            assert codec.decode(k) == s, (name, k)
            assert codec.encode(codec.decode(k)) == k, (name, k)


def test_random_code_draws_like_random_state(small_benchmarks):
    for name, (protocol, instance) in _codec_cases(small_benchmarks).items():
        codec = state_codec(protocol, instance)
        for seed in range(30):
            r1, r2 = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert codec.decode(codec.random_code(r1)) == random_state(protocol, instance, r2)
            assert r1.getrandbits(64) == r2.getrandbits(64), (name, seed)


def test_decoded_states_share_values(lockserver_protocol, lockserver_instance):
    codec = state_codec(lockserver_protocol, lockserver_instance)
    # codes 0 and 1 differ only in the last leaf, so `locked` is one object
    a, b = codec.decode(0), codec.decode(1)
    assert a.values[0] is b.values[0]
    assert a.values[1] is not b.values[1]


def test_projection_is_the_number_of_the_named_digits(small_benchmarks):
    for name, (protocol, instance) in _codec_cases(small_benchmarks).items():
        codec = state_codec(protocol, instance)
        names = codec.schema.names
        # code order counts through the variables' digits, the last fastest
        digits = list(itertools.product(*map(range, codec.radices)))
        stride = 1 if len(digits) <= 4096 else 13  # every code of the small cases
        for r in range(len(names) + 1):
            for subset in itertools.combinations(range(len(names)), r):
                leaves = [j for i in subset for j in codec.var_leaves[names[i]].values()]
                count, project = codec.projection(leaves)
                assert count == math.prod(codec.radices[i] for i in subset), (name, subset)
                for k, ds in enumerate(digits):
                    if k % stride:
                        continue
                    expected = 0
                    for i in subset:
                        expected = expected * codec.radices[i] + ds[i]
                    assert project(k) == expected, (name, subset, k)


def test_leaf_projection_follows_the_leaf_digits(small_benchmarks):
    rng = random.Random(3)
    for name, (protocol, instance) in _codec_cases(small_benchmarks).items():
        codec = state_codec(protocol, instance)
        radices = [r for r, _ in codec.leaves]
        # code order counts through the leaves' digits, the last fastest
        digits = list(itertools.product(*map(range, radices)))
        assert len(digits) == codec.size
        for _ in range(12):
            subset = sorted(rng.sample(range(len(radices)), rng.randint(0, len(radices))))
            count, project = codec.projection(subset)
            assert count == math.prod(radices[j] for j in subset)
            for k, ds in enumerate(digits):
                expected = 0
                for j in subset:
                    expected = expected * radices[j] + ds[j]
                assert project(k) == expected, (name, subset, k)


def test_built_states_equal_decoded_ones_and_intern_nothing(small_benchmarks):
    for name, (protocol, instance) in _codec_cases(small_benchmarks).items():
        codec = state_codec(protocol, instance)
        interned = [len(d) for d in codec.interned]
        n = len(codec.schema.names)
        size = state_space_size(protocol, instance)
        for k in range(0, size, 1 if size <= 4096 else 13):  # every code of the small cases
            s = codec.build(k)
            assert [len(d) for d in codec.interned] == interned
            assert s == codec.decode(k), (name, k)
            for i in range(n):
                part = codec.build(k, [i]).values
                assert part[i] == s.values[i] and part.count(None) == n - 1, (name, k, i)
            interned = [len(d) for d in codec.interned]
