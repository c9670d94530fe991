"""Random small protocols against the oracles.

``strategies.protocols`` covers what the bundled benchmarks barely do:
element-valued map entries as keys of guard reads and of updates, whole
scalar and set updates, a 3-label enum and maps of sets. On each protocol
the firing tables, the safety's verdict tables (by binding, or whole where
an entry is read by an element-valued key and a table by binding would be
no smaller), the leaf search's codes of the safety and of the safety and a
second drawn predicate, the exhaustive induction check of both, the exact
CTI sets and the reachable states must equal the oracles' plain
re-implementations on every state. A search bounded at the count of those
codes lists them, and one bounded below it gives None. Every exact and
walked CTI's witness replays against ``successors``, and one with a step's
post-state or binding swapped does not.
"""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from indinv.ctigen import WalkTable, _sample_walks, generate_ctis, replay_witness
from indinv.infer import check_induction
from indinv.instance import state_codec
from indinv.reachability import compute_reach
from indinv.parser import parse_expression, parse_protocol
from indinv.syntax import to_str

from . import oracles
from .oracles import print_protocol, replace
from .strategies import predicates, protocols


@given(protocols(), st.data())
@settings(max_examples=40, deadline=None)
def test_random_protocols_agree_with_the_oracles(case, data):
    protocol, instance = case
    text = print_protocol(protocol)
    assert print_protocol(parse_protocol(text)) == text

    safety = protocol.safety
    table = WalkTable(protocol, instance)
    codec = table.codec
    holds = table.verdict(safety).holds
    other = parse_expression(to_str(data.draw(predicates(protocol))), protocol)
    safe, both = [], []  # the codes of the safety, and of the safety and other
    for code in range(codec.size):
        assign = oracles.assign_from_state(codec.decode(code))
        ok = oracles.o_holds(safety, assign, instance)
        assert holds(code) == ok, (text, code)
        safe += [code] if ok else []
        both += [code] if ok and oracles.o_holds(other, assign, instance) else []
        got = []
        for i in table.enabled(code):
            post = table.successor(code, i)
            t = table.transition(code, i, codec.decode(post))
            got.append((t.action, tuple(el for _, el in t.binding), post))
        expected = [
            (name, combo, codec.encode(oracles.state_from_assign(protocol, instance, post)))
            for name, combo, post in oracles.o_successors(protocol, instance, assign)
        ]
        assert got == expected, (text, code)
    for conjuncts, expected in (([safety], safe), ([safety, other], both)):
        assert WalkTable(protocol, instance).inside(conjuncts) == expected, (text, other)
        for bound in (len(expected), len(expected) + 1, codec.size):
            assert table.inside(conjuncts, bound) == expected, (text, other, bound)
        if expected:
            assert table.inside(conjuncts, len(expected) - 1) is None, (text, other)

    reach = compute_reach(protocol, instance).states
    expected_reach = oracles.o_reach(protocol, instance)
    assert len(reach) == len(expected_reach), text
    assert {oracles.freeze_state(s) for s in reach} == set(expected_reach), text

    for conjuncts in ([safety], [safety, other]):
        report = check_induction(protocol, instance, conjuncts)
        assert report.mode == "exhaustive"
        assert (report.initiation_ok, report.consecution_ok, report.strengthening_ok) == \
            oracles.o_check_induction(protocol, instance, conjuncts), (text, other)

    batch = generate_ctis(protocol, instance, safety, codec.size, 2, 10**6, random.Random(0))
    assert {oracles.freeze_state(c.state): c.depth_to_violation for c in batch.ctis} == \
        oracles.o_ctis(protocol, instance, safety, 2), text

    walked = _sample_walks(table, table.good([safety]), codec.size - 1, 2, 10**6, random.Random(0))
    for ctis in (batch.ctis, walked.ctis):
        for cti in ctis:
            assert replay_witness(cti, protocol, instance, safety), text
        for cti in ctis[:3]:
            _assert_tampered_steps_rejected(cti, protocol, instance, text)


def _assert_tampered_steps_rejected(cti, protocol, instance, text):
    """Each step with its post-state or its binding swapped fails the replay,
    unless the swapped binding makes another transition of the protocol."""
    codec = state_codec(protocol, instance)
    pres = [cti.state] + [t.post for t in cti.witness[:-1]]
    for j, (pre, t) in enumerate(zip(pres, cti.witness)):
        other = codec.decode((codec.encode(t.post) + 1) % codec.size)
        swapped = [replace(t, post=other)]
        if t.binding:
            dom = instance.domain("S")
            swapped.append(replace(t, binding=tuple(
                (name, dom[(dom.index(el) + 1) % len(dom)]) for name, el in t.binding)))
        real = {(name, combo, oracles.o_freeze(post)) for name, combo, post in
                oracles.o_successors(protocol, instance, oracles.assign_from_state(pre))}
        for step in swapped:
            key = (step.action, tuple(el for _, el in step.binding),
                   oracles.freeze_state(step.post))
            tampered = replace(cti, witness=cti.witness[:j] + (step,) + cti.witness[j + 1:])
            if key not in real:
                assert not replay_witness(tampered, protocol, instance, protocol.safety), text
