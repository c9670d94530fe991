"""Random small protocols against the oracles.

``strategies.protocols`` covers what the bundled benchmarks barely do:
element-valued map entries as keys of guard reads and of updates, whole
scalar and set updates, a 3-label enum and maps of sets. On each protocol
the firing tables, the safety's verdict tables and column (by binding, or
whole where an entry is read by an element-valued key and a table by
binding would be no smaller), the exhaustive induction check, the exact
CTI sets and the reachable states must equal the oracles' plain
re-implementations on every state.
"""
from __future__ import annotations

import random

from hypothesis import given, settings

from indinv.ctigen import WalkTable, generate_ctis
from indinv.infer import check_induction
from indinv.reachability import compute_reach
from indinv.parser import parse_protocol
from indinv.syntax import print_protocol

from . import oracles
from .strategies import protocols


@given(protocols())
@settings(max_examples=40, deadline=None)
def test_random_protocols_agree_with_the_oracles(case):
    protocol, instance = case
    text = print_protocol(protocol)
    assert print_protocol(parse_protocol(text)) == text

    safety = protocol.safety
    table = WalkTable(protocol, instance)
    codec = table.codec
    holds = table.verdict(safety).holds
    safe = bytearray()
    for code in range(codec.size):
        assign = oracles.assign_from_state(codec.decode(code))
        safe.append(oracles.o_holds(safety, assign, instance))
        assert holds(code) == safe[-1], (text, code)
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
    assert WalkTable(protocol, instance).narrow(safety) == safe, text

    reach = compute_reach(protocol, instance).states
    expected_reach = oracles.o_reach(protocol, instance)
    assert len(reach) == len(expected_reach), text
    assert {oracles.freeze_state(s) for s in reach} == set(expected_reach), text

    report = check_induction(protocol, instance, [safety])
    assert report.mode == "exhaustive"
    assert (report.initiation_ok, report.consecution_ok, report.strengthening_ok) == \
        oracles.o_check_induction(protocol, instance, [safety]), text

    batch = generate_ctis(protocol, instance, safety, codec.size, 2, 10**6, random.Random(0))
    assert {oracles.freeze_state(c.state): c.depth_to_violation for c in batch.ctis} == \
        oracles.o_ctis(protocol, instance, safety, 2), text
