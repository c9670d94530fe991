"""Random small protocols against the oracles.

``strategies.protocols`` covers what the bundled benchmarks barely do:
element-valued map entries as keys of guard reads and of updates, whole
scalar and set updates, a 3-label enum and maps of sets. On each protocol
the firing tables, the exhaustive induction check and the exact CTI sets
must equal the oracles' plain re-implementations on every state.
"""
from __future__ import annotations

import random

from hypothesis import given, settings

from indinv.ctigen import WalkTable, generate_ctis
from indinv.infer import check_induction
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

    table = WalkTable(protocol, instance)
    codec = table.codec
    for code in range(codec.size):
        got = []
        for i in table.enabled(code):
            post = table.successor(code, i)
            t = table.transition(code, i, codec.decode(post))
            got.append((t.action, tuple(el for _, el in t.binding), post))
        expected = [
            (name, combo, codec.encode(oracles.state_from_assign(protocol, instance, post)))
            for name, combo, post in oracles.o_successors(
                protocol, instance, oracles.assign_from_state(codec.decode(code)))
        ]
        assert got == expected, (text, code)

    safety = protocol.safety
    report = check_induction(protocol, instance, [safety])
    assert report.mode == "exhaustive"
    assert (report.initiation_ok, report.consecution_ok, report.strengthening_ok) == \
        oracles.o_check_induction(protocol, instance, [safety]), text

    batch = generate_ctis(protocol, instance, safety, codec.size, 2, 10**6, random.Random(0))
    assert {oracles.freeze_state(c.state): c.depth_to_violation for c in batch.ctis} == \
        oracles.o_ctis(protocol, instance, safety, 2), text
