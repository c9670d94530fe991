from __future__ import annotations

import pytest

import random

from indinv.ctigen import WalkTable, generate_ctis
from indinv.errors import ConfigError, UnsafeProtocolError
from indinv.evaluator import compile_expr, holds, initial_state, successors
from indinv.infer import (
    InductionReport,
    InferenceConfig,
    check_induction,
    infer_inductive_invariant,
    render_result,
)
from indinv.instance import parse_instance, random_state, state_codec, state_schema
from indinv.parser import parse_expression, parse_grammar, parse_protocol
from indinv.reachability import compute_reach
from indinv.selection import choose_greedy
from indinv.syntax import And, BoolLit, Not, canonical_text

from . import oracles
from .oracles import enumerate_states, state_space_size
from .test_ctigen import LOCKSERVER_4X4, SEED7_CONJUNCTS

A1_TEXT = "forall s: Server. forall c: Client. locked[s] -> ~(s in held[c])"

FAST = dict(n_lemmas=1500, n_ctis=4000)


def test_lockserver_success_with_two_conjuncts(lockserver):
    protocol, grammar, instance = lockserver
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(seed=0, **FAST)
    )
    assert result.status == "success"
    assert len(result.conjuncts) == 2
    assert result.conjuncts[0] == protocol.safety
    # semantic equality with the known inductive invariant on all 64 states
    reference = And((protocol.safety, parse_expression(A1_TEXT, protocol)))
    found = And(tuple(result.conjuncts))
    for s in enumerate_states(protocol, instance):
        assert holds(found, s, instance) == holds(reference, s, instance)


def test_already_inductive_safety_short_circuits(all_benchmarks):
    protocol, grammar, instance = all_benchmarks["consensus"]
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(seed=0, **FAST)
    )
    assert result.status == "success"
    assert len(result.conjuncts) == 1
    assert result.ctis_eliminated == 0
    assert result.rounds == 0
    assert result.lemmas_sampled == 0


def test_useless_grammar_fails_with_partial_ind(lockserver):
    protocol, _, instance = lockserver
    grammar = parse_grammar("template forall s: Server.\nseed true\nmax_terms 1", protocol)
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(seed=0, n_lemmas=200, n_ctis=2000)
    )
    assert result.status == "fail"
    assert result.conjuncts == [protocol.safety]


def test_walks_that_never_start_inside_ind_do_not_end_in_success(lockserver, monkeypatch):
    # 200 draws over 2^20 codes: the last batch draws no code of Ind, so it
    # finds no CTI from no evidence
    protocol, grammar, _ = lockserver
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    batches = []

    def spy_ctis(*args, **kwargs):
        batches.append(generate_ctis(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr("indinv.infer.generate_ctis", spy_ctis)
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(seed=1, n_lemmas=300, n_ctis=200)
    )
    assert (len(batches[-1]), batches[-1].samples_attempted, batches[-1].starts) == (0, 200, 0)
    assert result.status == "fail"
    assert batches[0].starts > 0 and len(result.conjuncts) == 2


def test_every_conjunct_is_an_invariant_even_on_failure(lockserver):
    protocol, _, instance = lockserver
    grammar = parse_grammar(
        "template forall s: Server. forall c: Client.\n"
        "seed locked[s]\nseed held[c] = {}\nmax_terms 1,2",
        protocol,
    )
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(seed=1, n_lemmas=400, n_ctis=2000)
    )
    states = compute_reach(protocol, instance).states
    for conjunct in result.conjuncts:
        assert all(holds(conjunct, s, instance) for s in states)


def test_success_is_validated_by_exhaustive_induction(small_benchmarks):
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        result = infer_inductive_invariant(
            protocol, instance, grammar, InferenceConfig(seed=2, **FAST)
        )
        if result.status != "success":
            continue
        report = check_induction(protocol, instance, result.conjuncts)
        assert report.passed, name


def test_every_cti_satisfies_every_earlier_pick(small_benchmarks, monkeypatch):
    # so a pick eliminates nothing later, and the loop needs no exclusion set
    checked = 0
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        picks, batches = [], []

        def spy_ctis(*args, **kwargs):
            batch = generate_ctis(*args, **kwargs)
            batches.append((len(picks), batch.ctis))
            return batch

        def spy_choose(*args, **kwargs):
            choice = choose_greedy(*args, **kwargs)
            if choice is not None:
                picks.append(choice[0].closed)
            return choice

        monkeypatch.setattr("indinv.infer.generate_ctis", spy_ctis)
        monkeypatch.setattr("indinv.infer.choose_greedy", spy_choose)
        result = infer_inductive_invariant(protocol, instance, grammar, InferenceConfig(seed=7))
        assert result.conjuncts[1:] == picks, name
        for earlier, ctis in batches:
            for cti in ctis:
                assign = oracles.assign_from_state(cti.state)
                assert all(oracles.o_holds(p, assign, instance) for p in picks[:earlier]), name
                checked += earlier
    assert checked > 0


def test_determinism_of_conjunct_lists(lockserver):
    protocol, grammar, instance = lockserver
    cfg = InferenceConfig(seed=13, **FAST)
    a = infer_inductive_invariant(protocol, instance, grammar, cfg)
    b = infer_inductive_invariant(protocol, instance, grammar, cfg)
    assert a.conjunct_texts() == b.conjunct_texts()
    assert a.ctis_eliminated == b.ctis_eliminated
    assert a.rounds == b.rounds
    assert render_result(a, None, "lockserver") == render_result(b, None, "lockserver")


UNSAFE = """
sort A
var s : set<A>
var t : bool
init s = {}
init t = false
action Add(a: A) { s := s + {a}; }
action T() { t := true; }
safety NotBoth: s = {} \\/ ~t
"""
UNSAFE_GRAMMAR = "template forall a: A.\nseed a in s\nmax_terms 1"


def test_unsafe_protocol_detected():
    text = (
        "sort A\nvar s : set<A>\ninit s = {}\n"
        "action Add(a: A) { s := s + {a}; }\n"
        "safety Empty: s = {}"
    )
    protocol = parse_protocol(text)
    instance = parse_instance("A=a1", protocol)
    grammar = parse_grammar(UNSAFE_GRAMMAR, protocol)
    with pytest.raises(UnsafeProtocolError):
        infer_inductive_invariant(
            protocol, instance, grammar, InferenceConfig(seed=0, n_lemmas=50, n_ctis=500)
        )
    # the error names the first reachable state, in BFS order, that fails safety
    protocol = parse_protocol(UNSAFE)
    instance = parse_instance("A=a1,a2", protocol)
    grammar = parse_grammar(UNSAFE_GRAMMAR, protocol)
    with pytest.raises(UnsafeProtocolError) as err:
        infer_inductive_invariant(protocol, instance, grammar, InferenceConfig(seed=0, **FAST))
    assert str(err.value) == "safety predicate fails at reachable state: s={a1}, t=true"


def test_invalid_config_rejected(lockserver):
    protocol, grammar, instance = lockserver
    with pytest.raises(ConfigError):
        infer_inductive_invariant(
            protocol, instance, grammar, InferenceConfig(n_lemmas=0)
        )


# -- induction checking -------------------------------------------------------


def test_known_invariant_passes_exhaustive_check(lockserver):
    protocol, _, instance = lockserver
    ind = [protocol.safety, parse_expression(A1_TEXT, protocol)]
    report = check_induction(protocol, instance, ind)
    assert report.passed
    assert report.states_checked == 64
    assert report.strengthening_structural


def test_safety_alone_fails_consecution_with_replayable_witness(lockserver):
    protocol, _, instance = lockserver
    report = check_induction(protocol, instance, [protocol.safety])
    assert report.initiation_ok
    assert not report.consecution_ok
    state, transition, violated = report.consecution_witness
    assert violated == 0
    # witness replays: state satisfies Ind, transition is real, post violates
    assert holds(protocol.safety, state, instance)
    assert not holds(protocol.safety, transition.post, instance)
    from indinv.evaluator import successors

    matching = [
        t for t in successors(state, protocol, instance)
        if t.action == transition.action and t.binding == transition.binding
    ]
    assert len(matching) == 1
    assert matching[0].post == transition.post


def test_consecution_steps_no_code_past_its_witness(all_benchmarks, monkeypatch):
    # consecution is the exact CTI rule capped at one CTI: it steps Ind's
    # codes in code order and stops at the first with a successor outside Ind
    protocol, _, instance = all_benchmarks["election"]
    stepped = []
    successor = WalkTable.successor
    monkeypatch.setattr(WalkTable, "successor",
                        lambda table, code, i: stepped.append(code) or successor(table, code, i))
    report = check_induction(protocol, instance, [protocol.safety])
    state, transition, violated = report.consecution_witness
    code = transition.pre_code
    assert state_codec(protocol, instance).encode(state) == code and violated == 0
    assert stepped and max(stepped) == code
    monkeypatch.undo()
    assert any(c > code for c in WalkTable(protocol, instance).inside([protocol.safety]))


def test_literal_false_fails_initiation(lockserver):
    protocol, _, instance = lockserver
    report = check_induction(protocol, instance, [protocol.safety, BoolLit(False)])
    assert not report.initiation_ok
    state, idx = report.initiation_witness
    assert idx == 1


def test_strengthening_checked_semantically_without_safety_first(lockserver):
    protocol, _, instance = lockserver
    # A1 alone does not imply Safe, so strengthening must fail semantically
    report = check_induction(protocol, instance, [parse_expression(A1_TEXT, protocol)])
    assert not report.strengthening_structural
    assert not report.strengthening_ok
    witness = report.strengthening_witness
    assert holds(parse_expression(A1_TEXT, protocol), witness, instance)
    assert not holds(protocol.safety, witness, instance)


def test_exhaustive_mode_respects_limit(lockserver):
    protocol, _, instance = lockserver
    assert check_induction(protocol, instance, [protocol.safety]).mode == "exhaustive"
    report = check_induction(protocol, instance, [protocol.safety], limit=10)
    assert report.mode == "sampled"
    assert report.states_checked == 20000


def test_sampled_mode_finds_obvious_consecution_failures(lockserver):
    protocol, _, instance = lockserver
    report = check_induction(
        protocol, instance, [protocol.safety], limit=1, n_samples=4000, seed=0
    )
    assert report.mode == "sampled"
    assert not report.consecution_ok


def test_sampled_check_counts_the_codes_inside_the_conjunction(lockserver):
    protocol = lockserver[0]
    instance = parse_instance("Server=s1,s2,s3,s4 Client=c1,c2,c3,c4", protocol)
    # lockserver 4x4's seed-7 invariant, checked with infer's own sample
    ind = [protocol.safety, *(parse_expression(t, protocol) for t in SEED7_CONJUNCTS["lockserver"])]
    report = check_induction(protocol, instance, ind)
    assert report.passed
    assert report.describe() == "pass mode=sampled states=20000 ind=18"
    # none of the 18 is among the sample's first 500 codes
    report = check_induction(protocol, instance, ind, n_samples=500)
    assert report.consecution_ok and report.strengthening_ok and not report.passed
    assert report.describe() == "unchecked mode=sampled states=500 ind=0"


def test_verdicts_match_oracle_on_crafted_conjunct_sets(small_benchmarks):
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        cases = [[protocol.safety], [protocol.safety, BoolLit(False)]]
        engine = [check_induction(protocol, instance, c) for c in cases]
        oracle = [oracles.o_check_induction(protocol, instance, c) for c in cases]
        for rep, (i_ok, c_ok, s_ok) in zip(engine, oracle):
            assert rep.initiation_ok == i_ok, name
            assert rep.consecution_ok == c_ok, name
            assert rep.strengthening_ok == s_ok, name


def _scan_induction(protocol, instance, conjuncts, limit=1_000_000, n_samples=20000, seed=0):
    """check_induction written as a plain per-state scan: every state is
    built, by enumeration or by random_state, and every conjunct evaluated."""
    init = initial_state(protocol, instance)
    failing = [i for i, c in enumerate(conjuncts) if not holds(c, init, instance)]
    structural = canonical_text(conjuncts[0]) == canonical_text(protocol.safety)
    if state_space_size(protocol, instance) <= limit:
        mode, states = "exhaustive", list(enumerate_states(protocol, instance))
    else:
        rng = random.Random(seed)
        mode, states = "sampled", [random_state(protocol, instance, rng) for _ in range(n_samples)]
    schema = state_schema(protocol)
    fs = [compile_expr(c, instance, schema) for c in conjuncts]
    safe = compile_expr(protocol.safety, instance, schema)
    inside = [s for s in states if all(f(s, {}) is True for f in fs)]
    weak = [s for s in inside if safe(s, {}) is not True]
    steps = [
        (s, t, bad[0])
        for s in inside for t in successors(s, protocol, instance)
        for bad in [[i for i, f in enumerate(fs) if f(t.post, {}) is not True]] if bad
    ]
    return InductionReport(
        (init, failing[0]) if failing else None, steps[0] if steps else None,
        structural, None if structural or not weak else weak[0],
        len(states), len(inside), mode,
    )


def _conjunct_lists(protocol, lemmas):
    safety = protocol.safety
    lists = [[safety], [safety, *lemmas], [BoolLit(True)], [Not(safety)],
             [safety, BoolLit(False)], [BoolLit(True), safety]]
    if lemmas:
        lists += [[lemma] for lemma in lemmas] + [[*lemmas[::-1], safety]]
    return lists


def test_check_induction_equals_a_plain_scan(all_benchmarks, small_benchmarks):
    cases = [all_benchmarks[n] for n in ("consensus", "lockserver", "twophase")]
    cases.append(small_benchmarks["election"])
    for name, (protocol, _, instance) in zip(("consensus", "lockserver", "twophase", "election"),
                                            cases):
        lemmas = [parse_expression(t, protocol) for t in SEED7_CONJUNCTS[name]]
        for conjuncts in _conjunct_lists(protocol, lemmas):
            report = check_induction(protocol, instance, conjuncts)
            assert report.mode == "exhaustive"
            assert report == _scan_induction(protocol, instance, conjuncts), (name, conjuncts)
    protocol = all_benchmarks["lockserver"][0]
    instance = parse_instance("Server=s1,s2,s3,s4 Client=c1,c2,c3,c4", protocol)
    lemmas = [parse_expression(t, protocol) for t in SEED7_CONJUNCTS["lockserver"]]
    verdicts = set()
    for conjuncts in _conjunct_lists(protocol, lemmas):
        report = check_induction(protocol, instance, conjuncts, n_samples=2000, seed=11)
        assert report.mode == "sampled"
        assert report == _scan_induction(protocol, instance, conjuncts, n_samples=2000, seed=11)
        verdicts.add((report.consecution_ok, report.strengthening_ok))
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


NO_VARIABLES = """
sort S
action A() { require true; }
safety T: true
"""


def test_leaf_search_with_no_leaves_or_parts_that_read_none(lockserver):
    # a protocol without variables has one code and no leaf, and a part
    # that reads no leaf, such as the whole of forall m. forall n. m = n, is
    # judged before the first leaf; both agree with a plain filter, the
    # plain scan and the oracle
    empty = parse_protocol(NO_VARIABLES)
    cases = [(empty, "S=a,b", text) for text in
             ("true", "false", "forall m: S. forall n: S. m = n")]
    lock = lockserver[0]
    cases += [(lock, domains, "forall m: Server. forall n: Server. m = n")
              for domains in ("Server=s1 Client=c1,c2", "Server=s1,s2 Client=c1")]
    for protocol, domains, text in cases:
        instance = parse_instance(domains, protocol)
        conjuncts = [protocol.safety, parse_expression(text, protocol)]
        schema = state_schema(protocol)
        fs = [compile_expr(c, instance, schema) for c in conjuncts]
        expected = [k for k, s in enumerate(enumerate_states(protocol, instance))
                    if all(f(s, {}) is True for f in fs)]
        table = WalkTable(protocol, instance)
        assert table.inside(conjuncts) == expected, (domains, text)
        assert not table.verdict(conjuncts[1]).parts[0].leaves
        report = check_induction(protocol, instance, conjuncts)
        assert report == _scan_induction(protocol, instance, conjuncts), (domains, text)
        assert (report.initiation_ok, report.consecution_ok, report.strengthening_ok) == \
            oracles.o_check_induction(protocol, instance, conjuncts), (domains, text)
    assert state_space_size(empty, parse_instance("S=a,b", empty)) == 1


# -- reporting ----------------------------------------------------------------


def test_render_result_field_order(lockserver):
    protocol, grammar, instance = lockserver
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(seed=0, **FAST)
    )
    report = check_induction(protocol, instance, result.conjuncts)
    text = render_result(result, report, "lockserver")
    keys = [line.split(":")[0] for line in text.splitlines()]
    assert keys == [
        "status", "protocol", "instance", "seed", "config", "conjuncts",
        "conjunct 1", "conjunct 2", "rounds", "lemmas_sampled", "lemmas_kept",
        "ctis_eliminated", "induction",
    ]
