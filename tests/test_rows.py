"""Literal rows against the straight-line oracle and plain recounts.

``Rows`` judges every candidate by whole-row bit operations over state
codes; these tests compare each clause's row with ``oracles.o_holds`` or a
compiled closure state by state, and the filter and the greedy pick that use
the rows with plain recounts on decoded states, on the bundled benchmarks'
batches and on random protocols.
"""
from __future__ import annotations

import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indinv.ctigen import Ctis, WalkTable, _sampled, conjuncts_of, generate_ctis
from indinv.errors import DuplicateSeedWarning
from indinv.evaluator import compile_expr, holds
from indinv.infer import InferenceConfig, infer_inductive_invariant
from indinv.instance import state_codec
from indinv.invgen import (
    LemmaRepository,
    Rows,
    build_candidate,
    generate_lemma_invariants,
)
from indinv.parser import parse_grammar
from indinv.reachability import compute_reach
from indinv.selection import choose_greedy
from indinv.syntax import to_str

from . import oracles
from .oracles import eliminates
from .conftest import SMALL_INSTANCES, fresh_draws
from .strategies import predicates, protocols

# Mixed quantifiers, so the template fold order matters; a seed that reads
# no state variable and one that reads two.
EXISTS_GRAMMAR = """
template forall s: Server. forall d: Client. exists c: Client.
seed locked[s]
seed s in held[c]
seed c = d
seed held[d] = {} \\/ ~locked[s]
max_terms 1,2,3
"""


def _clauses(grammar):
    n = len(grammar.seeds)
    for size in range(1, min(3, n) + 1):
        for idxs in itertools.combinations(range(n), size):
            for negs in itertools.product([False, True], repeat=size):
                yield build_candidate(grammar, tuple(zip(idxs, negs)))


def _assert_rows_match_oracle(grammar, codes, codec, instance):
    rows = Rows(codes, codec, grammar, instance)
    assigns = [oracles.assign_from_state(codec.decode(c)) for c in codes]
    for cand in _clauses(grammar):
        expected = sum(
            1 << k for k, a in enumerate(assigns) if oracles.o_holds(cand.closed, a, instance)
        )
        assert rows.clause(cand.literals) == expected, cand.id


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_clause_rows_equal_the_oracle_on_reach_and_ctis(name, small_benchmarks):
    protocol, grammar, instance = small_benchmarks[name]
    reach = compute_reach(protocol, instance)
    _assert_rows_match_oracle(grammar, reach.codes, reach.codec, instance)
    batch = generate_ctis(protocol, instance, protocol.safety, 500, 12, random.Random(0))
    if name in ("lockserver", "declock", "election"):
        assert batch.ctis
    if batch.ctis:
        _assert_rows_match_oracle(grammar, [c.code for c in batch.ctis], reach.codec, instance)


def test_exists_template_and_stateless_seed_rows(lockserver):
    protocol, _, instance = lockserver
    grammar = parse_grammar(EXISTS_GRAMMAR, protocol)
    codec = state_codec(protocol, instance)
    codes = list(range(codec.size))
    _assert_rows_match_oracle(grammar, codes, codec, instance)
    # the seed c = d reads no state variable: one row per (c, d), each all
    # ones or all zeros
    rows = Rows(codes, codec, grammar, instance)
    assert set(rows.seed(2)) == {0, rows.full}


def test_groups_are_released_once_every_seed_has_its_rows(lockserver):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    n = len(grammar.seeds)
    expected = [Rows(reach.codes, reach.codec, grammar, instance).seed(i) for i in range(n)]
    rows = Rows(reach.codes, reach.codec, grammar, instance)
    for i in range(n):
        assert rows.seed(i) == expected[i]
        assert bool(rows._groups) == (i < n - 1)
    assert [rows.seed(i) for i in range(n)] == expected


@pytest.mark.parametrize("name", ["lockserver", "declock", "election"])
def test_kept_set_and_rejections_equal_a_plain_recount(name, small_benchmarks):
    protocol, grammar, instance = small_benchmarks[name]
    reach = compute_reach(protocol, instance)
    states = reach.states
    for nterms in (1, 2, 3):
        repo = LemmaRepository()
        generate_lemma_invariants(reach, grammar, repo, 200, nterms, random.Random(nterms))
        kept, first_bad = [], []
        for cand in fresh_draws(grammar, 200, nterms, random.Random(nterms)):
            bad = oracles.o_first_falsifier(cand.closed, states, instance)
            if bad is None:
                kept.append(cand.id)
            else:
                first_bad.append((cand.id, bad))
                assert not holds(cand.closed, bad, instance)
        assert [lemma.id for lemma in repo] == kept
        assert first_bad or nterms == 3  # each grammar has a falsifiable short clause


def test_pick_over_the_exists_grammar_equals_a_plain_recount(lockserver):
    protocol, _, instance = lockserver
    grammar = parse_grammar(EXISTS_GRAMMAR, protocol)
    table = WalkTable(protocol, instance)
    ctis = Ctis(table, list(range(table.codec.size)), {})  # codes alone, which selection reads
    pool = list(_clauses(grammar))
    rng = random.Random(3)
    for _ in range(20):
        repo = LemmaRepository()
        for cand in rng.sample(pool, rng.randint(1, len(pool))):
            repo.add(cand)
        sample = ctis.subset(rng.sample(range(len(ctis)), rng.randint(1, 16)))
        states = [table.codec.decode(c) for c in sample.codes]
        full = {l.id: [c for c, s in zip(sample.codes, states) if not holds(l.closed, s, instance)]
                for l in repo}
        keys = sorted((-len(full[l.id]), len(l.literals), l.id) for l in repo if full[l.id])
        choice = choose_greedy(repo, sample, instance)
        if not keys:
            assert choice is None
            continue
        lemma, eliminated = choice
        assert lemma.id == keys[0][2]
        assert eliminated.codes == full[lemma.id]


def _recount(repo, ctis, instance, exclude=frozenset()):
    """The pick by ``eliminates`` on every CTI's decoded state: (lemma id,
    eliminated CTIs) of the most eliminating lemma, ties to fewer literals
    and then the smaller id, or None when none eliminates any."""
    counts = [(-len(gone), len(lemma.literals), lemma.id, gone) for lemma in repo
              if lemma.id not in exclude
              and (gone := [c for c in ctis if eliminates(lemma, c, instance)])]
    return min(counts, key=lambda count: count[:3])[2:] if counts else None


def _assert_pick_equals_recount(repo, ctis, instance, exclude=frozenset()):
    choice = choose_greedy(repo, ctis, instance, exclude)
    expected = _recount(repo, list(ctis), instance, exclude)
    if expected is None:
        assert choice is None
        return 0
    lemma, eliminated = choice
    assert (lemma.id, list(eliminated)) == expected
    assert [c.code for c in eliminated] == [c.code for c in expected[1]]
    return len(eliminated)


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_every_pick_of_an_inference_equals_a_recount(name, small_benchmarks, monkeypatch):
    # each batch an inference scores, exact here, is judged by its codes;
    # a recount by eliminates on the decoded CTIs picks the same lemma and
    # the same eliminated CTIs
    protocol, grammar, instance = small_benchmarks[name]
    picks = []

    def spy(repo, ctis, inst, exclude=frozenset()):
        assert isinstance(ctis, Ctis)
        picks.append(_assert_pick_equals_recount(repo, ctis, inst, exclude))
        return choose_greedy(repo, ctis, inst, exclude)

    monkeypatch.setattr("indinv.infer.choose_greedy", spy)
    result = infer_inductive_invariant(protocol, instance, grammar, InferenceConfig(seed=7))
    assert sum(picks) == result.ctis_eliminated
    assert picks or name in ("consensus", "twophase")


@given(protocols(), st.data())
@settings(max_examples=40, deadline=None)
def test_random_protocol_rows_and_picks_equal_recounts(case, data):
    # a grammar of three drawn predicates' bodies under forall n: S; the
    # rows over the reach codes equal a compiled closure on each reachable
    # state, and picks over a subset of an exact batch and over a sampled
    # batch equal the recount
    protocol, instance = case
    bodies = [to_str(data.draw(predicates(protocol)).body) for _ in range(3)]
    text = "template forall n: S.\n" + "".join(f"seed {b}\n" for b in bodies) + "max_terms 1,2\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSeedWarning)
        grammar = parse_grammar(text, protocol)
    pool = list(_clauses(grammar))
    reach = compute_reach(protocol, instance)
    rows = Rows(reach.codes, reach.codec, grammar, instance)
    states = reach.states
    for cand in pool:
        f = compile_expr(cand.closed, instance, reach.codec.schema)
        expected = sum(1 << k for k, s in enumerate(states) if f(s, {}) is True)
        assert rows.clause(cand.literals) == expected, (text, cand.id)

    size = reach.codec.size
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    repo = LemmaRepository()
    for cand in rng.sample(pool, rng.randint(1, len(pool))):
        repo.add(cand)
    exclude = frozenset(lemma.id for lemma in repo if rng.random() < 0.2)
    exact = generate_ctis(protocol, instance, protocol.safety, size, 10**6, random.Random(0))
    ks = sorted(rng.sample(range(len(exact)), min(len(exact), 80)))
    table = WalkTable(protocol, instance)
    good = table.good(conjuncts_of(protocol.safety))
    sampled = _sampled(table, good, size - 1, 80, random.Random(0))
    for ctis in (exact.ctis.subset(ks), sampled.ctis):
        _assert_pick_equals_recount(repo, ctis, instance, exclude)
