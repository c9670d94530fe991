"""Literal rows against the straight-line oracle and plain recounts.

``Rows`` judges every candidate by whole-row bit operations; these tests
compare each clause's row with ``oracles.o_holds`` state by state, and the
filter and the greedy pick that use the rows with plain recounts.
"""
from __future__ import annotations

import itertools
import random

import pytest

from indinv.ctigen import CTI, generate_ctis
from indinv.evaluator import Transition, holds
from indinv.instance import enumerate_states
from indinv.invgen import (
    LemmaRepository,
    Rows,
    build_candidate,
    generate_lemma_invariants,
)
from indinv.parser import parse_grammar
from indinv.reachability import compute_reach
from indinv.selection import choose_greedy, eliminates

from . import oracles
from .conftest import SMALL_INSTANCES, fresh_draws

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


def _assert_rows_match_oracle(grammar, states, instance):
    rows = Rows(states, grammar, instance)
    assigns = [oracles.assign_from_state(s) for s in states]
    for cand in _clauses(grammar):
        expected = sum(
            1 << k for k, a in enumerate(assigns) if oracles.o_holds(cand.closed, a, instance)
        )
        assert rows.clause(cand.literals) == expected, cand.id


def _mk_cti(state, code):
    t = Transition("stub", (), code, state)
    return CTI(state, code, (t,), 1)


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_clause_rows_equal_the_oracle_on_reach_and_ctis(name, small_benchmarks):
    protocol, grammar, instance = small_benchmarks[name]
    reach = compute_reach(protocol, instance)
    _assert_rows_match_oracle(grammar, reach.states, instance)
    batch = generate_ctis(protocol, instance, protocol.safety, 500, 3, 12, random.Random(0))
    if name in ("lockserver", "declock", "election"):
        assert batch.ctis
    if batch.ctis:
        _assert_rows_match_oracle(grammar, [c.state for c in batch.ctis], instance)


def test_exists_template_and_stateless_seed_rows(lockserver):
    protocol, _, instance = lockserver
    grammar = parse_grammar(EXISTS_GRAMMAR, protocol)
    states = list(enumerate_states(protocol, instance))
    _assert_rows_match_oracle(grammar, states, instance)
    # the seed c = d reads no state variable: one row per (c, d), each all
    # ones or all zeros
    rows = Rows(states, grammar, instance)
    assert set(rows.seed(2)) == {0, rows.full}


def test_groups_are_released_once_every_seed_has_its_rows(lockserver):
    protocol, grammar, instance = lockserver
    states = compute_reach(protocol, instance).states
    n = len(grammar.seeds)
    expected = [Rows(states, grammar, instance).seed(i) for i in range(n)]
    rows = Rows(states, grammar, instance)
    for i in range(n):
        assert rows.seed(i) == expected[i]
        assert bool(rows._groups) == (i < n - 1)
    assert [rows.seed(i) for i in range(n)] == expected


@pytest.mark.parametrize("name", ["lockserver", "declock", "election"])
def test_kept_set_and_rejections_equal_a_plain_recount(name, small_benchmarks):
    protocol, grammar, instance = small_benchmarks[name]
    reach = compute_reach(protocol, instance)
    for nterms in (1, 2, 3):
        repo = LemmaRepository()
        generate_lemma_invariants(reach, grammar, repo, 200, nterms, random.Random(nterms))
        kept, first_bad = [], []
        for cand in fresh_draws(grammar, 200, nterms, random.Random(nterms)):
            bad = oracles.o_first_falsifier(cand.closed, reach.states, instance)
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
    ctis = [_mk_cti(s, k) for k, s in enumerate(enumerate_states(protocol, instance))]
    pool = list(_clauses(grammar))
    rng = random.Random(3)
    for _ in range(20):
        repo = LemmaRepository()
        for cand in rng.sample(pool, rng.randint(1, len(pool))):
            repo.add(cand)
        sample = rng.sample(ctis, rng.randint(1, 16))
        full = {l.id: [c for c in sample if eliminates(l, c, instance)] for l in repo}
        keys = sorted((-len(full[l.id]), len(l.literals), l.id) for l in repo if full[l.id])
        choice = choose_greedy(repo, sample, instance)
        if not keys:
            assert choice is None
            continue
        lemma, eliminated = choice
        assert lemma.id == keys[0][2]
        assert eliminated == full[lemma.id]
